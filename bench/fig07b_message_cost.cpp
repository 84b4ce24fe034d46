// Figure 7b — "Communication cost (1 ID = 1 coordinate = 1 unit)".
//
// Per-node per-round message cost in the paper's units (§IV-A: id = 1,
// coordinate = 1, descriptor = 3, 2-D data point = 2; RPS excluded).
// Expected shape (paper §IV-B): Polystyrene costs barely more than T-Man —
// T-Man's position-update traffic dominates (93.6% of the total for K = 8);
// Polystyrene adds only migration exchanges and delta-optimized backups.
// This bench prints the paper's curve (total per-node cost per config) plus
// the per-channel breakdown for the K = 8 run that the 93.6% claim is about.
#include <cstdio>

#include "common.hpp"

int main(int argc, char** argv) {
  using namespace poly;
  const auto opt = bench::BenchOptions::parse(argc, argv, /*reps=*/5);
  std::printf("Fig. 7b: message cost per node vs rounds (80x40 torus, %zu "
              "reps, seed %llu)\n\n",
              opt.reps, static_cast<unsigned long long>(opt.seed));

  const auto r = bench::run_paper_scenario(opt);
  bench::emit(r.series_table("msg_paper"), opt, "fig07b");

  // Breakdown for the 93.6% claim: T-Man share of the K = 8 total over the
  // post-failure steady state (rounds 40..99).
  const auto k8_tman = r.poly_k8.series("msg_tman");
  const auto k8_paper = r.poly_k8.series("msg_paper");
  double tman_units = 0.0;
  double total_units = 0.0;
  for (std::size_t round = 40; round < 100 && round < k8_paper.rounds();
       ++round) {
    tman_units += k8_tman.row(round).mean;
    total_units += k8_paper.row(round).mean;
  }
  if (total_units > 0.0)
    std::printf("\nT-Man share of Polystyrene_K8 traffic (rounds 40-99): "
                "%.1f%%  (paper: 93.6%%)\n",
                100.0 * tman_units / total_units);

  util::Table breakdown({"channel", "K8 units/node/round (rounds 40-99)"});
  auto mean_over = [&](const char* channel) {
    const auto s = r.poly_k8.series(channel);
    double sum = 0.0;
    std::size_t n = 0;
    for (std::size_t round = 40; round < 100 && round < s.rounds(); ++round) {
      sum += s.row(round).mean;
      ++n;
    }
    return n ? sum / static_cast<double>(n) : 0.0;
  };
  breakdown.add_row({"tman", util::fmt(mean_over("msg_tman"), 2)});
  breakdown.add_row({"backup", util::fmt(mean_over("msg_backup"), 2)});
  breakdown.add_row({"migration", util::fmt(mean_over("msg_migration"), 2)});
  breakdown.add_row({"rps (not in paper's figure)",
                     util::fmt(mean_over("msg_rps"), 2)});
  bench::emit(breakdown, opt, "fig07b_breakdown");
  return 0;
}
