// Ablation (beyond the paper) — failure detector quality.
//
// The paper assumes "a (possibly imperfect) failure detector" (§III-A) but
// evaluates only prompt detection.  This bench quantifies the dependence:
// detection latency d ∈ {0, 1, 2, 4} rounds delays recovery (ghosts cannot
// reactivate until the crash is noticed), shifting the reshaping time by
// roughly the detection delay; a false-positive rate additionally inflates
// duplicate copies (live nodes' ghosts get spuriously reactivated, to be
// deduplicated later by migration).
#include <cstdio>

#include "common.hpp"

int main(int argc, char** argv) {
  using namespace poly;
  const auto opt = bench::BenchOptions::parse(argc, argv, /*reps=*/5);
  std::printf("Ablation: failure-detector latency & false positives "
              "(80x40 torus, K=4, %zu reps)\n\n",
              opt.reps);

  util::Table table({"fd_delay (rounds)", "fp_rate",
                     "reshaping time (rounds)", "reliability (%)",
                     "peak points/node"});

  auto run_case = [&](std::uint64_t delay, double fp) {
    auto program = bench::crash_repair_program(3200, 20, 50, opt);
    program.options.config.fd_delay_rounds = delay;
    program.options.config.fd_false_positive_rate = fp;

    const auto result = scenario::run_program(program);
    const auto points = result.series("points_per_node");
    double peak = 0.0;
    for (std::size_t round = 0; round < points.rounds(); ++round)
      peak = std::max(peak, points.row(round).mean);
    table.add_row({std::to_string(delay), util::fmt(fp, 3),
                   result.reshaping_ci().str(2),
                   bench::reliability_pct_cell(result), util::fmt(peak, 2)});
  };

  for (std::uint64_t delay : {0ull, 1ull, 2ull, 4ull}) run_case(delay, 0.0);
  run_case(0, 0.001);
  run_case(0, 0.01);

  bench::emit(table, opt, "abl_fd_latency");
  std::puts("\nExpected: reshaping shifts by ≈ the detection delay; "
            "reliability is unaffected (crash-stop + stable ghosts); false "
            "positives inflate the copy count transiently.");
  return 0;
}
