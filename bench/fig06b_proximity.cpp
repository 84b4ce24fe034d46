// Figure 6b — "Proximity (the lower the better)".
//
// Mean distance between each node and its k = 4 closest T-Man neighbours,
// through the three-phase scenario, for Polystyrene K ∈ {8, 4, 2} and bare
// T-Man.  Expected shape (paper §IV-B): Polystyrene's neighbourhoods stay
// almost as tight as T-Man's — ≈ 1.50 vs 1.005 once half the torus is gone
// (survivors spread over twice the area, so grid spacing grows ≈ √2) and on
// par again after re-injection (≈ 1.02 vs 0.97).
#include <cstdio>

#include "common.hpp"

int main(int argc, char** argv) {
  using namespace poly;
  const auto opt = bench::BenchOptions::parse(argc, argv, /*reps=*/5);
  std::printf("Fig. 6b: proximity vs rounds (80x40 torus, %zu reps, "
              "seed %llu)\n\n",
              opt.reps, static_cast<unsigned long long>(opt.seed));

  const auto r = bench::run_paper_scenario(opt);
  bench::emit(r.series_table("proximity"), opt, "fig06b");

  std::puts("\nKey paper values: K4 ≈ 1.50 vs TMan ≈ 1.005 at round 28; "
            "K4 ≈ 1.02 vs TMan ≈ 0.97 after re-injection (round 125).");
  return 0;
}
