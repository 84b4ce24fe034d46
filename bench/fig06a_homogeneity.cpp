// Figure 6a — "Homogeneity (the lower the better)".
//
// The paper's headline curve: homogeneity vs rounds through the three-phase
// scenario (converge → half-torus crash at r=20 → re-injection at r=100)
// for Polystyrene K ∈ {8, 4, 2} and bare T-Man, mean ± 95% CI across
// repetitions.  Expected shape (paper §IV-B):
//   * all Polystyrene variants drop below H¹⁶⁰⁰ ≈ 0.71 within 10 rounds of
//     the crash (e.g. 0.61 at round 28 for K = 4);
//   * T-Man jumps to ≈ 5.25 at the crash and stays there;
//   * after re-injection Polystyrene returns to ≈ 0.035, T-Man sticks at
//     ≈ 0.35.
#include <cstdio>

#include "common.hpp"

int main(int argc, char** argv) {
  using namespace poly;
  const auto opt = bench::BenchOptions::parse(argc, argv, /*reps=*/5);
  std::printf("Fig. 6a: homogeneity vs rounds (80x40 torus, %zu reps, "
              "seed %llu)\n\n",
              opt.reps, static_cast<unsigned long long>(opt.seed));

  const auto r = bench::run_paper_scenario(opt);
  bench::emit(r.series_table("homogeneity"), opt, "fig06a");

  std::puts("\nKey paper values: K4 homogeneity ≈ 0.61 at round 28; TMan "
            "plateau ≈ 5.25 after the crash; K4 ≈ 0.035 vs TMan ≈ 0.35 at "
            "round 199.");
  return 0;
}
