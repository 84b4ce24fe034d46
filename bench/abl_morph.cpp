// Ablation (the paper's footnote 1 / future work) — an evolving target
// shape.
//
// "For ease of exposition, we assume this shape is static in the rest of
//  the paper.  It could, however, keep evolving as the algorithm
//  executes."  (§III-A, footnote 1)
//
// This bench moves the whole target shape — a rigid translation of every
// data point by (dx, 0) per round, wrapping around the torus — while the
// protocol runs.  The notable (and provable) outcome: homogeneity is
// *exactly* preserved at any drift speed, because the system is
// equivariant under isometries — guests move with the shape and the
// medoid projection moves the holders with them, so point-to-holder
// distances never change.  What drift does cost is the topology layer's
// view freshness (position-update traffic) and, observably here, a small
// recovery overhead: the final half-torus catastrophe on the *moving*
// shape reshapes slightly slower than on a static one, showing recovery
// and tracking compose.
#include <cstdio>

#include "common.hpp"

int main(int argc, char** argv) {
  using namespace poly;
  const auto opt = bench::BenchOptions::parse(argc, argv, /*reps=*/3);
  std::printf("Ablation: evolving target shape (80x40 torus, K=4, rigid "
              "drift, %zu reps)\n\n",
              opt.reps);

  util::Table table({"drift/round", "homogeneity@80 (tracking)", "H",
                     "reshaping after catastrophe (rounds)"});

  for (double drift : {0.0, 0.1, 0.25, 0.5, 1.0}) {
    // The catastrophe strikes while the shape keeps drifting.
    const std::string move =
        drift > 0.0 ? "morph drift " + std::to_string(drift) + " 0 " : "run ";
    const auto r = scenario::run_program(bench::grid_program(
        3200, "run 20\n" + move + "60\ncrash half\n" + move + "40\n", opt));
    // Row 79: the last tracking round, before the catastrophe.
    constexpr std::size_t kTracked = 79;
    table.add_row(
        {util::fmt(drift, 2),
         util::fmt(r.series("homogeneity").row(kTracked).mean, 3),
         util::fmt(r.first().rounds[kTracked]["reference_h"], 3),
         bench::reshaping_mean_cell(r, "DNF>40")});
  }

  bench::emit(table, opt, "abl_morph");
  std::puts("\nExpected: tracking error exactly 0 at every drift speed "
            "(equivariance under isometries — guests and medoid-projected "
            "holders move together); recovery on the moving shape costs at "
            "most a fraction of a round over the static case.");
  return 0;
}
