// Ablation (beyond the paper) — sustained uncorrelated churn.
//
// The paper evaluates one catastrophic region failure; classic gossip
// results concern *continuous* churn.  This bench subjects Polystyrene to
// both at once: every round a fraction of random nodes crashes and the
// same number of fresh (stateless) nodes joins.  Reported: shape quality
// and cumulative data-point survival after 100 churn rounds, per churn
// rate — plus a final catastrophic half-failure on top of the churning
// system.
//
// Expected: reliability decays with churn (a point dies when its primary
// and all K backups churn out within one detection window — rare but
// compounding), homogeneity stays near the reference as long as churn per
// round is small relative to repair speed.
#include <cstdio>

#include "common.hpp"

int main(int argc, char** argv) {
  using namespace poly;
  const auto opt = bench::BenchOptions::parse(argc, argv, /*reps=*/3);
  std::printf("Ablation: sustained churn (80x40 torus, K=4, 100 churn "
              "rounds, %zu reps)\n\n",
              opt.reps);

  util::Table table({"churn/round (%)", "homogeneity@100", "H",
                     "reliability@100 (%)", "reliability after +catastrophe"});

  for (double churn_pct : {0.0, 0.5, 1.0, 2.0, 5.0}) {
    const std::string churn =
        churn_pct > 0.0 ? "churn " + std::to_string(churn_pct) + " 100"
                        : "run 100";
    const auto r = scenario::run_program(bench::grid_program(
        3200, "run 20\n" + churn + "\ncrash half\nrun 15\n", opt));
    // Row 119: the last churn round, before the catastrophe on top.
    constexpr std::size_t kChurned = 119;
    table.add_row(
        {util::fmt(churn_pct, 1),
         util::fmt(r.series("homogeneity").row(kChurned).mean, 3),
         util::fmt(r.first().rounds[kChurned]["reference_h"], 3),
         util::fmt(r.series("reliability").row(kChurned).mean * 100.0, 2),
         util::fmt(r.reliability_ci().mean * 100.0, 2)});
  }

  bench::emit(table, opt, "abl_churn");
  std::puts("\nExpected: graceful degradation — homogeneity tracks the "
            "reference under mild churn; reliability decays with rate and "
            "compounds with the final catastrophe.");
  return 0;
}
