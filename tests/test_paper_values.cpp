// Acceptance tests against the paper's reported numbers, at the paper's
// full scale (3,200 nodes, 80×40 torus).  These are the slowest tests in
// the suite (a few seconds each) and pin down the quantitative fidelity
// of the reproduction:
//
//   * T-Man's post-catastrophe homogeneity plateau: 5.25 (closed form);
//   * T-Man's post-re-injection plateau: ≈ 0.354;
//   * Polystyrene reshapes in < 10 rounds for K ∈ {2, 4, 8} (Fig. 6a);
//   * reshaping ordering K2 ≤ K4 ≤ K8 (Table II);
//   * reliability within ~1.5 % of the §III-D analytic 1 − 0.5^(K+1);
//   * proximity ≈ 1.0 at convergence (Fig. 6b) and ≈ 1.4-1.6 post-repair;
//   * steady-state storage = K+1 points/node, ≈ 2(K+1) post-catastrophe.
#include <gtest/gtest.h>

#include <cmath>

#include "core/polystyrene.hpp"
#include "scenario/program.hpp"
#include "scenario/simulation.hpp"
#include "shape/grid_torus.hpp"

namespace {

using poly::core::PolystyreneLayer;
using poly::scenario::Simulation;
using poly::scenario::SimulationConfig;
using poly::shape::GridTorusShape;

/// Table II's timeline with a 20-round repair window: converge 20 rounds,
/// crash the failure half, repair; one repetition at `seed` with K = `k`.
poly::scenario::ProgramRun run_crash_repair(std::uint64_t seed,
                                            std::size_t k) {
  auto p = poly::scenario::parse_program(
      "shape grid:80x40\nrun 20\ncrash half\nrun 20\n");
  p.options.config.seed = seed;
  p.options.config.poly.replication = k;
  return poly::scenario::run_program(p).first();
}

class PaperScale : public ::testing::Test {
 protected:
  GridTorusShape shape_{80, 40};
};

TEST_F(PaperScale, TmanPlateauAfterCatastropheIs525) {
  SimulationConfig config;
  config.polystyrene = false;
  config.seed = 3;
  Simulation sim(shape_, config);
  sim.run_rounds(20);
  ASSERT_DOUBLE_EQ(sim.homogeneity(), 0.0);
  ASSERT_NEAR(sim.proximity(), 1.0, 0.02);  // paper: 1.005
  sim.crash_failure_half();
  sim.run_rounds(20);
  // Paper §IV-B: "homogeneity stable at 5.25 ± 0.0 after the failure".
  EXPECT_NEAR(sim.homogeneity(), 5.25, 0.01);
  // And T-Man has healed its neighbourhoods (Fig. 1c): proximity small.
  EXPECT_LT(sim.proximity(), 1.2);
}

TEST_F(PaperScale, TmanPlateauAfterReinjectionIs035) {
  SimulationConfig config;
  config.polystyrene = false;
  config.seed = 5;
  Simulation sim(shape_, config);
  sim.run_rounds(20);
  const std::size_t crashed = sim.crash_failure_half();
  sim.run_rounds(20);
  sim.reinject(crashed);
  sim.run_rounds(20);
  // Paper §IV-B: "Its homogeneity remains at 0.35 at round 199."
  EXPECT_NEAR(sim.homogeneity(), 0.354, 0.01);
}

struct KCase {
  std::size_t k;
  double max_reshaping;  // paper + slack
};

class PaperScaleK : public ::testing::TestWithParam<KCase> {};

TEST_P(PaperScaleK, ReshapesWithinTenRoundsAndReliabilityTracksAnalytic) {
  const auto [k, max_reshaping] = GetParam();
  const auto result = run_crash_repair(7, k);

  // Fig. 6a: below H within 10 rounds for every K.
  ASSERT_FALSE(std::isnan(result.reshaping_rounds));
  EXPECT_LE(result.reshaping_rounds, max_reshaping);
  EXPECT_NEAR(result.reference_h_after_crash, std::sqrt(2.0) / 2.0, 1e-9);

  // Table II: reliability within 1.5 % of 1 − 0.5^(K+1).
  EXPECT_NEAR(result.reliability, PolystyreneLayer::analytic_survival(k, 0.5),
              0.015);
}

INSTANTIATE_TEST_SUITE_P(AllK, PaperScaleK,
                         ::testing::Values(KCase{2, 6.0}, KCase{4, 8.0},
                                           KCase{8, 10.0}),
                         [](const auto& info) {
                           return "K" + std::to_string(info.param.k);
                         });

TEST_F(PaperScale, ReshapingOrderingGrowsWithK) {
  // Table II: more replicas = more redundant copies to deduplicate =
  // slower reshaping (5.00 / 6.96 / 9.08 in the paper).
  double previous = 0.0;
  for (std::size_t k : {2ul, 4ul, 8ul}) {
    const auto result = run_crash_repair(11, k);
    ASSERT_FALSE(std::isnan(result.reshaping_rounds)) << "K=" << k;
    EXPECT_GE(result.reshaping_rounds, previous) << "K=" << k;
    previous = result.reshaping_rounds;
  }
}

TEST_F(PaperScale, SteadyStateStorageIsKPlusOne) {
  SimulationConfig config;
  config.seed = 13;
  config.poly.replication = 4;
  Simulation sim(shape_, config);
  sim.run_rounds(10);
  // Fig. 7a: K+1 data points per node before the failure.
  EXPECT_NEAR(sim.avg_points_per_node(), 5.0, 0.05);
}

TEST_F(PaperScale, PostCatastropheStorageApproachesTwiceKPlusOne) {
  SimulationConfig config;
  config.seed = 17;
  config.poly.replication = 4;
  Simulation sim(shape_, config);
  sim.run_rounds(20);
  sim.crash_failure_half();
  sim.run_rounds(25);
  // Fig. 7a: ≈ 2(K+1)·survival ≈ 9.7 for K=4 once the spike decays
  // (17.73 reported for K=8).  Allow the tail of the dedup transient.
  EXPECT_GT(sim.avg_points_per_node(), 8.0);
  EXPECT_LT(sim.avg_points_per_node(), 12.0);
}

TEST_F(PaperScale, ProximityAfterRepairIsNearPaperValue) {
  SimulationConfig config;
  config.seed = 19;
  config.poly.replication = 4;
  Simulation sim(shape_, config);
  sim.run_rounds(20);
  sim.crash_failure_half();
  sim.run_rounds(8);  // the paper's round 28
  // Paper: proximity = 1.50 ± 0.01 at round 28 (K=4); homogeneity 0.61.
  EXPECT_NEAR(sim.proximity(), 1.5, 0.25);
  EXPECT_NEAR(sim.homogeneity(), 0.61, 0.15);
}

TEST_F(PaperScale, TmanDominatesMessageCost) {
  // §IV-B: "Most of the communication overhead (e.g. 93.6% for K = 8) is
  // caused by T-Man."  Check the post-repair steady state.
  SimulationConfig config;
  config.seed = 23;
  config.poly.replication = 8;
  Simulation sim(shape_, config);
  sim.run_rounds(20);
  sim.crash_failure_half();
  sim.run_rounds(30);
  const auto& traffic = sim.network().traffic();
  double tman = 0.0;
  double total = 0.0;
  for (std::size_t round = 40; round < 50; ++round) {
    tman += traffic.per_node(round, poly::sim::Channel::kTman);
    total += traffic.per_node_paper_total(round);
  }
  EXPECT_GT(tman / total, 0.75);  // dominant, as in the paper
}

}  // namespace
