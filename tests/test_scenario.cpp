// Integration tests for the scenario layer — the Simulation façade and
// snapshots.  These are the end-to-end checks that the wired stack
// reproduces the paper's qualitative results at test scale; the program
// runner (timelines, repetitions, reshaping time) is tested in
// test_scenario_program.cpp.
#include <gtest/gtest.h>

#include <algorithm>

#include "scenario/simulation.hpp"
#include "scenario/snapshot.hpp"
#include "shape/grid_torus.hpp"
#include "shape/ring_shape.hpp"

namespace {

using poly::scenario::Simulation;
using poly::scenario::SimulationConfig;
using poly::shape::GridTorusShape;
using poly::shape::RingShape;
using poly::sim::NodeId;
using poly::space::Point;

// ---- Simulation façade ------------------------------------------------------

TEST(Simulation, BuildsOneNodePerDataPoint) {
  GridTorusShape shape(10, 10);
  Simulation sim(shape, {});
  EXPECT_EQ(sim.network().num_total(), 100u);
  EXPECT_EQ(sim.initial_points().size(), 100u);
  EXPECT_NE(sim.polystyrene(), nullptr);
}

TEST(Simulation, TmanOnlyModeHasNoPolystyrene) {
  GridTorusShape shape(6, 6);
  SimulationConfig config;
  config.polystyrene = false;
  Simulation sim(shape, config);
  EXPECT_EQ(sim.polystyrene(), nullptr);
  sim.run_rounds(5);
  EXPECT_DOUBLE_EQ(sim.avg_points_per_node(), 1.0);
}

TEST(Simulation, InitialHomogeneityIsZero) {
  GridTorusShape shape(8, 8);
  Simulation sim(shape, {});
  // Every node hosts its own point at its own position from round 0.
  EXPECT_DOUBLE_EQ(sim.homogeneity(), 0.0);
  EXPECT_DOUBLE_EQ(sim.reliability(), 1.0);
}

TEST(Simulation, ConvergesOnSmallTorus) {
  GridTorusShape shape(12, 8);
  Simulation sim(shape, {});
  sim.run_rounds(15);
  EXPECT_NEAR(sim.proximity(), 1.0, 0.1);
  EXPECT_LT(sim.homogeneity(), 0.05);
}

TEST(Simulation, CrashFailureHalfCrashesExactlyHalf) {
  GridTorusShape shape(10, 10);
  Simulation sim(shape, {});
  EXPECT_EQ(sim.crash_failure_half(), 50u);
  EXPECT_EQ(sim.network().num_alive(), 50u);
}

TEST(Simulation, RecoversShapeAfterCatastrophe) {
  GridTorusShape shape(16, 8);
  SimulationConfig config;
  config.seed = 5;
  Simulation sim(shape, config);
  sim.run_rounds(12);
  sim.crash_failure_half();
  sim.run_rounds(15);
  EXPECT_LT(sim.homogeneity(), sim.reference_homogeneity());
  EXPECT_GT(sim.reliability(), 0.9);  // K=4 analytic: 96.9%
}

TEST(Simulation, ReinjectAddsFreshNodes) {
  GridTorusShape shape(8, 8);
  Simulation sim(shape, {});
  sim.run_rounds(8);
  sim.crash_failure_half();
  const auto fresh = sim.reinject(32);
  EXPECT_EQ(fresh.size(), 32u);
  EXPECT_EQ(sim.network().num_alive(), 64u);
  for (NodeId id : fresh) {
    EXPECT_TRUE(sim.network().alive(id));
    EXPECT_TRUE(sim.polystyrene()->guests(id).empty());
  }
}

TEST(Simulation, ImperfectFdConfigWiresDelayedDetector) {
  GridTorusShape shape(8, 8);
  SimulationConfig config;
  config.fd_delay_rounds = 2;
  Simulation sim(shape, config);
  sim.network().crash(0);
  // Crash at round 0 is not suspected until round 2.
  EXPECT_FALSE(sim.failure_detector().suspects(1, 0));
}

TEST(Simulation, MessageCostTracksChannels) {
  GridTorusShape shape(8, 8);
  Simulation sim(shape, {});
  sim.run_rounds(3);
  // Paper-accounted cost excludes RPS but is positive once T-Man runs.
  EXPECT_GT(sim.message_cost_per_node(1), 0.0);
}

// ---- Snapshots -------------------------------------------------------------------

TEST(Snapshot, DensityMapShowsTheCrashedHalf) {
  GridTorusShape shape(16, 8);
  SimulationConfig config;
  config.polystyrene = false;  // T-Man: survivors never move
  Simulation sim(shape, config);
  sim.run_rounds(5);
  sim.crash_failure_half();
  const std::string map = poly::scenario::ascii_density_map(sim, 16, 8);
  // Right half of every row must be empty (spaces).
  std::size_t row = 0;
  for (std::size_t pos = map.find('|'); pos != std::string::npos;
       pos = map.find('|', pos + 18), ++row) {
    const std::string cells = map.substr(pos + 1, 16);
    if (cells.size() < 16) break;
    for (std::size_t c = 8; c < 16; ++c) EXPECT_EQ(cells[c], ' ');
  }
  EXPECT_GT(row, 4u);
}

TEST(Snapshot, RingDensityIsOneRow) {
  RingShape shape(32, 1.0);
  Simulation sim(shape, {});
  const std::string map = poly::scenario::ascii_density_map(sim, 16, 4);
  // Header + 1 histogram row + footer.
  EXPECT_EQ(std::count(map.begin(), map.end(), '\n'), 3);
}

TEST(Snapshot, SummaryLineContainsMetrics) {
  GridTorusShape shape(4, 4);
  Simulation sim(shape, {});
  const std::string s = poly::scenario::summary_line(sim);
  EXPECT_NE(s.find("homogeneity"), std::string::npos);
  EXPECT_NE(s.find("alive=16"), std::string::npos);
}

}  // namespace
