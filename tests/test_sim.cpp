// Unit tests for poly::sim — node registry lifecycle, failure injection,
// per-node RNG streams, round clock, traffic accounting, failure detectors.
#include <gtest/gtest.h>

#include <set>

#include "sim/failure_detector.hpp"
#include "sim/network.hpp"
#include "sim/traffic.hpp"

namespace {

using poly::sim::Channel;
using poly::sim::DelayedFailureDetector;
using poly::sim::Network;
using poly::sim::NodeId;
using poly::sim::NodeStatus;
using poly::sim::PerfectFailureDetector;
using poly::sim::TrafficMeter;
using poly::space::Point;

// ---- Network membership -----------------------------------------------------

TEST(Network, NodesGetDenseIds) {
  Network net(1);
  EXPECT_EQ(net.add_node(Point(0, 0)), 0u);
  EXPECT_EQ(net.add_node(Point(1, 0)), 1u);
  EXPECT_EQ(net.add_node(Point(2, 0)), 2u);
  EXPECT_EQ(net.num_total(), 3u);
  EXPECT_EQ(net.num_alive(), 3u);
}

TEST(Network, OriginalPositionsPreserved) {
  Network net(1);
  net.add_node(Point(3.5, 7.25));
  EXPECT_EQ(net.original_position(0), Point(3.5, 7.25));
}

TEST(Network, CrashIsIdempotentAndStopsCounting) {
  Network net(1);
  net.add_node(Point(0, 0));
  net.add_node(Point(1, 0));
  net.crash(0);
  net.crash(0);
  EXPECT_EQ(net.num_alive(), 1u);
  EXPECT_FALSE(net.alive(0));
  EXPECT_TRUE(net.alive(1));
  EXPECT_EQ(net.status(0), NodeStatus::kCrashed);
}

TEST(Network, CrashUnknownNodeThrows) {
  Network net(1);
  EXPECT_THROW(net.crash(5), std::out_of_range);
}

TEST(Network, CrashRecordsRound) {
  Network net(1);
  net.add_node(Point(0, 0));
  net.advance_round();
  net.advance_round();
  net.crash(0);
  EXPECT_EQ(net.crash_round(0), 2u);
}

TEST(Network, CrashRegionUsesOriginalPositions) {
  Network net(1);
  for (int x = 0; x < 10; ++x) net.add_node(Point(x, 0));
  const std::size_t crashed =
      net.crash_region([](const Point& p) { return p.x() >= 5.0; });
  EXPECT_EQ(crashed, 5u);
  EXPECT_EQ(net.num_alive(), 5u);
  for (NodeId id = 0; id < 5; ++id) EXPECT_TRUE(net.alive(id));
  for (NodeId id = 5; id < 10; ++id) EXPECT_FALSE(net.alive(id));
}

TEST(Network, CrashRegionIsIdempotentOnDeadNodes) {
  Network net(1);
  for (int x = 0; x < 4; ++x) net.add_node(Point(x, 0));
  net.crash_region([](const Point& p) { return p.x() >= 2.0; });
  const std::size_t again =
      net.crash_region([](const Point& p) { return p.x() >= 2.0; });
  EXPECT_EQ(again, 0u);
}

TEST(Network, CrashRandomCrashesExactlyCount) {
  Network net(7);
  for (int i = 0; i < 20; ++i) net.add_node(Point(i, 0));
  EXPECT_EQ(net.crash_random(8), 8u);
  EXPECT_EQ(net.num_alive(), 12u);
}

TEST(Network, CrashRandomCappedAtAlive) {
  Network net(7);
  for (int i = 0; i < 5; ++i) net.add_node(Point(i, 0));
  EXPECT_EQ(net.crash_random(100), 5u);
  EXPECT_EQ(net.num_alive(), 0u);
}

TEST(Network, AliveIdsAscendingAndFiltered) {
  Network net(1);
  for (int i = 0; i < 6; ++i) net.add_node(Point(i, 0));
  net.crash(1);
  net.crash(4);
  const auto ids = net.alive_ids();
  EXPECT_EQ(ids, (std::vector<NodeId>{0, 2, 3, 5}));
}

TEST(Network, ShuffledAliveIdsIsPermutation) {
  Network net(3);
  for (int i = 0; i < 50; ++i) net.add_node(Point(i, 0));
  net.crash(10);
  auto shuffled = net.shuffled_alive_ids();
  EXPECT_EQ(shuffled.size(), 49u);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, net.alive_ids());
}

TEST(Network, RandomAliveNeverReturnsDead) {
  Network net(5);
  for (int i = 0; i < 10; ++i) net.add_node(Point(i, 0));
  net.crash_region([](const Point& p) { return p.x() < 9.0; });  // 1 survivor
  auto rng = net.rng().split();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(net.random_alive(rng), 9u);
}

TEST(Network, RandomAliveOnEmptyNetworkIsInvalid) {
  Network net(5);
  net.add_node(Point(0, 0));
  net.crash(0);
  auto rng = net.rng().split();
  EXPECT_EQ(net.random_alive(rng), poly::sim::kInvalidNode);
}

TEST(Network, JoinRoundTracked) {
  Network net(1);
  net.add_node(Point(0, 0));
  net.advance_round();
  net.add_node(Point(1, 0));
  EXPECT_EQ(net.join_round(0), 0u);
  EXPECT_EQ(net.join_round(1), 1u);
}

// ---- Determinism -------------------------------------------------------------

TEST(Network, SameSeedSameSchedules) {
  Network a(99);
  Network b(99);
  for (int i = 0; i < 30; ++i) {
    a.add_node(Point(i, 0));
    b.add_node(Point(i, 0));
  }
  for (int r = 0; r < 5; ++r)
    EXPECT_EQ(a.shuffled_alive_ids(), b.shuffled_alive_ids());
}

TEST(Network, NodeRngStreamsAreIndependent) {
  Network net(42);
  net.add_node(Point(0, 0));
  net.add_node(Point(1, 0));
  // Drawing from node 0's stream must not affect node 1's stream.
  Network ref(42);
  ref.add_node(Point(0, 0));
  ref.add_node(Point(1, 0));
  (void)net.node_rng(0).next_u64();
  (void)net.node_rng(0).next_u64();
  EXPECT_EQ(net.node_rng(1).next_u64(), ref.node_rng(1).next_u64());
}

// ---- TrafficMeter ------------------------------------------------------------

TEST(Traffic, CostUnitsMatchPaper) {
  // §IV-A: id = 1 unit, 2-D descriptor = 3 units, 2-D data point = 2 units.
  EXPECT_DOUBLE_EQ(TrafficMeter::kIdUnits, 1.0);
  EXPECT_DOUBLE_EQ(TrafficMeter::descriptor_units(2), 3.0);
  EXPECT_DOUBLE_EQ(TrafficMeter::datapoint_units(2), 2.0);
  EXPECT_DOUBLE_EQ(TrafficMeter::descriptor_units(1), 2.0);
}

TEST(Traffic, PerRoundAccumulationAndReset) {
  TrafficMeter m;
  m.add(Channel::kTman, 60.0);
  m.add(Channel::kTman, 60.0);
  m.add(Channel::kMigration, 8.0);
  m.end_round(10);
  m.add(Channel::kTman, 30.0);
  m.end_round(10);

  EXPECT_DOUBLE_EQ(m.total(0, Channel::kTman), 120.0);
  EXPECT_DOUBLE_EQ(m.total(0, Channel::kMigration), 8.0);
  EXPECT_DOUBLE_EQ(m.total(1, Channel::kTman), 30.0);
  EXPECT_DOUBLE_EQ(m.per_node(0, Channel::kTman), 12.0);
}

TEST(Traffic, PaperTotalExcludesRps) {
  TrafficMeter m;
  m.add(Channel::kRps, 1000.0);
  m.add(Channel::kTman, 10.0);
  m.add(Channel::kBackup, 5.0);
  m.add(Channel::kMigration, 5.0);
  m.end_round(1);
  EXPECT_DOUBLE_EQ(m.per_node_paper_total(0), 20.0);
}

TEST(Traffic, UnclosedRoundThrows) {
  TrafficMeter m;
  m.add(Channel::kTman, 1.0);
  EXPECT_THROW(m.total(0, Channel::kTman), std::out_of_range);
}

TEST(Traffic, ZeroAliveYieldsZeroPerNode) {
  TrafficMeter m;
  m.add(Channel::kTman, 5.0);
  m.end_round(0);
  EXPECT_DOUBLE_EQ(m.per_node(0, Channel::kTman), 0.0);
}

// ---- Failure detectors ---------------------------------------------------------

TEST(PerfectFd, SuspectsExactlyCrashedNodes) {
  Network net(1);
  net.add_node(Point(0, 0));
  net.add_node(Point(1, 0));
  PerfectFailureDetector fd(net);
  EXPECT_FALSE(fd.suspects(0, 1));
  net.crash(1);
  EXPECT_TRUE(fd.suspects(0, 1));
  EXPECT_FALSE(fd.suspects(1, 0));
}

// The epoch contract (FailureDetector::epoch): it moves whenever the
// suspected set can grow, and a detector whose verdicts depend on the
// observer reports none.

TEST(PerfectFd, EpochMovesOnACrashOnly) {
  Network net(1);
  net.add_node(Point(0, 0));
  net.add_node(Point(1, 0));
  PerfectFailureDetector fd(net);
  const auto e0 = fd.epoch();
  ASSERT_TRUE(e0.has_value());
  net.advance_round();
  net.add_node(Point(2, 0));
  EXPECT_EQ(fd.epoch(), e0);
  net.crash(1);
  const auto e1 = fd.epoch();
  EXPECT_NE(e1, e0);
  net.crash(1);  // idempotent: nothing new to suspect
  net.advance_round();
  EXPECT_EQ(fd.epoch(), e1);
  net.crash(2);
  EXPECT_NE(fd.epoch(), e1);
  EXPECT_NE(fd.epoch(), e0);
}

TEST(DelayedFd, EpochMovesOnACrashAndOnEveryRound) {
  Network net(1);
  net.add_node(Point(0, 0));
  net.add_node(Point(1, 0));
  DelayedFailureDetector fd(net, /*delay_rounds=*/2);
  std::set<std::uint64_t> seen;
  auto fresh = [&] {
    const auto e = fd.epoch();
    return e.has_value() && seen.insert(*e).second;
  };
  EXPECT_TRUE(fresh());
  net.add_node(Point(2, 0));
  EXPECT_FALSE(fresh());
  net.crash(1);
  EXPECT_TRUE(fresh());
  for (int r = 0; r < 4; ++r) {
    net.advance_round();
    EXPECT_TRUE(fresh()) << "round " << r;
  }
  net.crash(2);
  EXPECT_TRUE(fresh());
}

TEST(DelayedFd, FalsePositivesOptOutOfTheEpoch) {
  Network net(1);
  net.add_node(Point(0, 0));
  DelayedFailureDetector fd(net, 0, /*false_positive_rate=*/0.01);
  EXPECT_FALSE(fd.epoch().has_value());
  net.advance_round();
  EXPECT_FALSE(fd.epoch().has_value());
}

TEST(DelayedFd, DetectionWaitsForDelay) {
  Network net(1);
  net.add_node(Point(0, 0));
  net.add_node(Point(1, 0));
  DelayedFailureDetector fd(net, /*delay_rounds=*/3);
  net.crash(1);  // crash at round 0
  EXPECT_FALSE(fd.suspects(0, 1));
  net.advance_round();  // round 1
  net.advance_round();  // round 2
  EXPECT_FALSE(fd.suspects(0, 1));
  net.advance_round();  // round 3 = crash_round + delay
  EXPECT_TRUE(fd.suspects(0, 1));
}

TEST(DelayedFd, ZeroDelayActsImmediately) {
  Network net(1);
  net.add_node(Point(0, 0));
  net.add_node(Point(1, 0));
  DelayedFailureDetector fd(net, 0);
  net.crash(1);
  EXPECT_TRUE(fd.suspects(0, 1));
}

TEST(DelayedFd, NoFalsePositivesByDefault) {
  Network net(1);
  net.add_node(Point(0, 0));
  net.add_node(Point(1, 0));
  DelayedFailureDetector fd(net, 1);
  for (int r = 0; r < 50; ++r) {
    EXPECT_FALSE(fd.suspects(0, 1));
    net.advance_round();
  }
}

TEST(DelayedFd, FalsePositiveRateApproximatelyHonored) {
  Network net(1);
  for (int i = 0; i < 200; ++i) net.add_node(Point(i, 0));
  DelayedFailureDetector fd(net, 0, /*false_positive_rate=*/0.1);
  int fp = 0;
  int total = 0;
  for (int r = 0; r < 50; ++r) {
    for (NodeId t = 1; t < 200; ++t) {
      fp += fd.suspects(0, t) ? 1 : 0;
      ++total;
    }
    net.advance_round();
  }
  const double rate = static_cast<double>(fp) / total;
  EXPECT_NEAR(rate, 0.1, 0.02);
}

TEST(DelayedFd, FalsePositiveVerdictStableWithinRound) {
  Network net(1);
  net.add_node(Point(0, 0));
  net.add_node(Point(1, 0));
  DelayedFailureDetector fd(net, 0, 0.5);
  // Repeated queries in the same round must agree (determinism).
  const bool verdict = fd.suspects(0, 1);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(fd.suspects(0, 1), verdict);
}

}  // namespace
