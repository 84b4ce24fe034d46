// Fixed-seed trajectory pin: bit-exact regression guard for the engine
// fleet.
//
// The determinism contract (docs/ARCHITECTURE.md) promises that an
// EventCluster run is a pure function of (points, config, seed).  The
// other engine tests check *internal* consistency (two runs of the same
// binary agree); this one pins the trajectory against constants captured
// from a trusted build, so a refactor that silently perturbs the RNG draw
// sequence, message order, or ranking tie-breaks fails here even when it
// stays self-consistent.  Counters (events executed, frames sent) are the
// sharpest signal — any divergence in the message schedule shifts them —
// and the fleet metrics are compared at 17 significant digits, i.e. to
// the last bit of a double.
//
// If a PR changes these values *intentionally* (a documented RNG-sequence
// change), follow the re-pin procedure in BENCH_baseline/README.md: rerun
// with POLY_TRAJ_PRINT=1, paste the printed block, and say so in the PR.
//
// All four fleet rows were re-pinned together when the hub stopped
// batching deliveries: each frame became its own engine event at exactly
// its send time plus the drawn latency (no longer rounded up to a wheel
// tick and drained behind a head frame), which reorders handlers within
// an instant and adds events.  The same change let a send reach a
// recovered peer's new endpoint instead of failing on a cached dead one,
// which moves the timelines that crash and recover nodes.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "engine/event_cluster.hpp"
#include "shape/grid_torus.hpp"
#include "traffic/workload.hpp"

namespace {

using namespace poly;

std::string g17(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

struct Trajectory {
  std::string reliability, homogeneity, proximity;
  std::uint64_t events, frames;
};

void expect_traj(const Trajectory& got, const Trajectory& want,
                 const char* tag) {
  if (std::getenv("POLY_TRAJ_PRINT") != nullptr) {
    std::printf("[traj] %s reliability=%s homogeneity=%s proximity=%s "
                "events=%llu frames=%llu\n",
                tag, got.reliability.c_str(), got.homogeneity.c_str(),
                got.proximity.c_str(),
                static_cast<unsigned long long>(got.events),
                static_cast<unsigned long long>(got.frames));
    return;
  }
  EXPECT_EQ(got.reliability, want.reliability) << tag;
  EXPECT_EQ(got.homogeneity, want.homogeneity) << tag;
  EXPECT_EQ(got.proximity, want.proximity) << tag;
  EXPECT_EQ(got.events, want.events) << tag;
  EXPECT_EQ(got.frames, want.frames) << tag;
}

Trajectory measure(engine::EventCluster& fleet) {
  return Trajectory{g17(fleet.reliability()), g17(fleet.homogeneity()),
                    g17(fleet.proximity()), fleet.engine().events_executed(),
                    fleet.hub().frames_sent()};
}

// Reliable fixed-latency links, K=2: converge, crash the failure half,
// recover.  The bread-and-butter configuration of every engine scenario.
TEST(TrajectoryPin, FixedLatencyHalfCrash) {
  shape::GridTorusShape shape(20, 10);
  engine::EventClusterConfig cfg;  // defaults: 2 ms links, no drop, K=2
  engine::EventCluster fleet(shape.space_ptr(), shape.generate(), cfg,
                             /*seed=*/1);
  fleet.run_rounds(25);
  fleet.crash_region(
      [&](const space::Point& p) { return shape.in_failure_half(p); });
  fleet.run_rounds(30);

  expect_traj(measure(fleet),
              Trajectory{"0.84499999999999997", "0.52621320343559641",
                         "1.2964994797599259", 71073, 63033},
              "fixed/half-crash");
}

// Jittered lossy links, K=4: converge, uncorrelated churn, inject fresh
// nodes, recover.  Exercises the FIFO-clamp path, drops, bootstrap-after-
// churn and the inject path — the draws the half-crash case never makes.
TEST(TrajectoryPin, JitteredChurnAndInject) {
  using namespace std::chrono_literals;
  shape::GridTorusShape shape(10, 10);
  const auto points = shape.generate();
  engine::EventClusterConfig cfg;
  cfg.node.replication = 4;
  cfg.latency_min = std::chrono::duration_cast<engine::SimTime>(1ms);
  cfg.latency_max = std::chrono::duration_cast<engine::SimTime>(3ms);
  cfg.drop_rate = 0.01;
  engine::EventCluster fleet(shape.space_ptr(), points, cfg, /*seed=*/42);
  fleet.run_rounds(20);
  fleet.crash_random(30);
  fleet.run_rounds(5);
  for (std::size_t i = 0; i < 10; ++i) fleet.inject(points[i * 7].pos);
  fleet.run_rounds(25);

  expect_traj(measure(fleet),
              Trajectory{"1", "0.29414213562373098",
                         "1.0294036341515307", 45621, 41736},
              "jitter/churn+inject");
}

// Fault-plane chaos, K=2: partition with scheduled heal, in-flight payload
// corruption, GC-pause stalls, crash + recovery.  Pins every per-rule RNG
// stream of the fault plane (docs/FAULTS.md) plus the decode-boundary
// reject counter — a reordered fate draw or a shifted stall tick moves
// these even when the clean-link pins above stay put.
TEST(TrajectoryPin, ChaosPartitionStallRecover) {
  shape::GridTorusShape shape(12, 8);
  engine::EventClusterConfig cfg;  // defaults: 2 ms links, no drop, K=2
  engine::EventCluster fleet(shape.space_ptr(), shape.generate(), cfg,
                             /*seed=*/5);
  fleet.run_rounds(10);
  fleet.partition_region(
      [](const space::Point& p) { return p.x() < 6.0; }, /*heal_rounds=*/16);
  fleet.corrupt_frames(0.1, /*heal_rounds=*/20);
  fleet.run_rounds(20);
  fleet.stall_random(8, /*rounds=*/4);
  fleet.crash_random(10);
  fleet.run_rounds(10);
  fleet.recover_all();
  fleet.run_rounds(15);

  const auto& fc = fleet.fault_counters();
  if (std::getenv("POLY_TRAJ_PRINT") != nullptr) {
    std::printf("[traj] chaos blackholed=%llu corrupted=%llu stalls=%llu "
                "recoveries=%llu rejected=%llu\n",
                static_cast<unsigned long long>(fc.frames_blackholed),
                static_cast<unsigned long long>(fc.frames_corrupted),
                static_cast<unsigned long long>(fc.stall_rounds),
                static_cast<unsigned long long>(fc.recoveries),
                static_cast<unsigned long long>(fleet.frames_rejected()));
  } else {
    // stall_rounds < 8*4: crash_random lands on some stalled nodes, and a
    // crashed node's frozen ticks stop counting.
    EXPECT_EQ(fc.frames_blackholed, 1996ull);
    EXPECT_EQ(fc.frames_corrupted, 1101ull);
    EXPECT_EQ(fc.stall_rounds, 20ull);
    EXPECT_EQ(fc.recoveries, 10ull);
    EXPECT_EQ(fleet.frames_rejected(), 393ull);
  }
  // Re-pinned once when the fleet's T-Man merge moved to the shared
  // ranked-view core (merge all of a frame, then truncate, instead of
  // truncating mid-merge at the physical cap) and the codec began to
  // reject addresses longer than kMaxAddressLength (corrupted names used to
  // enter views truncated).  Both reach only this pin: the clean-link pins
  // above and below kept their values.
  //
  // Re-pinned a second time when nodes began to send every address slot
  // empty and to resolve peers by id: frames got shorter, and corruption
  // draws its byte positions from the frame length, so different bytes
  // flip (and a corrupted id or name now acts differently).  With the
  // corrupt rule removed, this timeline runs the same as before.
  expect_traj(measure(fleet),
              Trajectory{"0.91666666666666663", "0.15625057402915565",
                         "0.90349744813316579", 41804, 38669},
              "chaos/partition+stall+recover");
}

// Traffic plane, K=2: converge, serve an open-loop mixed workload through
// a half crash and a full recovery, drain.  Pins the workload counters
// and the latency histogram's quantiles (bit-stable by construction) on
// top of the protocol trajectory — a perturbed arrival draw, a changed
// hop rule, or a histogram layout change all move these constants.  The
// protocol pin doubles as the traffic-isolation proof: these values must
// match ChaosPartitionStallRecover's sibling fleets bit for bit whenever
// the same timeline runs without traffic.
TEST(TrajectoryPin, TrafficThroughCrashAndRecovery) {
  shape::GridTorusShape shape(12, 8);
  engine::EventClusterConfig cfg;  // defaults: 2 ms links, no drop, K=2
  engine::EventCluster fleet(shape.space_ptr(), shape.generate(), cfg,
                             /*seed=*/9);
  fleet.run_rounds(15);
  traffic::TrafficConfig tcfg;
  tcfg.rate_per_round = 24;
  tcfg.mix = traffic::Mix::kMixed;
  fleet.start_traffic(tcfg);
  fleet.run_rounds(15);
  fleet.crash_region(
      [&](const space::Point& p) { return shape.in_failure_half(p); });
  fleet.run_rounds(15);
  fleet.recover_all();
  fleet.run_rounds(15);
  fleet.stop_traffic();
  std::size_t drained = 0;
  while (fleet.traffic_inflight() > 0 && ++drained < 100) fleet.run_rounds(1);

  const traffic::TrafficPlane* plane = fleet.traffic_plane();
  ASSERT_NE(plane, nullptr);
  const traffic::TrafficCounters& t = plane->totals();
  if (std::getenv("POLY_TRAJ_PRINT") != nullptr) {
    std::printf("[traj] traffic launched=%llu completed=%llu failed=%llu "
                "hops=%llu p50=%s p99=%s drained=%zu\n",
                static_cast<unsigned long long>(t.launched),
                static_cast<unsigned long long>(t.completed),
                static_cast<unsigned long long>(t.failed),
                static_cast<unsigned long long>(t.hops_total),
                g17(t.latency.quantile_ms(0.5)).c_str(),
                g17(t.latency.quantile_ms(0.99)).c_str(), drained);
  } else {
    EXPECT_EQ(t.launched, 1104ull);
    EXPECT_EQ(t.completed, 1039ull);
    EXPECT_EQ(t.failed, 65ull);
    EXPECT_EQ(t.hops_total, 1649ull);
    EXPECT_EQ(g17(t.latency.quantile_ms(0.5)), "2.0316149999999999");
    EXPECT_EQ(g17(t.latency.quantile_ms(0.99)), "10.223615000000001");
  }
  EXPECT_EQ(t.launched, t.completed + t.failed);
  EXPECT_EQ(fleet.traffic_inflight(), 0u);
  expect_traj(measure(fleet),
              Trajectory{"1", "0.14583333333333334", "0.9674413403204648",
                         50322, 41272},
              "traffic/crash+recover");
}

}  // namespace
