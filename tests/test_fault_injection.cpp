// Fault plane and chaos verbs (docs/FAULTS.md): rule matching and windows,
// per-rule RNG stream independence, payload corruption, the decode-boundary
// containment of corrupted frames, node stalls, crash-recovery, and the
// determinism of whole trajectories with faults active.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "engine/engine_transport.hpp"
#include "engine/event_cluster.hpp"
#include "engine/event_engine.hpp"
#include "fault/fault_plane.hpp"
#include "net/messages.hpp"
#include "net/runtime.hpp"
#include "shape/ring_shape.hpp"
#include "space/point.hpp"

namespace {

using namespace std::chrono_literals;
using poly::engine::EngineHub;
using poly::engine::EventCluster;
using poly::engine::EventClusterConfig;
using poly::engine::EventEngine;
using poly::engine::SimTime;
using poly::fault::Direction;
using poly::fault::FaultPlane;
using poly::fault::FrameFate;

constexpr SimTime kNever = SimTime::max();

// ---- rule matching ----------------------------------------------------------

TEST(FaultPlane, PartitionSeversCrossTrafficOnly) {
  FaultPlane plane(7);
  plane.add_partition({0, 1}, SimTime::zero(), kNever);

  EXPECT_FALSE(plane.fate(0, 1, 64, SimTime{1ms}).blackholed);  // inside
  EXPECT_FALSE(plane.fate(3, 2, 64, SimTime{1ms}).blackholed);  // outside
  EXPECT_TRUE(plane.fate(0, 2, 64, SimTime{1ms}).blackholed);   // out of set
  EXPECT_TRUE(plane.fate(2, 1, 64, SimTime{1ms}).blackholed);   // into set
  EXPECT_EQ(plane.counters().frames_blackholed, 2u);
}

TEST(FaultPlane, BlackholeIsDirected) {
  FaultPlane plane(7);
  plane.add_blackhole(4, 9, SimTime::zero(), kNever);
  EXPECT_TRUE(plane.fate(4, 9, 64, SimTime{1ms}).blackholed);
  EXPECT_FALSE(plane.fate(9, 4, 64, SimTime{1ms}).blackholed);
}

TEST(FaultPlane, WindowsAreHalfOpen) {
  FaultPlane plane(7);
  plane.add_partition({0}, SimTime{10ms}, SimTime{20ms});
  EXPECT_FALSE(plane.fate(0, 1, 64, SimTime{9ms}).blackholed);
  EXPECT_TRUE(plane.fate(0, 1, 64, SimTime{10ms}).blackholed);
  EXPECT_TRUE(plane.fate(0, 1, 64, SimTime{20ms} - SimTime{1}).blackholed);
  EXPECT_FALSE(plane.fate(0, 1, 64, SimTime{20ms}).blackholed);
}

TEST(FaultPlane, HealRebindsTheWindow) {
  FaultPlane plane(7);
  const auto id = plane.add_partition({0}, SimTime::zero(), kNever);
  EXPECT_TRUE(plane.fate(0, 1, 64, SimTime{30ms}).blackholed);
  plane.heal(id, SimTime{25ms});
  EXPECT_FALSE(plane.fate(0, 1, 64, SimTime{30ms}).blackholed);
  EXPECT_TRUE(plane.fate(0, 1, 64, SimTime{24ms}).blackholed);
}

TEST(FaultPlane, RulesMatchNodeIdsAcrossEndpointRebirth) {
  // A recovered node keeps its node id under a fresh endpoint.  The hub
  // hands the plane node ids, so the rule keeps matching through the
  // rebirth — and the hub's first endpoint, registered for node 3, is not
  // node 0.
  EventEngine engine(7);
  EngineHub hub(engine);
  FaultPlane plane(7);
  hub.set_fault_plane(&plane);
  plane.add_partition({0}, SimTime::zero(), kNever);
  auto other = hub.make_endpoint(3);  // the hub's first endpoint
  auto peer = hub.make_endpoint(1);
  auto node = hub.make_endpoint(0);
  int delivered = 0;
  peer->set_handler([&](poly::net::Message&) { ++delivered; });
  ASSERT_TRUE(node->send(1, {1}));  // silently lost
  EXPECT_EQ(plane.counters().frames_blackholed, 1u);
  node->shutdown();
  auto reborn = hub.make_endpoint(0);  // recovery: new endpoint
  ASSERT_TRUE(reborn->send(1, {1}));
  EXPECT_EQ(plane.counters().frames_blackholed, 2u);
  ASSERT_TRUE(other->send(1, {1}));  // same side: arrives
  engine.run();
  EXPECT_EQ(plane.counters().frames_blackholed, 2u);
  EXPECT_EQ(delivered, 1);
}

TEST(FaultPlane, HubDrawsLinkDropThenPlaneThenLatency) {
  // Per frame the hub draws the link's drop first, consults the plane only
  // for a frame that survived it, and draws the latency last, only for a
  // frame the plane let through.  Twins of the hub's link stream and of
  // the plane replay exactly that order.
  constexpr SimTime kLo{1ms}, kHi{3ms};
  const auto degrade = [](FaultPlane& p) {
    p.add_degrade({0}, Direction::kBoth, 0.3, SimTime{2ms}, SimTime::zero(),
                  kNever);
  };
  EventEngine engine(4);
  EngineHub hub(engine, poly::engine::LinkModel(kLo, kHi, 0.3));
  FaultPlane plane(8);
  degrade(plane);
  hub.set_fault_plane(&plane);
  EventEngine twin(4);
  poly::util::Rng link = twin.split_rng();
  FaultPlane plane_twin(8);
  degrade(plane_twin);

  auto a = hub.make_endpoint(0);
  auto b = hub.make_endpoint(1);
  std::vector<std::pair<SimTime, std::uint8_t>> got, want;
  b->set_handler([&](poly::net::Message& m) {
    got.emplace_back(engine.now(), m.payload.at(0));
  });
  for (std::uint8_t i = 0; i < 64; ++i) {
    // 10 ms apart: no frame overtakes another, so the FIFO clamp is idle.
    const SimTime at = SimTime{10ms} * i;
    engine.schedule_at(at, [&, i] { ASSERT_TRUE(a->send(1, {i})); });
    if (link.bernoulli(0.3)) continue;
    const FrameFate fate = plane_twin.fate(0, 1, 1, at);
    if (fate.blackholed) continue;
    want.emplace_back(
        at + SimTime{link.uniform_i64(kLo.count(), kHi.count())} +
            fate.extra_latency,
        i);
  }
  engine.run();
  EXPECT_EQ(got, want);
  EXPECT_GT(hub.frames_dropped(), 0u);
  EXPECT_GT(plane.counters().frames_blackholed, 0u);
}

TEST(FaultPlane, DuplicateAndReorderFates) {
  FaultPlane plane(7);
  plane.add_duplicate(1.0, SimTime::zero(), kNever);
  plane.add_reorder(1.0, SimTime{3ms}, SimTime::zero(), kNever);
  EXPECT_TRUE(plane.may_jitter());
  const FrameFate fate = plane.fate(0, 1, 64, SimTime{1ms});
  EXPECT_EQ(fate.copies, 2u);
  EXPECT_GT(fate.reorder_latency, SimTime::zero());
  EXPECT_LE(fate.reorder_latency, SimTime{3ms});
  EXPECT_EQ(plane.counters().frames_duplicated, 1u);
  EXPECT_EQ(plane.counters().frames_reordered, 1u);
}

TEST(FaultPlane, DegradeJitterEngagesFifoClamp) {
  FaultPlane plane(7);
  EXPECT_FALSE(plane.may_jitter());
  plane.add_degrade({0}, Direction::kBoth, 0.0, SimTime{2ms},
                    SimTime::zero(), kNever);
  EXPECT_TRUE(plane.may_jitter());
  const FrameFate fate = plane.fate(0, 1, 64, SimTime{1ms});
  EXPECT_FALSE(fate.blackholed);
  EXPECT_GE(fate.extra_latency, SimTime::zero());
  EXPECT_LE(fate.extra_latency, SimTime{2ms});
}

// ---- RNG stream discipline --------------------------------------------------

TEST(FaultPlane, SameSeedReplaysIdenticalFates) {
  auto run = [](std::uint64_t seed) {
    FaultPlane plane(seed);
    plane.add_degrade({0, 1}, Direction::kBoth, 0.5, SimTime{1ms},
                      SimTime::zero(), kNever);
    std::vector<bool> holes;
    for (int i = 0; i < 64; ++i)
      holes.push_back(plane.fate(0, 2, 64, SimTime{1ms}).blackholed);
    return holes;
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(run(42), run(43));
}

TEST(FaultPlane, LaterRulesDoNotPerturbEarlierStreams) {
  // Per-rule streams are keyed (seed, rule id): the degrade rule draws the
  // same sequence whether or not another rule is added after it.
  auto run = [](bool extra_rule) {
    FaultPlane plane(42);
    plane.add_degrade({0}, Direction::kBoth, 0.5, SimTime{1ms},
                      SimTime::zero(), kNever);
    if (extra_rule) plane.add_duplicate(1.0, SimTime::zero(), kNever);
    std::vector<bool> holes;
    for (int i = 0; i < 64; ++i)
      holes.push_back(plane.fate(0, 1, 64, SimTime{1ms}).blackholed);
    return holes;
  };
  EXPECT_EQ(run(false), run(true));
}

TEST(FaultPlane, CorruptPayloadAlwaysChangesBytes) {
  FaultPlane plane(7);
  for (int i = 0; i < 32; ++i) {
    std::vector<std::uint8_t> payload(16, 0xab);
    const auto before = payload;
    plane.corrupt_payload(payload);
    EXPECT_EQ(payload.size(), before.size());
    EXPECT_NE(payload, before);
  }
}

// ---- decode-boundary containment (AsyncNode under the events engine) --------

TEST(CorruptionHardening, MalformedFramesAreCountedNotFatal) {
  // Hand-crafted garbage straight into a live protocol node: every
  // malformed frame must die at the decode boundary — counted, dropped,
  // no exception escaping into the engine loop.
  EventEngine engine(11);
  EngineHub hub(engine);
  poly::shape::RingShape shape(8, 1.0);
  auto points = shape.generate();

  auto ep = hub.make_endpoint(0);
  constexpr poly::net::LiveNodeId to = 0;
  auto attacker = hub.make_endpoint(1);
  poly::util::Arena arena;
  poly::net::AsyncScratch scratch;
  scratch.bind(arena, {});
  poly::net::AsyncNode victim(0, shape.space_ptr(), std::move(ep),
                              points.at(0), {}, /*seed=*/5,
                              [&] { return engine.clock(); }, arena, scratch);

  // A valid frame, then mutations of it: truncated, type-mangled, and a
  // flipped length prefix.  The valid frame must be handled (rejects stay
  // at the mutation count), the rest must all be rejected.
  const auto valid = poly::net::encode_rps(
      poly::net::Header{poly::net::MsgType::kRpsShuffleResp, 1, "attacker"},
      {{2, "addr-2", 3, {}, 0}});
  std::size_t expect_rejects = 0;

  ASSERT_TRUE(attacker->send(to, std::vector<std::uint8_t>(valid)));

  auto truncated = valid;
  truncated.resize(valid.size() / 2);
  ASSERT_TRUE(attacker->send(to, std::move(truncated)));
  ++expect_rejects;

  auto mangled = valid;
  mangled[0] = 0xff;  // unknown message type
  ASSERT_TRUE(attacker->send(to, std::move(mangled)));
  ++expect_rejects;

  ASSERT_TRUE(attacker->send(to, {0xff, 0x00, 0x01}));  // pure garbage
  ++expect_rejects;

  ASSERT_TRUE(attacker->send(to, std::vector<std::uint8_t>{}));  // empty
  ++expect_rejects;

  EXPECT_NO_THROW(engine.run());
  EXPECT_EQ(victim.frames_rejected(), expect_rejects);
}

TEST(CorruptionHardening, FleetSurvivesTotalCorruption) {
  // Every in-flight frame corrupted: the fleet must keep running (rejects
  // bounded by corruptions; frames that still decode are absorbed).
  poly::shape::RingShape shape(16, 1.0);
  EventCluster fleet(shape.space_ptr(), shape.generate(),
                     EventClusterConfig{}, 3);
  fleet.run_rounds(5);
  fleet.corrupt_frames(1.0, /*heal_rounds=*/0);
  EXPECT_NO_THROW(fleet.run_rounds(10));
  EXPECT_GT(fleet.fault_counters().frames_corrupted, 0u);
  EXPECT_GT(fleet.frames_rejected(), 0u);
  EXPECT_LE(fleet.frames_rejected(),
            fleet.fault_counters().frames_corrupted);
  EXPECT_EQ(fleet.alive_count(), 16u);
}

// ---- stalls -----------------------------------------------------------------

TEST(EventClusterFaults, StallFreezesExactlyTheStalledTicks) {
  poly::shape::RingShape shape(16, 1.0);
  EventCluster fleet(shape.space_ptr(), shape.generate(),
                     EventClusterConfig{}, 3);
  fleet.run_rounds(3);
  const std::size_t n =
      fleet.stall_region([](const poly::space::Point&) { return true; }, 4);
  EXPECT_EQ(n, 16u);
  fleet.run_rounds(8);
  // Every alive node misses exactly 4 ticks: 16 * 4 frozen node-ticks.
  EXPECT_EQ(fleet.fault_counters().stall_rounds, 16u * 4u);
  EXPECT_EQ(fleet.alive_count(), 16u);  // stalled, never dead
}

// ---- crash-recovery ---------------------------------------------------------

TEST(EventClusterFaults, RecoverRejoinsWithCountersAndAliveness) {
  poly::shape::RingShape shape(16, 1.0);
  EventCluster fleet(shape.space_ptr(), shape.generate(),
                     EventClusterConfig{}, 3);
  fleet.run_rounds(10);
  const std::size_t crashed = fleet.crash_random(6);
  EXPECT_EQ(crashed, 6u);
  EXPECT_EQ(fleet.alive_count(), 10u);
  fleet.run_rounds(10);

  EXPECT_EQ(fleet.recover_all(), 6u);
  EXPECT_EQ(fleet.fault_counters().recoveries, 6u);
  EXPECT_EQ(fleet.alive_count(), 16u);
  EXPECT_EQ(fleet.recover_all(), 0u);  // idempotent: nobody left to rejoin

  // The rejoined nodes (stale views and all) must settle back in.
  fleet.run_rounds(30);
  EXPECT_EQ(fleet.alive_count(), 16u);
  EXPECT_GT(fleet.reliability(), 0.9);
}

TEST(EventClusterFaults, CrashAndRecoverInOnePeriodKeepsOneTickChain) {
  // The crashed life's next tick is still pending when the recovery starts
  // a new chain; it must end instead of ticking on beside the new one.
  poly::shape::RingShape shape(1, 1.0);
  EventCluster fleet(shape.space_ptr(), shape.generate(),
                     EventClusterConfig{}, 3);
  fleet.run_rounds(2);
  ASSERT_TRUE(fleet.crash_node(0));
  ASSERT_TRUE(fleet.recover_node(0));
  fleet.run_rounds(1);  // the crashed life's pending tick comes due
  const std::uint64_t before = fleet.engine().events_executed();
  fleet.run_rounds(10);
  // A lone node sends nothing: every event is one of its ticks.
  EXPECT_EQ(fleet.engine().events_executed() - before, 10u);
}

TEST(EventClusterFaults, IdsOutsideTheFleetReadAsCrashed) {
  // The traffic plane's routing filter asks about view-entry ids, and a
  // corrupted frame can plant one past the fleet: it must read as dead.
  poly::shape::RingShape shape(4, 1.0);
  EventCluster fleet(shape.space_ptr(), shape.generate(),
                     EventClusterConfig{}, 3);
  EXPECT_FALSE(fleet.crashed(fleet.size() - 1));
  EXPECT_TRUE(fleet.crashed(fleet.size()));
  EXPECT_TRUE(fleet.crashed(std::size_t{1} << 40));
}

// ---- whole-trajectory determinism with faults active ------------------------

TEST(EventClusterFaults, ChaosTrajectoryReplaysBitForBit) {
  poly::shape::RingShape shape(16, 1.0);
  auto run_once = [&](std::uint64_t seed) {
    EventCluster fleet(shape.space_ptr(), shape.generate(),
                       EventClusterConfig{}, seed);
    fleet.run_rounds(5);
    fleet.partition_region(
        [](const poly::space::Point& p) { return p.x() < 0.0; },
        /*heal_rounds=*/6);
    fleet.corrupt_frames(0.1, /*heal_rounds=*/8);
    fleet.duplicate_frames(0.2, /*heal_rounds=*/8);
    fleet.run_rounds(10);
    fleet.crash_random(4);
    fleet.run_rounds(5);
    fleet.recover_all();
    fleet.run_rounds(10);
    return std::tuple{fleet.homogeneity(), fleet.reliability(),
                      fleet.fault_counters().frames_blackholed,
                      fleet.fault_counters().frames_corrupted,
                      fleet.fault_counters().frames_duplicated,
                      fleet.frames_rejected()};
  };
  EXPECT_EQ(run_once(99), run_once(99));
}

TEST(EventClusterFaults, EmptyPlaneLeavesTrajectoryUntouched) {
  // The plane is always installed; with no rules it must make zero draws —
  // a clean run rejects nothing and counts nothing.
  poly::shape::RingShape shape(16, 1.0);
  EventCluster fleet(shape.space_ptr(), shape.generate(),
                     EventClusterConfig{}, 3);
  fleet.run_rounds(20);
  EXPECT_EQ(fleet.frames_rejected(), 0u);
  EXPECT_EQ(fleet.fault_counters().frames_blackholed, 0u);
  EXPECT_EQ(fleet.fault_counters().frames_corrupted, 0u);
}

}  // namespace
