// Tests for the discrete-event kernel: event ordering and cancellation,
// per-node RNG streams, the engine transport's delivery semantics, and
// fixed-seed replay of an event-engine fleet.
#include <gtest/gtest.h>

#include <chrono>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "engine/engine_transport.hpp"
#include "engine/event_cluster.hpp"
#include "engine/event_engine.hpp"
#include "shape/ring_shape.hpp"

namespace {

using namespace std::chrono_literals;
using poly::engine::Drive;
using poly::engine::EngineHub;
using poly::engine::EventCluster;
using poly::engine::EventClusterConfig;
using poly::engine::EventEngine;
using poly::engine::LinkModel;
using poly::engine::SimTime;

// ---- kernel -----------------------------------------------------------------

TEST(EventEngine, ExecutesInTimestampOrder) {
  EventEngine engine(1);
  std::vector<int> order;
  engine.schedule_at(SimTime{30}, [&] { order.push_back(3); });
  engine.schedule_at(SimTime{10}, [&] { order.push_back(1); });
  engine.schedule_at(SimTime{20}, [&] { order.push_back(2); });
  EXPECT_EQ(engine.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(engine.now(), SimTime{30});
}

TEST(EventEngine, SimultaneousEventsAreFifo) {
  EventEngine engine(1);
  std::vector<int> order;
  for (int i = 0; i < 16; ++i)
    engine.schedule_at(SimTime{5}, [&, i] { order.push_back(i); });
  engine.run();
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventEngine, HandlersScheduleFurtherEvents) {
  EventEngine engine(1);
  std::vector<SimTime> fired;
  engine.schedule_at(SimTime{10}, [&] {
    fired.push_back(engine.now());
    engine.schedule_after(SimTime{5}, [&] { fired.push_back(engine.now()); });
  });
  engine.run();
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_EQ(fired[0], SimTime{10});
  EXPECT_EQ(fired[1], SimTime{15});
}

TEST(EventEngine, PastSchedulingClampsToNow) {
  EventEngine engine(1);
  engine.schedule_at(SimTime{100}, [] {});
  engine.run();
  bool ran = false;
  engine.schedule_at(SimTime{10}, [&] {
    ran = true;
    EXPECT_EQ(engine.now(), SimTime{100});
  });
  engine.run();
  EXPECT_TRUE(ran);
}

TEST(EventEngine, CancelSkipsEvent) {
  EventEngine engine(1);
  int fired = 0;
  const auto id = engine.schedule_at(SimTime{10}, [&] { ++fired; });
  engine.schedule_at(SimTime{20}, [&] { ++fired; });
  engine.cancel(id);
  EXPECT_EQ(engine.run(), 1u);
  EXPECT_EQ(fired, 1);
}

TEST(EventEngine, RunUntilStopsAtBoundary) {
  EventEngine engine(1);
  std::vector<int> fired;
  engine.schedule_at(SimTime{10}, [&] { fired.push_back(1); });
  engine.schedule_at(SimTime{20}, [&] { fired.push_back(2); });
  engine.schedule_at(SimTime{21}, [&] { fired.push_back(3); });
  EXPECT_EQ(engine.run_until(SimTime{20}), 2u);
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
  EXPECT_EQ(engine.now(), SimTime{20});  // advanced exactly to the boundary
  engine.run();
  EXPECT_EQ(fired.size(), 3u);
}

TEST(EventEngine, RunUntilSkipsCancelledHead) {
  EventEngine engine(1);
  int fired = 0;
  const auto id = engine.schedule_at(SimTime{10}, [&] { ++fired; });
  engine.schedule_at(SimTime{50}, [&] { ++fired; });
  engine.cancel(id);
  // A naive loop would pop the cancelled head and then run the t=50 event
  // even though the window ends at 20.
  EXPECT_EQ(engine.run_until(SimTime{20}), 0u);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(engine.now(), SimTime{20});
}

TEST(EventEngine, SplitRngStreamsAreSeedDeterministic) {
  EventEngine a(42);
  EventEngine b(42);
  EventEngine c(43);
  auto ra1 = a.split_rng();
  auto ra2 = a.split_rng();
  auto rb1 = b.split_rng();
  EXPECT_EQ(ra1.next_u64(), rb1.next_u64());  // same seed, same stream
  auto rc1 = c.split_rng();
  EXPECT_NE(ra2.next_u64(), rc1.next_u64());  // different seed
}

TEST(EventEngine, VirtualClockMapsToSteadyTimePoints) {
  EventEngine engine(1);
  const auto t0 = engine.clock();
  engine.schedule_at(SimTime{std::chrono::milliseconds(250)}, [] {});
  engine.run();
  EXPECT_EQ(engine.clock() - t0, 250ms);
}

TEST(EventEngine, NextDueIsTheNextEventOrTheLimit) {
  EventEngine engine(1);
  EXPECT_EQ(engine.next_due(SimTime{5ms}), SimTime{5ms});  // nothing pending
  engine.schedule_at(SimTime{3ms}, [] {});
  engine.schedule_at(SimTime{2ms}, [] {});
  engine.schedule_at(SimTime{60s}, [] {});  // beyond the wheel's horizon
  EXPECT_EQ(engine.next_due(SimTime{5ms}), SimTime{2ms});
  EXPECT_EQ(engine.next_due(SimTime{1ms}), SimTime{1ms});  // none due by then
  EXPECT_EQ(engine.now(), SimTime::zero());  // executes nothing
  EXPECT_EQ(engine.events_executed(), 0u);
  EXPECT_EQ(engine.run_until(SimTime{2ms}), 1u);
  EXPECT_EQ(engine.next_due(SimTime{5ms}), SimTime{3ms});
  EXPECT_EQ(engine.run_until(SimTime{5ms}), 1u);
  EXPECT_EQ(engine.next_due(SimTime{100s}), SimTime{60s});
}

// ---- engine transport -------------------------------------------------------

TEST(EngineTransport, DeliversWithLatency) {
  EventEngine engine(1);
  EngineHub hub(engine, LinkModel(SimTime{3ms}, SimTime{3ms}));
  auto a = hub.make_endpoint(0);
  auto b = hub.make_endpoint(1);
  std::vector<std::string> got;
  b->set_handler([&](poly::net::Message m) {
    EXPECT_EQ(engine.now(), SimTime{3ms});
    got.emplace_back(m.payload.begin(), m.payload.end());
  });
  ASSERT_TRUE(a->send(1, {'h', 'i'}));
  engine.run();
  EXPECT_EQ(got, std::vector<std::string>{"hi"});
}

TEST(EngineTransport, FrameLandsAtSendTimePlusTheDrawnLatency) {
  // No rounding: each frame is one event at exactly send time + latency,
  // off the wheel's tick grid included.  A twin engine with the same seed
  // replays the hub's latency draws.
  constexpr SimTime kLo{std::chrono::microseconds(1500)};
  constexpr SimTime kHi{std::chrono::microseconds(4500)};
  EventEngine engine(9);
  EngineHub hub(engine, LinkModel(kLo, kHi));
  EventEngine twin(9);
  poly::util::Rng draws = twin.split_rng();
  auto a = hub.make_endpoint(0);
  auto b = hub.make_endpoint(1);
  std::vector<SimTime> landed;
  b->set_handler([&](poly::net::Message&) { landed.push_back(engine.now()); });
  std::vector<SimTime> want;
  for (int i = 0; i < 8; ++i) {
    // Sends 5 ms apart, 12,345 ns off a millisecond: no FIFO clamp engages.
    const SimTime at = SimTime{5ms} * i + SimTime{12'345};
    engine.schedule_at(at, [&] { ASSERT_TRUE(a->send(1, {1})); });
    want.push_back(at + SimTime{draws.uniform_i64(kLo.count(), kHi.count())});
  }
  engine.run();
  EXPECT_EQ(landed, want);
  EXPECT_EQ(engine.events_executed(), 16u);  // 8 sends, 8 deliveries
}

TEST(EngineTransport, SendToUnknownOrShutdownFails) {
  EventEngine engine(1);
  EngineHub hub(engine);
  auto a = hub.make_endpoint(0);
  EXPECT_FALSE(a->send(7, {1}));  // no such node
  auto b = hub.make_endpoint(1);
  EXPECT_TRUE(a->send(1, {1}));
  b->shutdown();
  EXPECT_FALSE(a->send(1, {1}));  // no live endpoint
  EXPECT_FALSE(b->send(0, {1}));  // nor does a closed one send
  EXPECT_EQ(hub.frames_sent(), 1u);
}

TEST(EngineTransport, SendsReachTheNodesLiveEndpoint) {
  // A node reborn under a fresh endpoint is reached by the same id, and a
  // frame in flight from its dead endpoint still arrives: the sender's
  // death does not recall what it sent.
  EventEngine engine(1);
  EngineHub hub(engine, LinkModel(SimTime{2ms}, SimTime{2ms}));
  auto peer = hub.make_endpoint(7);
  std::vector<std::uint8_t> got;
  peer->set_handler(
      [&](poly::net::Message& m) { got.push_back(m.payload.at(0)); });
  auto first = hub.make_endpoint(42);
  EXPECT_EQ(first->address(), "node-42");
  EXPECT_THROW(hub.make_endpoint(42), std::invalid_argument);
  ASSERT_TRUE(first->send(7, {1}));
  first->shutdown();  // crashes with its frame in flight
  auto second = hub.make_endpoint(42);
  EXPECT_EQ(second->address(), "node-42");
  ASSERT_TRUE(second->send(7, {2}));
  std::vector<std::uint8_t> got_42;
  second->set_handler(
      [&](poly::net::Message& m) { got_42.push_back(m.payload.at(0)); });
  ASSERT_TRUE(peer->send(42, {3}));  // the live endpoint: second
  engine.run();
  EXPECT_EQ(got, (std::vector<std::uint8_t>{1, 2}));
  EXPECT_EQ(got_42, std::vector<std::uint8_t>{3});
}

TEST(EngineTransport, LoopbackDeliversToSelf) {
  EventEngine engine(1);
  EngineHub hub(engine, LinkModel(SimTime{2ms}, SimTime{2ms}));
  auto a = hub.make_endpoint(0);
  std::vector<std::string> got;
  a->set_handler([&](poly::net::Message m) {
    got.emplace_back(m.payload.begin(), m.payload.end());
  });
  ASSERT_TRUE(a->send(0, {'m', 'e'}));
  engine.run();
  EXPECT_EQ(got, std::vector<std::string>{"me"});
}

TEST(EngineTransport, InFlightFrameToCrashedEndpointIsDiscarded) {
  // Endpoint ids are never reused: a frame in flight to a dead endpoint is
  // discarded even when its node has recovered under a new one before the
  // frame lands.  The next send reaches the new life.
  EventEngine engine(1);
  EngineHub hub(engine, LinkModel(SimTime{5ms}, SimTime{5ms}));
  auto a = hub.make_endpoint(0);
  auto b = hub.make_endpoint(1);
  int delivered = 0;
  b->set_handler([&](poly::net::Message) { ++delivered; });
  ASSERT_TRUE(a->send(1, {1}));  // accepted while b is alive
  b->shutdown();                 // crashes before delivery
  b = hub.make_endpoint(1);      // and recovers, still before it
  b->set_handler([&](poly::net::Message) { ++delivered; });
  engine.run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(hub.frames_delivered(), 0u);
  ASSERT_TRUE(a->send(1, {2}));
  engine.run();
  EXPECT_EQ(delivered, 1);
}

TEST(EngineTransport, JitteredLatencyPreservesPerPairFifo) {
  EventEngine engine(7);
  EngineHub hub(engine, LinkModel(SimTime{1ms}, SimTime{50ms}));
  auto a = hub.make_endpoint(0);
  auto b = hub.make_endpoint(1);
  std::vector<std::uint8_t> got;
  b->set_handler(
      [&](poly::net::Message m) { got.push_back(m.payload.at(0)); });
  for (std::uint8_t i = 0; i < 50; ++i) ASSERT_TRUE(a->send(1, {i}));
  engine.run();
  ASSERT_EQ(got.size(), 50u);
  for (std::uint8_t i = 0; i < 50; ++i) EXPECT_EQ(got[i], i);
}

TEST(EngineTransport, SameInstantFramesArriveInSendOrderOneEventEach) {
  // Several senders hit one destination at the same instant: each frame is
  // its own engine event, and they run in global send order.
  EventEngine engine(1);
  EngineHub hub(engine, LinkModel(SimTime{2ms}, SimTime{2ms}));
  auto d = hub.make_endpoint(0);
  std::vector<std::unique_ptr<poly::engine::EngineTransport>> senders;
  for (int i = 0; i < 6; ++i)
    senders.push_back(hub.make_endpoint(1 + i));
  std::vector<std::uint8_t> got;
  d->set_handler([&](poly::net::Message m) {
    EXPECT_EQ(engine.now(), SimTime{2ms});  // one instant for all six
    got.push_back(m.payload.at(0));
  });
  for (std::uint8_t i = 0; i < 6; ++i)
    ASSERT_TRUE(senders[i]->send(0, {i}));
  EXPECT_EQ(engine.run(), 6u);  // one event per frame
  ASSERT_EQ(got.size(), 6u);
  for (std::uint8_t i = 0; i < 6; ++i) EXPECT_EQ(got[i], i);
  EXPECT_EQ(hub.frames_delivered(), 6u);
}

TEST(EngineTransport, StaggeredInstantsDeliverEachFrameOnceInOrder) {
  // Six frames in flight to one destination at six distinct instants, the
  // last shared with a second sender's frame: every frame arrives exactly
  // once, in timestamp order, and same-instant frames in send order.
  EventEngine engine(1);
  EngineHub hub(engine, LinkModel(SimTime{20ms}, SimTime{20ms}));
  auto d = hub.make_endpoint(0);
  auto s = hub.make_endpoint(1);
  auto s2 = hub.make_endpoint(2);
  std::vector<std::uint8_t> got;
  d->set_handler(
      [&](poly::net::Message m) { got.push_back(m.payload.at(0)); });
  for (std::uint8_t i = 0; i < 6; ++i) {
    engine.schedule_at(SimTime{1ms} * i, [&, i] {
      ASSERT_TRUE(s->send(0, {i}));
      if (i == 5) {
        ASSERT_TRUE(s2->send(0, {std::uint8_t{100}}));
      }
    });
  }
  engine.run();
  ASSERT_EQ(got.size(), 7u);
  for (std::uint8_t i = 0; i < 6; ++i) EXPECT_EQ(got[i], i);
  EXPECT_EQ(got[6], 100);  // right after the frame sent before it
  EXPECT_EQ(hub.frames_delivered(), 7u);
}

TEST(EngineTransport, DropModelLosesFramesSilently) {
  EventEngine engine(3);
  EngineHub hub(engine,
                LinkModel(SimTime{1ms}, SimTime{1ms}, /*drop_rate=*/0.5));
  auto a = hub.make_endpoint(0);
  auto b = hub.make_endpoint(1);
  int delivered = 0;
  b->set_handler([&](poly::net::Message) { ++delivered; });
  for (int i = 0; i < 200; ++i) ASSERT_TRUE(a->send(1, {1}));
  engine.run();
  EXPECT_EQ(hub.frames_dropped() + hub.frames_delivered(), 200u);
  EXPECT_GT(hub.frames_dropped(), 50u);
  EXPECT_GT(delivered, 50);
}

TEST(LinkModel, ChecksItsBoundsAndDrawsOnlyForJitterOrLoss) {
  EXPECT_THROW(LinkModel(SimTime{2ms}, SimTime{1ms}), std::invalid_argument);
  EXPECT_THROW(LinkModel(SimTime{1ms}, SimTime{1ms}, 1.0),
               std::invalid_argument);
  EXPECT_THROW(LinkModel(SimTime{1ms}, SimTime{1ms}, -0.1),
               std::invalid_argument);
  // The zero and fixed links draw nothing, so a trajectory over either
  // consumes no link randomness; jitter and loss draw.
  const auto draws = [](const LinkModel& link, SimTime want) {
    poly::util::Rng rng(5), untouched(5);
    const SimTime latency = link.latency(rng);
    EXPECT_FALSE(link.drop(rng));
    if (want != SimTime{-1}) {
      EXPECT_EQ(latency, want);
    }
    return rng.next_u64() != untouched.next_u64();
  };
  EXPECT_FALSE(draws(LinkModel{}, SimTime{0}));
  EXPECT_FALSE(draws(LinkModel(SimTime{3ms}, SimTime{3ms}), SimTime{3ms}));
  EXPECT_TRUE(draws(LinkModel(SimTime{1ms}, SimTime{3ms}), SimTime{-1}));
  EXPECT_FALSE(LinkModel(SimTime{3ms}, SimTime{3ms}).may_reorder());
  EXPECT_TRUE(LinkModel(SimTime{1ms}, SimTime{3ms}).may_reorder());
  poly::util::Rng rng(5), untouched(5);
  LinkModel(SimTime{1ms}, SimTime{1ms}, 0.001).drop(rng);
  EXPECT_NE(rng.next_u64(), untouched.next_u64());
}

// ---- event-cluster determinism ----------------------------------------------

TEST(EventClusterDeterminism, SameSeedReplaysBitForBit) {
  poly::shape::RingShape shape(16, 1.0);
  auto run_once = [&](std::uint64_t seed) {
    EventCluster fleet(shape.space_ptr(), shape.generate(),
                       EventClusterConfig{}, seed);
    fleet.run_rounds(30);
    fleet.crash_region(
        [&](const poly::space::Point& p) { return shape.in_failure_half(p); });
    fleet.run_rounds(40);
    return std::pair<double, double>{fleet.homogeneity(),
                                     fleet.reliability()};
  };
  const auto a = run_once(99);
  const auto b = run_once(99);
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

// ---- the wall-clock drive ------------------------------------------------------

TEST(EventClusterWallClock, RunsTheVirtualRunsEventsInAtLeastItsWallTime) {
  poly::shape::RingShape shape(16, 1.0);
  EventCluster virt(shape.space_ptr(), shape.generate(), {}, 5);
  EventCluster wall(shape.space_ptr(), shape.generate(),
                    {.drive = Drive::kWallClock}, 5);
  const SimTime span = wall.round_period() * 8;
  // DETLINT-ALLOW(nondet-source): times the paced run against its lower
  // bound; the wall clock never feeds the compared state
  const auto start = std::chrono::steady_clock::now();
  wall.run_for(span);
  // DETLINT-ALLOW(nondet-source): end of the same wall-time measurement
  const auto took = std::chrono::steady_clock::now() - start;
  virt.run_for(span);
  EXPECT_GE(took, span);
  EXPECT_EQ(wall.engine().now(), virt.engine().now());
  EXPECT_EQ(wall.engine().events_executed(), virt.engine().events_executed());
  EXPECT_EQ(wall.hub().frames_sent(), virt.hub().frames_sent());
  EXPECT_EQ(wall.alive_positions(), virt.alive_positions());
  EXPECT_EQ(wall.homogeneity(), virt.homogeneity());
}

}  // namespace
