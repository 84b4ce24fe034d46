// Tests for the net/ substrate — message codecs, the TCP transport
// (delivery, ordering, failure semantics) and its inbox, and the live
// fleet: the AsyncNode protocol paced by the wall clock, over the hub and
// over TCP — convergence, crash recovery and re-injection without the
// simulator.
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "engine/event_cluster.hpp"
#include "net/inbox.hpp"
#include "net/messages.hpp"
#include "net/tcp_transport.hpp"
#include "shape/ring_shape.hpp"
#include "util/arena.hpp"

namespace {

using namespace std::chrono_literals;
using poly::engine::Drive;
using poly::engine::EventCluster;
using poly::net::Address;
using poly::net::AsyncConfig;
using poly::net::Header;
using poly::net::Message;
using poly::net::MsgType;
using poly::net::TcpTransport;
using poly::net::WireDescriptor;
using poly::net::WirePeer;
using poly::net::WirePoint;
using poly::space::Point;

// Sanitizer instrumentation slows every frame's processing 5-15x, so TCP
// frames take proportionally longer real time to arrive.  Scale the wait
// deadlines to match.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define POLY_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define POLY_TEST_SANITIZED 1
#endif
#endif
#if defined(POLY_TEST_SANITIZED)
constexpr int kTimeScale = 6;
#else
constexpr int kTimeScale = 1;
#endif

/// Collects received messages with notification.
struct Collector {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<Message> messages;

  poly::net::MessageHandler handler() {
    return [this](Message m) {
      std::lock_guard<std::mutex> lk(mu);
      messages.push_back(std::move(m));
      cv.notify_all();
    };
  }

  bool wait_for_count(std::size_t n, std::chrono::milliseconds timeout = 5s) {
    std::unique_lock<std::mutex> lk(mu);
    return cv.wait_for(lk, timeout * kTimeScale,
                       [&] { return messages.size() >= n; });
  }
};

std::vector<std::uint8_t> bytes_of(const std::string& s) {
  return {s.begin(), s.end()};
}

// ---- message codecs ------------------------------------------------------------

TEST(Messages, HeaderRoundTrip) {
  poly::util::ByteWriter w;
  poly::net::encode_header(
      w, Header{MsgType::kTmanReq, 42, "127.0.0.1:9999"});
  poly::util::ByteReader r(w.data());
  const Header h = poly::net::decode_header(r);
  EXPECT_EQ(h.type, MsgType::kTmanReq);
  EXPECT_EQ(h.sender, 42u);
  EXPECT_EQ(h.sender_addr, "127.0.0.1:9999");
}

TEST(Messages, RpsRoundTrip) {
  const auto frame = poly::net::encode_rps(
      Header{MsgType::kRpsShuffleReq, 1, "a"},
      {{2, "addr-2", 3}, {5, "addr-5", 0}});
  poly::util::ByteReader r(frame);
  const Header h = poly::net::decode_header(r);
  EXPECT_EQ(h.type, MsgType::kRpsShuffleReq);
  const auto peers = poly::net::decode_peers(r);
  ASSERT_EQ(peers.size(), 2u);
  EXPECT_EQ(peers[0].id, 2u);
  EXPECT_EQ(peers[0].addr, "addr-2");
  EXPECT_EQ(peers[0].age, 3u);
  EXPECT_TRUE(r.done());
}

TEST(Messages, TmanRoundTrip) {
  const auto frame = poly::net::encode_tman(
      Header{MsgType::kTmanResp, 7, "x"},
      {{9, "addr-9", Point(1.5, 2.5), 12}});
  poly::util::ByteReader r(frame);
  poly::net::decode_header(r);
  const auto ds = poly::net::decode_descriptors(r);
  ASSERT_EQ(ds.size(), 1u);
  EXPECT_EQ(ds[0].id, 9u);
  EXPECT_EQ(ds[0].pos, Point(1.5, 2.5));
  EXPECT_EQ(ds[0].version, 12u);
}

TEST(Messages, MigrateRoundTrip) {
  const auto frame = poly::net::encode_migrate_req(
      Header{MsgType::kMigrateReq, 3, "me"}, Point(4.0, 5.0),
      {{100, Point(1, 1)}, {101, Point(2, 2)}});
  poly::util::ByteReader r(frame);
  poly::net::decode_header(r);
  EXPECT_EQ(poly::net::decode_point(r), Point(4.0, 5.0));
  const auto pts = poly::net::decode_points(r);
  ASSERT_EQ(pts.size(), 2u);
  EXPECT_EQ(pts[1].id, 101u);
}

TEST(Messages, MigrateRespRoundTrip) {
  const auto frame = poly::net::encode_migrate_resp(
      Header{MsgType::kMigrateResp, 3, "me"}, true, {{7, Point(0, 1)}});
  poly::util::ByteReader r(frame);
  poly::net::decode_header(r);
  EXPECT_EQ(r.u8(), 1);
  EXPECT_EQ(poly::net::decode_points(r).size(), 1u);
}

TEST(Messages, MalformedFramesThrow) {
  std::vector<std::uint8_t> garbage{0xff, 0x00, 0x01};
  EXPECT_THROW(poly::net::peek_type(garbage), poly::util::CodecError);
  EXPECT_THROW(poly::net::peek_type({}), poly::util::CodecError);

  // Corrupt length prefix must not allocate gigabytes.
  poly::util::ByteWriter w;
  poly::net::encode_header(w, Header{MsgType::kBackupPush, 1, "a"});
  w.u32(0xffffffffu);  // implausible point count
  poly::util::ByteReader r(w.data());
  poly::net::decode_header(r);
  EXPECT_THROW(poly::net::decode_points(r), poly::util::CodecError);
}

TEST(Messages, BadPointDimensionThrows) {
  poly::util::ByteWriter w;
  w.u8(7);  // dim = 7 is invalid
  for (int i = 0; i < 3; ++i) w.f64(0.0);
  poly::util::ByteReader r(w.data());
  EXPECT_THROW(poly::net::decode_point(r), poly::util::CodecError);
}

// ---- TcpTransport ------------------------------------------------------------------

TEST(Tcp, RoundTripOverLocalhost) {
  TcpTransport a;
  TcpTransport b;
  Collector got;
  b.set_handler(got.handler());
  ASSERT_TRUE(a.send(b.address(), bytes_of("over tcp")));
  ASSERT_TRUE(got.wait_for_count(1));
  EXPECT_EQ(got.messages[0].payload, bytes_of("over tcp"));
}

TEST(Tcp, OrderPreservedOnOneConnection) {
  TcpTransport a;
  TcpTransport b;
  Collector got;
  b.set_handler(got.handler());
  for (int i = 0; i < 200; ++i)
    ASSERT_TRUE(a.send(b.address(), bytes_of(std::to_string(i))));
  ASSERT_TRUE(got.wait_for_count(200));
  for (int i = 0; i < 200; ++i)
    EXPECT_EQ(got.messages[i].payload, bytes_of(std::to_string(i)));
}

TEST(Tcp, BidirectionalTraffic) {
  TcpTransport a;
  TcpTransport b;
  Collector got_a;
  Collector got_b;
  a.set_handler(got_a.handler());
  b.set_handler(got_b.handler());
  ASSERT_TRUE(a.send(b.address(), bytes_of("ping")));
  ASSERT_TRUE(got_b.wait_for_count(1));
  ASSERT_TRUE(b.send(a.address(), bytes_of("pong")));
  ASSERT_TRUE(got_a.wait_for_count(1));
  EXPECT_EQ(got_a.messages[0].payload, bytes_of("pong"));
}

TEST(Tcp, SendToClosedEndpointFails) {
  TcpTransport a;
  Address dead;
  {
    TcpTransport b;
    dead = b.address();
    b.shutdown();
  }
  EXPECT_FALSE(a.send(dead, bytes_of("x")));
}

TEST(Tcp, SendToGarbageAddressFails) {
  TcpTransport a;
  EXPECT_FALSE(a.send("not-an-address", bytes_of("x")));
  EXPECT_FALSE(a.send("127.0.0.1:0", bytes_of("x")));
}

TEST(Tcp, LargePayload) {
  TcpTransport a;
  TcpTransport b;
  Collector got;
  b.set_handler(got.handler());
  std::vector<std::uint8_t> big(1 << 20, 0xab);  // 1 MiB
  ASSERT_TRUE(a.send(b.address(), big));
  ASSERT_TRUE(got.wait_for_count(1));
  EXPECT_EQ(got.messages[0].payload.size(), big.size());
}

// ---- TcpTransport over an Inbox ---------------------------------------------------

/// Waits until `inbox` holds `n` frames or the scaled 10 s deadline
/// passes (TCP arrival is nondeterministic).
bool wait_queued(const poly::net::Inbox& inbox, std::size_t n) {
  for (int ms = 0; ms < 10000 * kTimeScale && inbox.queued() < n; ++ms)
    std::this_thread::sleep_for(1ms);
  return inbox.queued() >= n;
}

TEST(TcpInbox, ReadersQueueFramesForTheLoopThread) {
  poly::net::Inbox inbox;
  TcpTransport a;
  TcpTransport b(&inbox);
  Collector got;
  b.set_handler(got.handler());
  ASSERT_TRUE(a.send(b.address(), bytes_of("queued")));
  ASSERT_TRUE(wait_queued(inbox, 1));
  // The reader queued the frame; no handler ran on its thread.
  EXPECT_TRUE(got.messages.empty());
  EXPECT_EQ(inbox.deliver(), 1u);
  ASSERT_EQ(got.messages.size(), 1u);
  EXPECT_EQ(got.messages[0].payload, bytes_of("queued"));
}

// ---- the live fleet ----------------------------------------------------------------

AsyncConfig fast_config() {
  AsyncConfig cfg;
  cfg.tick = 10ms;
  cfg.origin_timeout = 150ms;
  cfg.replication = 3;
  return cfg;
}

poly::engine::EventClusterConfig live_config(Drive drive = Drive::kWallClock) {
  return {.node = fast_config(), .drive = drive};
}

std::size_t total_ghosts(EventCluster& fleet) {
  std::size_t ghosts = 0;
  for (std::size_t i = 0; i < fleet.size(); ++i)
    ghosts += fleet.node(i).ghost_point_count();
  return ghosts;
}

bool all_views_populated(EventCluster& fleet) {
  for (std::size_t i = 0; i < fleet.size(); ++i)
    if (!fleet.crashed(i) && fleet.node(i).tman_view_size() == 0) return false;
  return true;
}

/// True when every alive node's T-Man view holds a descriptor learned by
/// gossip (version > 0).  Unlike a populated view, this takes frames: a
/// node seeds its view from the bootstrap RPS view with version-0
/// placeholders before it has heard from anyone.
bool all_views_learned(EventCluster& fleet) {
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    if (fleet.crashed(i)) continue;
    bool learned = false;
    fleet.node(i).for_each_view_member(
        [](void* ctx, poly::net::LiveNodeId, const Point&,
           std::uint64_t version) {
          *static_cast<bool*>(ctx) = *static_cast<bool*>(ctx) || version > 0;
        },
        &learned);
    if (!learned) return false;
  }
  return true;
}

TEST(Live, ClusterConvergesOnRing) {
  poly::shape::RingShape shape(24, 1.0);
  EventCluster cluster(shape.space_ptr(), shape.generate(), live_config(), 7);
  // Initially every node hosts its own point: homogeneity 0.
  EXPECT_LT(cluster.homogeneity(), 0.01);
  cluster.run_rounds(5);
  EXPECT_TRUE(all_views_populated(cluster));
  // Clean links: nothing may have died at the decode boundary.
  EXPECT_EQ(cluster.frames_rejected(), 0u);
}

TEST(Live, BackupsReplicateGhosts) {
  poly::shape::RingShape shape(16, 1.0);
  EventCluster cluster(shape.space_ptr(), shape.generate(), live_config(), 9);
  cluster.run_rounds(5);
  // Ghost copies appear across the fleet (K per point).
  EXPECT_GE(total_ghosts(cluster), 16u * 2);  // >= 2 copies per point
}

TEST(Live, RecoversDataPointsAfterRegionCrash) {
  poly::shape::RingShape shape(24, 1.0);
  EventCluster cluster(shape.space_ptr(), shape.generate(), live_config(),
                       11);
  cluster.run_rounds(10);  // let backups propagate
  ASSERT_GE(total_ghosts(cluster), 24u * 2);

  const std::size_t crashed = cluster.crash_region(
      [&](const Point& p) { return shape.in_failure_half(p); });
  EXPECT_EQ(crashed, 12u);
  EXPECT_EQ(cluster.alive_count(), 12u);

  // Recovery: reliability returns to ~1 (K=3 on a 50% crash ⇒ ≥ 93%
  // analytic; on 24 points usually everything survives) and the shape
  // re-homogenizes below the pre-crash-density bound.  Ghosts reactivate
  // after origin_timeout = 15 ticks.
  cluster.run_rounds(30);
  EXPECT_GT(cluster.reliability(), 0.85);
  EXPECT_LT(cluster.homogeneity(), 1.0);
}

TEST(Live, InjectedNodeAcquiresGuests) {
  poly::shape::RingShape shape(12, 1.0);
  EventCluster cluster(shape.space_ptr(), shape.generate(), live_config(),
                       13);
  ASSERT_LT(cluster.homogeneity(), 0.01);
  const std::size_t idx = cluster.inject(Point(3.5));
  // Migration hands the fresh node guests, and may take them back: it
  // must hold some within 20 rounds.
  bool acquired = false;
  for (int r = 0; r < 20 && !acquired; ++r) {
    cluster.run_rounds(1);
    acquired = !cluster.node(idx).guests().empty();
  }
  EXPECT_TRUE(acquired);
}

TEST(Live, WorksOverTcp) {
  poly::shape::RingShape shape(8, 1.0);
  EventCluster cluster(shape.space_ptr(), shape.generate(),
                       live_config(Drive::kWallClockTcp), 17);
  // TCP arrival is nondeterministic: allow up to 15 s of paced rounds.
  const int max_rounds = 1500 * kTimeScale;
  for (int r = 0; r < max_rounds && !all_views_learned(cluster); ++r)
    cluster.run_rounds(1);
  EXPECT_TRUE(all_views_learned(cluster));
  EXPECT_DOUBLE_EQ(cluster.reliability(), 1.0);
}

TEST(Live, CrashedTcpNodeRunsNoQueuedFrame) {
  // A crash while frames for the node sit in the inbox: its transport
  // discards them, so no handler runs on the node afterwards — the TCP
  // twin of EngineTransport.InFlightFrameToCrashedEndpointIsDiscarded.
  poly::shape::RingShape shape(8, 1.0);
  const AsyncConfig cfg = fast_config();
  poly::util::Arena arena;
  poly::net::AsyncScratch scratch;
  scratch.bind(arena, cfg);
  poly::net::Inbox inbox;
  poly::net::AsyncNode node(
      0, shape.space_ptr(), std::make_unique<TcpTransport>(&inbox),
      shape.generate()[0], cfg, /*seed=*/5,
      [] { return std::chrono::steady_clock::time_point{}; }, arena,
      scratch);
  TcpTransport peer;
  // An RPS response carrying one new peer grows the node's view by one.
  auto rps_resp = [&](std::uint64_t id) {
    return poly::net::encode_rps(
        Header{MsgType::kRpsShuffleResp, 1, peer.address()},
        {{id, "peer-" + std::to_string(id), 0, Point(0.0), 1}});
  };
  // Control: a queued frame to an alive node runs its handler.
  ASSERT_TRUE(peer.send(node.address(), rps_resp(2)));
  ASSERT_TRUE(wait_queued(inbox, 1));
  EXPECT_EQ(inbox.deliver(), 1u);
  EXPECT_EQ(node.rps_view_size(), 1u);

  for (std::uint64_t id = 3; id < 6; ++id)
    ASSERT_TRUE(peer.send(node.address(), rps_resp(id)));
  ASSERT_TRUE(wait_queued(inbox, 3));
  node.crash();
  EXPECT_EQ(inbox.queued(), 0u);
  EXPECT_EQ(inbox.deliver(), 0u);
  EXPECT_EQ(node.rps_view_size(), 1u);
}

}  // namespace
