// Tests for the net/ substrate — message codecs, in-process and TCP
// transports (delivery, ordering, failure semantics), and the live
// AsyncNode runtime: convergence, crash recovery, and re-injection on real
// threads without the simulator.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "net/inproc_transport.hpp"
#include "net/messages.hpp"
#include "net/live_cluster.hpp"
#include "net/tcp_transport.hpp"
#include "shape/grid_torus.hpp"
#include "shape/ring_shape.hpp"

namespace {

using namespace std::chrono_literals;
using poly::net::Address;
using poly::net::AsyncConfig;
using poly::net::Header;
using poly::net::InProcHub;
using poly::net::LiveCluster;
using poly::net::Message;
using poly::net::MsgType;
using poly::net::TcpTransport;
using poly::net::WireDescriptor;
using poly::net::WirePeer;
using poly::net::WirePoint;
using poly::space::Point;

// Sanitizer instrumentation slows every tick's processing 5-15x while the
// live nodes keep ticking on the wall clock, so convergence takes
// proportionally longer real time.  Scale the poll deadlines to match.
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

/// Polls `pred` until true or the deadline expires.
bool eventually(const std::function<bool()>& pred,
                std::chrono::milliseconds deadline = 10s,
                std::chrono::milliseconds poll = 20ms) {
  deadline *= kTimeScale;
  // DETLINT-ALLOW(nondet-source): test-harness poll deadline for the live
  // (threaded, wall-clock) runtime; bounds how long we wait, never feeds
  // simulation state
  const auto until = std::chrono::steady_clock::now() + deadline;
  // DETLINT-ALLOW(nondet-source): same poll loop — wall time only gates
  // the retry, the asserted predicate is protocol state
  while (std::chrono::steady_clock::now() < until) {
    if (pred()) return true;
    std::this_thread::sleep_for(poll);
  }
  return pred();
}

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

// ---- InProcTransport ------------------------------------------------------------

TEST(InProc, DeliversWithSenderAddress) {
  auto hub = InProcHub::create();
  auto a = hub->make_endpoint("a");
  auto b = hub->make_endpoint("b");
  Collector got;
  b->set_handler(got.handler());
  ASSERT_TRUE(a->send("b", bytes_of("hello")));
  ASSERT_TRUE(got.wait_for_count(1));
  EXPECT_EQ(got.messages[0].from, "a");
  EXPECT_EQ(got.messages[0].payload, bytes_of("hello"));
}

TEST(InProc, PreservesOrderPerSender) {
  auto hub = InProcHub::create();
  auto a = hub->make_endpoint("a");
  auto b = hub->make_endpoint("b");
  Collector got;
  b->set_handler(got.handler());
  for (int i = 0; i < 100; ++i)
    ASSERT_TRUE(a->send("b", bytes_of(std::to_string(i))));
  ASSERT_TRUE(got.wait_for_count(100));
  for (int i = 0; i < 100; ++i)
    EXPECT_EQ(got.messages[i].payload, bytes_of(std::to_string(i)));
}

TEST(InProc, SendToUnknownAddressFails) {
  auto hub = InProcHub::create();
  auto a = hub->make_endpoint("a");
  EXPECT_FALSE(a->send("nobody", bytes_of("x")));
}

TEST(InProc, SendAfterShutdownFails) {
  auto hub = InProcHub::create();
  auto a = hub->make_endpoint("a");
  auto b = hub->make_endpoint("b");
  b->shutdown();
  EXPECT_FALSE(a->send("b", bytes_of("x")));
  EXPECT_FALSE(hub->reachable("b"));
}

TEST(InProc, DuplicateAddressThrows) {
  auto hub = InProcHub::create();
  auto a = hub->make_endpoint("a");
  EXPECT_THROW(hub->make_endpoint("a"), std::invalid_argument);
}

TEST(InProc, LoopbackDelivery) {
  auto hub = InProcHub::create();
  auto a = hub->make_endpoint("a");
  Collector got;
  a->set_handler(got.handler());
  ASSERT_TRUE(a->send("a", bytes_of("self")));
  ASSERT_TRUE(got.wait_for_count(1));
  EXPECT_EQ(got.messages[0].from, "a");
}

TEST(InProc, ConcurrentSendersAllDelivered) {
  auto hub = InProcHub::create();
  auto target = hub->make_endpoint("target");
  Collector got;
  target->set_handler(got.handler());
  std::vector<std::unique_ptr<poly::net::InProcTransport>> senders;
  for (int i = 0; i < 8; ++i)
    senders.push_back(hub->make_endpoint("s" + std::to_string(i)));
  std::vector<std::thread> threads;
  for (auto& s : senders)
    threads.emplace_back([&s] {
      for (int i = 0; i < 50; ++i) s->send("target", bytes_of("m"));
    });
  for (auto& t : threads) t.join();
  EXPECT_TRUE(got.wait_for_count(400));
}

// ---- TcpTransport ------------------------------------------------------------------

TEST(Tcp, RoundTripOverLocalhost) {
  TcpTransport a;
  TcpTransport b;
  Collector got;
  b.set_handler(got.handler());
  ASSERT_TRUE(a.send(b.address(), bytes_of("over tcp")));
  ASSERT_TRUE(got.wait_for_count(1));
  EXPECT_EQ(got.messages[0].from, a.address());
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
  ASSERT_TRUE(b.send(got_b.messages[0].from, bytes_of("pong")));
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

// ---- AsyncNode / LiveCluster --------------------------------------------------------

AsyncConfig fast_config() {
  AsyncConfig cfg;
  cfg.tick = 10ms;
  cfg.origin_timeout = 150ms;
  cfg.replication = 3;
  return cfg;
}

TEST(Live, ClusterConvergesOnRing) {
  poly::shape::RingShape shape(24, 1.0);
  LiveCluster cluster(shape.space_ptr(), shape.generate(), fast_config(), 7);
  // Initially every node hosts its own point: homogeneity 0.  Checked
  // before start(): once the threads run, migration can raise it at any
  // moment, so polling for the initial state after start() is a race.
  EXPECT_LT(cluster.homogeneity(), 0.01);
  cluster.start();
  // Views populate.
  EXPECT_TRUE(eventually([&] {
    for (std::size_t i = 0; i < cluster.size(); ++i)
      if (cluster.node(i).tman_view_size() == 0) return false;
    return true;
  }));
  cluster.stop();
  // Clean links: nothing may have died at the decode boundary.
  for (std::size_t i = 0; i < cluster.size(); ++i)
    EXPECT_EQ(cluster.node(i).frames_rejected(), 0u);
}

TEST(Live, BackupsReplicateGhosts) {
  poly::shape::RingShape shape(16, 1.0);
  LiveCluster cluster(shape.space_ptr(), shape.generate(), fast_config(), 9);
  cluster.start();
  // Eventually ghost copies appear across the fleet (K per point).
  EXPECT_TRUE(eventually([&] {
    std::size_t ghosts = 0;
    for (std::size_t i = 0; i < cluster.size(); ++i)
      ghosts += cluster.node(i).ghost_point_count();
    return ghosts >= 16 * 2;  // at least 2 copies per point on average
  }));
  cluster.stop();
}

TEST(Live, RecoversDataPointsAfterRegionCrash) {
  poly::shape::RingShape shape(24, 1.0);
  LiveCluster cluster(shape.space_ptr(), shape.generate(), fast_config(), 11);
  cluster.start();
  // Let backups propagate.
  ASSERT_TRUE(eventually([&] {
    std::size_t ghosts = 0;
    for (std::size_t i = 0; i < cluster.size(); ++i)
      ghosts += cluster.node(i).ghost_point_count();
    return ghosts >= 24 * 2;
  }));

  const std::size_t crashed = cluster.crash_region(
      [&](const Point& p) { return shape.in_failure_half(p); });
  EXPECT_EQ(crashed, 12u);
  EXPECT_EQ(cluster.alive_count(), 12u);

  // Recovery: reliability returns to ~1 (K=3 on a 50% crash ⇒ ≥ 93%
  // analytic; on 24 points usually everything survives) and the shape
  // re-homogenizes below the pre-crash-density bound.
  EXPECT_TRUE(eventually([&] { return cluster.reliability() > 0.85; }, 15s));
  EXPECT_TRUE(eventually([&] { return cluster.homogeneity() < 1.0; }, 15s));
  cluster.stop();
}

TEST(Live, InjectedNodeAcquiresGuests) {
  poly::shape::RingShape shape(12, 1.0);
  LiveCluster cluster(shape.space_ptr(), shape.generate(), fast_config(), 13);
  ASSERT_LT(cluster.homogeneity(), 0.01);  // pre-start: see ConvergesOnRing
  cluster.start();
  const std::size_t idx = cluster.inject(Point(3.5));
  EXPECT_TRUE(eventually(
      [&] { return !cluster.node(idx).guests().empty(); }, 15s));
  cluster.stop();
}

TEST(Live, GracefulStopKeepsStateInspectable) {
  poly::shape::RingShape shape(8, 1.0);
  LiveCluster cluster(shape.space_ptr(), shape.generate(), fast_config(), 15);
  cluster.start();
  ASSERT_TRUE(eventually([&] { return cluster.reliability() == 1.0; }));
  cluster.stop();
  // After stop, inspection still works and points are all hosted.
  EXPECT_DOUBLE_EQ(cluster.reliability(), 1.0);
}

TEST(Live, WorksOverTcp) {
  poly::shape::RingShape shape(8, 1.0);
  LiveCluster cluster(shape.space_ptr(), shape.generate(), fast_config(), 17,
                      /*use_tcp=*/true);
  cluster.start();
  EXPECT_TRUE(eventually([&] {
    for (std::size_t i = 0; i < cluster.size(); ++i)
      if (cluster.node(i).tman_view_size() == 0) return false;
    return true;
  }, 15s));
  EXPECT_DOUBLE_EQ(cluster.reliability(), 1.0);
  cluster.stop();
}

}  // namespace
