// Tests for the net/ substrate — message codecs, the TCP transport and
// its hub (delivery, ordering, framing, failure semantics, one thread),
// and the live fleet: the AsyncNode protocol paced by the wall clock, over
// the hub and over TCP — convergence, crash recovery and re-injection
// without the simulator.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "engine/event_cluster.hpp"
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
using poly::net::TcpHub;
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

/// Collects received messages (handlers run on the thread that calls
/// TcpHub::deliver).
struct Collector {
  std::vector<Message> messages;

  poly::net::MessageHandler handler() {
    return [this](Message& m) { messages.push_back(std::move(m)); };
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
      {{2, "addr-2", 3, {}, 0}, {5, "addr-5", 0, {}, 0}});
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

// ---- TcpTransport over a TcpHub ----------------------------------------------

/// Runs the hub's wait/deliver passes until `done()` holds or the scaled
/// 10 s budget runs out (TCP arrival is nondeterministic).
template <typename Done>
bool pump(TcpHub& hub, Done done) {
  for (int pass = 0; pass < 10000 * kTimeScale && !done(); ++pass) {
    hub.wait(1ms);
    hub.deliver();
  }
  return done();
}

/// Two endpoints, for nodes 0 and 1, on one hub.
struct TcpPair {
  TcpHub hub;
  std::unique_ptr<TcpTransport> a = hub.make_endpoint(0);
  std::unique_ptr<TcpTransport> b = hub.make_endpoint(1);
};

TEST(Tcp, RoundTripOverLocalhost) {
  TcpPair p;
  Collector got;
  p.b->set_handler(got.handler());
  ASSERT_TRUE(p.a->send(1, bytes_of("over tcp")));
  ASSERT_TRUE(pump(p.hub, [&] { return got.messages.size() == 1; }));
  EXPECT_EQ(got.messages[0].payload, bytes_of("over tcp"));
}

TEST(Tcp, OrderPreservedOnOneConnection) {
  TcpPair p;
  Collector got;
  p.b->set_handler(got.handler());
  for (int i = 0; i < 200; ++i)
    ASSERT_TRUE(p.a->send(1, bytes_of(std::to_string(i))));
  ASSERT_TRUE(pump(p.hub, [&] { return got.messages.size() >= 200; }));
  ASSERT_EQ(got.messages.size(), 200u);
  for (int i = 0; i < 200; ++i)
    EXPECT_EQ(got.messages[i].payload, bytes_of(std::to_string(i)));
}

TEST(Tcp, BidirectionalTraffic) {
  TcpPair p;
  Collector got_a;
  Collector got_b;
  p.a->set_handler(got_a.handler());
  p.b->set_handler(got_b.handler());
  ASSERT_TRUE(p.a->send(1, bytes_of("ping")));
  ASSERT_TRUE(pump(p.hub, [&] { return got_b.messages.size() == 1; }));
  ASSERT_TRUE(p.b->send(0, bytes_of("pong")));
  ASSERT_TRUE(pump(p.hub, [&] { return got_a.messages.size() == 1; }));
  EXPECT_EQ(got_a.messages[0].payload, bytes_of("pong"));
}

TEST(Tcp, SendToClosedEndpointFails) {
  TcpPair p;
  Collector got;
  p.b->set_handler(got.handler());
  // An established connection dies with its peer's endpoint.
  ASSERT_TRUE(p.a->send(1, bytes_of("x")));
  ASSERT_TRUE(pump(p.hub, [&] { return got.messages.size() == 1; }));
  p.b->shutdown();
  EXPECT_FALSE(p.a->send(1, bytes_of("y")));
  EXPECT_FALSE(p.b->send(0, bytes_of("z")));  // nor does a closed one send
}

TEST(Tcp, SendToUnboundNodeFails) {
  TcpPair p;
  EXPECT_FALSE(p.a->send(7, bytes_of("x")));
}

TEST(Tcp, RecoveredNodeIsReachedAtItsNewEndpoint) {
  TcpPair p;
  ASSERT_TRUE(p.a->send(1, bytes_of("first life")));
  p.b.reset();  // crash: the endpoint shuts down
  EXPECT_THROW(p.hub.make_endpoint(0), std::invalid_argument);  // 0 is live
  p.b = p.hub.make_endpoint(1);
  Collector got;
  p.b->set_handler(got.handler());
  ASSERT_TRUE(p.a->send(1, bytes_of("second life")));
  ASSERT_TRUE(pump(p.hub, [&] { return got.messages.size() == 1; }));
  EXPECT_EQ(got.messages[0].payload, bytes_of("second life"));
}

TEST(Tcp, LargePayload) {
  TcpPair p;
  Collector got;
  p.b->set_handler(got.handler());
  std::vector<std::uint8_t> big(1 << 20, 0xab);  // 1 MiB
  ASSERT_TRUE(p.a->send(1, big));
  ASSERT_TRUE(pump(p.hub, [&] { return got.messages.size() == 1; }));
  EXPECT_EQ(got.messages[0].payload, big);
}

TEST(TcpHub, HandlersRunOnlyInsideDeliver) {
  TcpPair p;
  std::vector<std::thread::id> ran_on;
  p.b->set_handler(
      [&](Message&) { ran_on.push_back(std::this_thread::get_id()); });
  ASSERT_TRUE(p.a->send(1, bytes_of("polled")));
  for (int pass = 0; pass < 10000 * kTimeScale && ran_on.empty(); ++pass) {
    p.hub.wait(1ms);
    EXPECT_TRUE(ran_on.empty());  // a ready socket alone runs nothing
    p.hub.deliver();
  }
  ASSERT_EQ(ran_on.size(), 1u);
  EXPECT_EQ(ran_on[0], std::this_thread::get_id());
}

// ---- TCP framing, from a raw socket -------------------------------------------

/// The frame `payload` travels as: u32 length (host order) | payload.
std::vector<std::uint8_t> frame_of(const std::vector<std::uint8_t>& payload,
                                   std::uint32_t length) {
  std::vector<std::uint8_t> f(sizeof length + payload.size());
  std::memcpy(f.data(), &length, sizeof length);
  std::copy(payload.begin(), payload.end(), f.begin() + sizeof length);
  return f;
}
std::vector<std::uint8_t> frame_of(const std::vector<std::uint8_t>& payload) {
  return frame_of(payload, static_cast<std::uint32_t>(payload.size()));
}

/// A plain blocking client socket connected to an endpoint's address: the
/// far side of the framing tests, writing whatever bytes a test gives it.
class RawClient {
 public:
  explicit RawClient(const Address& to) {
    const int port = std::stoi(to.substr(to.rfind(':') + 1));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    connected_ =
        fd_ >= 0 &&
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0;
  }
  ~RawClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  RawClient(const RawClient&) = delete;
  RawClient& operator=(const RawClient&) = delete;

  bool connected() const { return connected_; }
  bool write(const std::vector<std::uint8_t>& bytes) {
    return ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL) ==
           static_cast<ssize_t>(bytes.size());
  }
  /// True once the far end has closed the connection (EOF or reset).
  bool closed_by_peer() {
    pollfd p{fd_, POLLIN, 0};
    std::uint8_t byte = 0;
    return ::poll(&p, 1, 0) == 1 && ::recv(fd_, &byte, 1, MSG_DONTWAIT) <= 0;
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
};

TEST(TcpFraming, ByteAtATimeArrivesOnceAndWhole) {
  TcpPair p;
  Collector got;
  p.b->set_handler(got.handler());
  RawClient client(p.b->address());
  ASSERT_TRUE(client.connected());
  ASSERT_GE(p.hub.wait(10s), 1u);  // the listen socket holds the connect
  p.hub.deliver();
  const auto frame = frame_of(bytes_of("one byte at a time"));
  for (std::size_t i = 0; i < frame.size(); ++i) {
    ASSERT_TRUE(client.write({frame[i]}));
    ASSERT_EQ(p.hub.wait(10s), 1u);  // readable: one more byte
    p.hub.deliver();
    ASSERT_EQ(got.messages.size(), i + 1 < frame.size() ? 0u : 1u) << i;
  }
  EXPECT_EQ(got.messages[0].payload, bytes_of("one byte at a time"));
  EXPECT_EQ(p.hub.wait(10ms), 0u);  // and nothing more
}

TEST(TcpFraming, SeveralFramesInOneWriteArriveInOrder) {
  TcpPair p;
  Collector got;
  p.b->set_handler(got.handler());
  RawClient client(p.b->address());
  ASSERT_TRUE(client.connected());
  std::vector<std::uint8_t> burst;
  for (const char* s : {"first", "", "third"}) {
    const auto f = frame_of(bytes_of(s));
    burst.insert(burst.end(), f.begin(), f.end());
  }
  ASSERT_TRUE(client.write(burst));
  ASSERT_TRUE(pump(p.hub, [&] { return got.messages.size() >= 3; }));
  ASSERT_EQ(got.messages.size(), 3u);
  EXPECT_EQ(got.messages[0].payload, bytes_of("first"));
  EXPECT_TRUE(got.messages[1].payload.empty());
  EXPECT_EQ(got.messages[2].payload, bytes_of("third"));
}

TEST(TcpFraming, OversizedPrefixClosesOnlyItsConnection) {
  TcpPair p;
  Collector got;
  p.b->set_handler(got.handler());
  RawClient hostile(p.b->address());
  RawClient honest(p.b->address());
  ASSERT_TRUE(hostile.connected());
  ASSERT_TRUE(honest.connected());
  // One byte over the 16 MiB bound, with a little of its "payload".
  ASSERT_TRUE(hostile.write(frame_of(bytes_of("junk"), (16u << 20) + 1)));
  ASSERT_TRUE(honest.write(frame_of(bytes_of("ok"))));
  ASSERT_TRUE(pump(p.hub, [&] {
    return got.messages.size() == 1 && hostile.closed_by_peer();
  }));
  ASSERT_TRUE(honest.write(frame_of(bytes_of("still ok"))));
  ASSERT_TRUE(pump(p.hub, [&] { return got.messages.size() == 2; }));
  EXPECT_EQ(got.messages[0].payload, bytes_of("ok"));
  EXPECT_EQ(got.messages[1].payload, bytes_of("still ok"));
}

TEST(TcpFraming, PeerClosingMidFrameRunsNoHandler) {
  TcpPair p;
  Collector got;
  p.b->set_handler(got.handler());
  {
    RawClient quitter(p.b->address());
    ASSERT_TRUE(quitter.connected());
    auto half = frame_of(std::vector<std::uint8_t>(100, 7));
    half.resize(half.size() / 2);
    ASSERT_TRUE(quitter.write(half));
  }  // closes mid-frame
  for (int pass = 0; pass < 20; ++pass) {
    p.hub.wait(5ms);
    p.hub.deliver();
  }
  EXPECT_TRUE(got.messages.empty());
  RawClient next(p.b->address());
  ASSERT_TRUE(next.connected());
  ASSERT_TRUE(next.write(frame_of(bytes_of("whole"))));
  ASSERT_TRUE(pump(p.hub, [&] { return !got.messages.empty(); }));
  ASSERT_EQ(got.messages.size(), 1u);
  EXPECT_EQ(got.messages[0].payload, bytes_of("whole"));
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

TEST(Live, CrashedTcpNodeRunsNoReadableFrame) {
  // A crash while frames for the node are readable on its socket: its
  // transport closes the socket unread, so no handler runs on the node
  // afterwards — the TCP twin of
  // EngineTransport.InFlightFrameToCrashedEndpointIsDiscarded.
  poly::shape::RingShape shape(8, 1.0);
  const AsyncConfig cfg = fast_config();
  poly::util::Arena arena;
  poly::net::AsyncScratch scratch;
  scratch.bind(arena, cfg);
  TcpHub hub;
  poly::net::AsyncNode node(
      0, shape.space_ptr(), hub.make_endpoint(0), shape.generate()[0], cfg,
      /*seed=*/5, [] { return std::chrono::steady_clock::time_point{}; },
      arena, scratch);
  auto peer = hub.make_endpoint(1);
  // An RPS response carrying one new peer grows the node's view by one.
  auto rps_resp = [](std::uint64_t id) {
    return poly::net::encode_rps(Header{MsgType::kRpsShuffleResp, 1, {}},
                                 {{id, {}, 0, Point(0.0), 1}});
  };
  // Control: a frame to an alive node runs its handler.
  ASSERT_TRUE(peer->send(0, rps_resp(2)));
  ASSERT_TRUE(pump(hub, [&] { return node.rps_view_size() == 1; }));

  for (std::uint64_t id = 3; id < 6; ++id)
    ASSERT_TRUE(peer->send(0, rps_resp(id)));
  // The only socket with anything to report: the node's connection from
  // the peer, holding the three frames.
  ASSERT_EQ(hub.wait(10s), 1u);
  node.crash();
  EXPECT_EQ(hub.deliver(), 0u);
  EXPECT_EQ(hub.wait(10ms), 0u);
  EXPECT_EQ(node.rps_view_size(), 1u);
}

// ---- a recovered peer, over both transports --------------------------------------

/// True when `node`'s T-Man view holds `peer` with a gossiped descriptor.
bool knows(const poly::net::AsyncNode& node, poly::net::LiveNodeId peer) {
  struct Probe {
    poly::net::LiveNodeId peer;
    bool found = false;
  } probe{peer};
  node.for_each_view_member(
      [](void* ctx, poly::net::LiveNodeId id, const Point&,
         std::uint64_t version) {
        auto& p = *static_cast<Probe*>(ctx);
        p.found = p.found || (id == p.peer && version > 0);
      },
      &probe);
  return probe.found;
}

/// Node A (0) learns of node 1 — a bare endpoint, B — from B's T-Man
/// request, then sends to B from its own tick.  B crashes and recovers
/// under a fresh endpoint; A's next tick sends to B again, and that send
/// must reach B's new life with B still in A's view.  `make(node)` builds
/// an endpoint, `pump(done)` moves frames until done() or a deadline.
template <typename Make, typename Pump>
void expect_send_reaches_recovered_peer(Make make, Pump pump) {
  poly::shape::RingShape shape(2, 1.0);
  const auto points = shape.generate();
  const AsyncConfig cfg = fast_config();
  poly::util::Arena arena;
  poly::net::AsyncScratch scratch;
  scratch.bind(arena, cfg);
  poly::net::AsyncNode a(
      0, shape.space_ptr(), make(0), points[0], cfg, /*seed=*/1,
      [] { return std::chrono::steady_clock::time_point{}; }, arena, scratch);
  int b_frames = 0;
  auto b = make(1);
  b->set_handler([&](Message&) { ++b_frames; });
  ASSERT_TRUE(b->send(0, poly::net::encode_tman(
                             Header{MsgType::kTmanReq, 1, {}},
                             {{1, {}, points[1].pos, 1}})));
  ASSERT_TRUE(pump([&] { return knows(a, 1) && b_frames == 1; }));
  a.tick();  // a T-Man request and a migration request, both to B
  ASSERT_TRUE(pump([&] { return b_frames == 3; }));

  b->shutdown();  // B crashes...
  b = make(1);    // ...and recovers
  b_frames = 0;
  b->set_handler([&](Message&) { ++b_frames; });
  a.tick();
  EXPECT_TRUE(pump([&] { return b_frames > 0; }));
  EXPECT_TRUE(knows(a, 1));
}

TEST(RecoveredPeer, NextSendReachesTheNewLifeOverTheHub) {
  poly::engine::EventEngine engine(3);
  poly::engine::EngineHub hub(
      engine, poly::engine::LinkModel(poly::engine::SimTime{2ms},
                                      poly::engine::SimTime{2ms}));
  expect_send_reaches_recovered_peer(
      [&](poly::net::LiveNodeId node) { return hub.make_endpoint(node); },
      [&](auto done) {
        for (int ms = 0; ms < 20 && !done(); ++ms)
          engine.run_until(engine.now() + poly::engine::SimTime{1ms});
        return done();
      });
}

TEST(RecoveredPeer, NextSendReachesTheNewLifeOverTcp) {
  TcpHub hub;
  expect_send_reaches_recovered_peer(
      [&](poly::net::LiveNodeId node) { return hub.make_endpoint(node); },
      [&](auto done) { return pump(hub, done); });
}

/// The process's thread count, from /proc/self/status.
int threads_now() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  return -1;
}

/// The process's open descriptors, from /proc/self/fd.
std::size_t open_fds() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd"))
    ++n;
  return n;
}

TEST(Live, TcpFleetRunsOnOneThread) {
  const int before = threads_now();
  ASSERT_GT(before, 0);
  for (const std::size_t n : {8u, 24u}) {
    poly::shape::RingShape shape(n, 1.0);
    EventCluster fleet(shape.space_ptr(), shape.generate(),
                       live_config(Drive::kWallClockTcp), 19);
    for (int r = 0; r < 1500 * kTimeScale && !all_views_learned(fleet); ++r)
      fleet.run_rounds(1);
    ASSERT_TRUE(all_views_learned(fleet)) << n << " nodes";
    EXPECT_EQ(threads_now(), before) << n << " nodes";
  }
}

TEST(Live, TcpFleetReleasesEveryDescriptor) {
  const std::size_t before = open_fds();
  {
    poly::shape::RingShape shape(16, 1.0);
    EventCluster fleet(shape.space_ptr(), shape.generate(),
                       live_config(Drive::kWallClockTcp), 23);
    fleet.run_rounds(10);
    EXPECT_GT(open_fds(), before + 16);  // listen sockets and connections
    EXPECT_EQ(fleet.crash_region(
                  [&](const Point& p) { return shape.in_failure_half(p); }),
              8u);
    fleet.run_rounds(10);
    EXPECT_EQ(fleet.recover_all(), 8u);
    fleet.run_rounds(10);
  }
  EXPECT_EQ(open_fds(), before);
}

}  // namespace
