// Arena-backed view storage: units, cap enforcement, and the zero-alloc
// steady-state guarantee.
//
// Three layers of defense for the per-node memory rewrite:
//   1. units for util::ArenaVec and net::GhostTable (growth, order,
//      slot recycling);
//   2. protocol-level cap enforcement — a node fed oversized or
//      duplicate-flooded gossip frames keeps its views at their
//      config caps and its arena stable;
//   3. the headline property: a steady-state fleet performs *zero* heap
//      allocations per round, proven by counting every operator new in
//      this binary;
//   4. identity by id: nodes send every name slot of a frame empty, and a
//      fleet looks up no name through crash and recovery.
//
// The allocation counter overrides global operator new/delete, so this
// test must stay in its own binary (one gtest binary per tests/*.cpp
// file, which the build already guarantees).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <new>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine/engine_transport.hpp"
#include "engine/event_cluster.hpp"
#include "engine/event_engine.hpp"
#include "engine/link_model.hpp"
#include "net/messages.hpp"
#include "net/runtime.hpp"
#include "net/view_storage.hpp"
#include "shape/grid_torus.hpp"
#include "util/arena.hpp"

// ---- counting allocator ------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};

void* counted_alloc(std::size_t n, std::size_t align) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  void* p = align > alignof(std::max_align_t)
                ? std::aligned_alloc(align, (n + align - 1) / align * align)
                : std::malloc(n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n, 1); }
void* operator new[](std::size_t n) { return counted_alloc(n, 1); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace poly;
using namespace std::chrono_literals;

// ---- ArenaVec ---------------------------------------------------------------

TEST(ArenaVec, PushEraseResizeWithinCap) {
  util::Arena arena(1024);
  util::ArenaVec<int> v;
  v.bind(arena, 8);
  const std::size_t used_after_bind = arena.bytes_used();
  for (int i = 0; i < 8; ++i) v.push_back(i);
  EXPECT_EQ(v.size(), 8u);
  EXPECT_EQ(arena.bytes_used(), used_after_bind);  // no growth within cap

  v.erase(2);  // order-preserving shift
  ASSERT_EQ(v.size(), 7u);
  EXPECT_EQ(v[1], 1);
  EXPECT_EQ(v[2], 3);
  EXPECT_EQ(v[6], 7);

  v.resize(10);  // grows past cap: new elements value-initialized
  EXPECT_EQ(v[7], 0);
  EXPECT_EQ(v[9], 0);
  EXPECT_GT(arena.bytes_used(), used_after_bind);
}

TEST(ArenaVec, AssignCopiesWithoutSharingStorage) {
  util::Arena arena(1024);
  util::ArenaVec<int> a, b;
  a.bind(arena, 4);
  b.bind(arena, 4);
  for (int i = 0; i < 4; ++i) a.push_back(i * 10);
  b.assign(a);
  b[0] = 99;
  EXPECT_EQ(a[0], 0);  // a's storage untouched
  EXPECT_EQ(b.size(), 4u);
}

// ---- GhostTable -------------------------------------------------------------

TEST(GhostTable, KeepsAscendingOrderAndRecyclesCapacity) {
  util::Arena arena(std::size_t{1} << 16);
  net::GhostTable t;
  t.bind(arena, 2);

  // Out-of-order inserts land sorted.
  for (net::LiveNodeId id : {50, 10, 30, 20, 40}) {
    auto& slot = t.find_or_insert(id);
    slot.points.assign(8, space::DataPoint{});
  }
  ASSERT_EQ(t.size(), 5u);
  for (std::size_t i = 1; i < t.size(); ++i)
    EXPECT_LT(t[i - 1].origin, t[i].origin);

  // find_or_insert on a present id returns the same slot, no growth.
  const std::size_t heap_before = t.heap_bytes();
  EXPECT_EQ(t.find_or_insert(30).origin, 30u);
  EXPECT_EQ(t.size(), 5u);

  // Erase + reinsert: the retired slot's PointSet capacity is recycled,
  // so the table's heap footprint does not grow.
  t.erase(2);  // origin 30
  ASSERT_EQ(t.size(), 4u);
  auto& fresh = t.find_or_insert(35);
  EXPECT_EQ(fresh.origin, 35u);
  EXPECT_GE(fresh.points.capacity(), 8u);  // inherited from retired slot 30
  EXPECT_EQ(t.heap_bytes(), heap_before);
}

// ---- cap enforcement under hostile gossip -----------------------------------

/// A one-node fixture over an EngineHub, plus a raw attacker endpoint
/// (node kAttacker) that can deliver arbitrary crafted frames to the node.
struct HostileRig {
  static constexpr net::LiveNodeId kAttacker = 999;

  engine::EventEngine engine{7};
  engine::EngineHub hub{engine, engine::LinkModel(engine::SimTime{2ms},
                                                  engine::SimTime{2ms})};
  shape::GridTorusShape shape{4, 4};
  net::AsyncConfig cfg;
  util::Arena arena;
  net::AsyncScratch scratch;
  std::unique_ptr<net::AsyncNode> node;
  std::unique_ptr<engine::EngineTransport> attacker;

  HostileRig() {
    auto points = shape.generate();
    scratch.bind(arena, cfg);
    node = std::make_unique<net::AsyncNode>(
        net::LiveNodeId{1}, shape.space_ptr(), hub.make_endpoint(1),
        points[0], cfg, /*seed=*/3, [this] { return engine.clock(); }, arena,
        scratch);
    attacker = hub.make_endpoint(kAttacker);
    attacker->set_handler([](net::Message&) {});
  }

  void deliver(std::vector<std::uint8_t> frame) {
    attacker->send(1, std::move(frame));
    engine.run_until(engine.now() +
                     std::chrono::duration_cast<engine::SimTime>(10ms));
  }
};

TEST(CappedViews, OversizedRpsFrameCannotGrowView) {
  HostileRig rig;
  // 50x the view cap of distinct peers in one frame.
  std::vector<net::WirePeer> peers;
  for (std::uint64_t i = 0; i < 50 * rig.cfg.rps_view; ++i)
    peers.push_back({100 + i, "node-" + std::to_string(100 + i),
                     static_cast<std::uint32_t>(i % 5), {}, 0});
  rig.deliver(net::encode_rps(
      net::Header{net::MsgType::kRpsShuffleResp, 999, "attacker"}, peers));
  EXPECT_LE(rig.node->rps_view_size(), rig.cfg.rps_view);
  EXPECT_GT(rig.node->rps_view_size(), 0u);
}

TEST(CappedViews, OversizedTmanFrameCannotGrowView) {
  HostileRig rig;
  std::vector<net::WireDescriptor> descs;
  for (std::uint64_t i = 0; i < 50 * rig.cfg.tman_view; ++i)
    descs.push_back({200 + i, "node-" + std::to_string(200 + i),
                     rig.shape.generate()[i % 16].pos, 1});
  rig.deliver(net::encode_tman(
      net::Header{net::MsgType::kTmanResp, 999, "attacker"}, descs));
  EXPECT_LE(rig.node->tman_view_size(), rig.cfg.tman_view);
  EXPECT_GT(rig.node->tman_view_size(), 0u);
}

TEST(CappedViews, HugeTmanFrameIsCutBeforeTheMerge) {
  // Merging m distinct ids costs O(m · (view + m)), so a frame longer than
  // the view's physical cap is counted and only that many descriptors are
  // merged.  Here the descriptors past the cut sit on the node itself and
  // would outrank every earlier one: none may reach the view.
  HostileRig rig;
  const std::size_t phys = net::tman_phys_cap(rig.cfg);
  const auto points = rig.shape.generate();
  constexpr std::uint64_t kFirst = 1000;
  std::vector<net::WireDescriptor> descs;
  for (std::uint64_t i = 0; i < (std::uint64_t{1} << 16); ++i)
    descs.push_back({kFirst + i, "node-" + std::to_string(kFirst + i),
                     i < phys ? points[10].pos : points[0].pos, 1});
  rig.deliver(net::encode_tman(
      net::Header{net::MsgType::kTmanResp, 999, "attacker"}, descs));
  EXPECT_EQ(rig.node->frames_overlong(), 1u);
  EXPECT_EQ(rig.node->frames_rejected(), 0u);
  EXPECT_EQ(rig.node->tman_view_size(), rig.cfg.tman_view);
  std::vector<net::LiveNodeId> ids;
  rig.node->for_each_view_member(
      [](void* ctx, net::LiveNodeId id, const space::Point&, std::uint64_t) {
        static_cast<std::vector<net::LiveNodeId>*>(ctx)->push_back(id);
      },
      &ids);
  for (net::LiveNodeId id : ids) EXPECT_LT(id, kFirst + phys);
}

TEST(CappedViews, DuplicateIdFloodIsIdempotent) {
  HostileRig rig;
  // The same id 500 times with rising versions: must occupy one slot.
  std::vector<net::WireDescriptor> descs;
  for (std::uint64_t i = 0; i < 500; ++i)
    descs.push_back({777, "node-777", rig.shape.generate()[0].pos, i});
  rig.deliver(net::encode_tman(
      net::Header{net::MsgType::kTmanReq, 777, "node-777"}, descs));
  EXPECT_LE(rig.node->tman_view_size(), rig.cfg.tman_view);
}

TEST(CappedViews, OverlongAddressIsRejectedAtDecode) {
  // Nodes ignore the wire's address slots, but the codec still bounds
  // them (kMaxAddressLength characters), so a frame's decode work stays
  // bounded: a longer address rejects the whole frame.
  HostileRig rig;
  const std::string overlong(30, 'x');
  ASSERT_GT(overlong.size(), net::kMaxAddressLength);
  rig.deliver(net::encode_tman(
      net::Header{net::MsgType::kTmanReq, 777, "attacker"},
      {{778, overlong, rig.shape.generate()[1].pos, 1}}));
  EXPECT_EQ(rig.node->tman_view_size(), 0u);
  EXPECT_EQ(rig.node->frames_rejected(), 1u);
}

// ---- arena stability under churn --------------------------------------------

TEST(ArenaStability, NoArenaGrowthInSteadyStateAfterChurn) {
  shape::GridTorusShape shape(8, 8);
  engine::EventClusterConfig cfg;
  engine::EventCluster fleet(shape.space_ptr(), shape.generate(), cfg,
                             /*seed=*/11);
  fleet.run_rounds(20);
  fleet.crash_random(12);
  fleet.run_rounds(10);
  for (std::size_t i = 0; i < 6; ++i) fleet.inject(shape.generate()[i].pos);
  fleet.run_rounds(20);

  // All caps are config-derived and every injected node is already bound:
  // further steady rounds must not touch the arena at all.
  const auto before = fleet.memory_breakdown();
  fleet.run_rounds(30);
  const auto after = fleet.memory_breakdown();
  EXPECT_EQ(after.arena_used, before.arena_used);
  EXPECT_EQ(after.arena_reserved, before.arena_reserved);
  EXPECT_EQ(after.node_objects, before.node_objects);
}

// ---- the zero-allocation steady state ---------------------------------------

// A guest-less fleet (nodes joined without data points, as after a
// catastrophe) exercises the full control plane — RPS shuffles, T-Man
// exchanges, backup heartbeats, recovery scans, sends by node id —
// with an empty data plane, which is exactly the surface the arena
// rewrite promises is allocation-free.  (The data plane — migration
// splits, guest unions — allocates by design and is out of scope; see
// docs/ARCHITECTURE.md.)
TEST(ZeroAlloc, SteadyStateControlPlaneMakesNoHeapAllocations) {
  constexpr std::size_t kNodes = 48;
  constexpr std::size_t kWarmupRounds = 40;
  constexpr std::size_t kMeasuredRounds = 20;

  engine::EventEngine engine(5);
  engine::EngineHub hub(
      engine, engine::LinkModel(engine::SimTime{2ms}, engine::SimTime{2ms}));
  shape::GridTorusShape shape(8, 6);
  util::Arena arena(std::size_t{1} << 20);
  net::AsyncConfig cfg;
  net::AsyncScratch scratch;
  scratch.bind(arena, cfg);

  std::vector<std::unique_ptr<net::AsyncNode>> nodes;
  for (std::size_t i = 0; i < kNodes; ++i) {
    nodes.push_back(std::make_unique<net::AsyncNode>(
        static_cast<net::LiveNodeId>(i), shape.space_ptr(),
        hub.make_endpoint(i), std::nullopt, cfg,
        /*seed=*/1000 + i, [&engine] { return engine.clock(); }, arena,
        scratch));
  }
  util::Rng boot(99);
  for (std::size_t i = 0; i < kNodes; ++i) {
    std::vector<net::LiveNodeId> seeds;
    for (std::size_t j : boot.sample_indices(kNodes, cfg.rps_view))
      if (j != i) seeds.push_back(j);
    nodes[i]->bootstrap(seeds);
  }

  // Self-rescheduling engine ticks with random phase offsets, exactly as
  // EventCluster drives its fleet: desynchronized ticks spread each
  // round's frames over the whole period (a synchronized drive would pile
  // every frame of a round into the same delivery windows — a load shape
  // no real fleet has).
  const auto period = std::chrono::duration_cast<engine::SimTime>(cfg.tick);
  struct TickCtx {
    std::vector<std::unique_ptr<net::AsyncNode>>* nodes;
    engine::EventEngine* engine;
    engine::SimTime period;
  } ctx{&nodes, &engine, period};
  struct Tick {
    TickCtx* ctx;
    std::size_t idx;
    void operator()() {
      (*ctx->nodes)[idx]->tick();
      ctx->engine->schedule_after(ctx->period, Tick{ctx, idx});
    }
  };
  for (std::size_t i = 0; i < kNodes; ++i)
    engine.schedule_after(
        engine::SimTime{boot.uniform_i64(0, period.count() - 1)},
        Tick{&ctx, i});

  auto run_rounds = [&](std::size_t rounds) {
    engine.run_until(engine.now() +
                     period * static_cast<std::int64_t>(rounds));
  };

  // Warmup: views fill, scratch/pool/wheel capacities reach their
  // high-water marks, ghost tables settle.
  run_rounds(kWarmupRounds);

  const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  run_rounds(kMeasuredRounds);
  const std::uint64_t during =
      g_alloc_count.load(std::memory_order_relaxed) - before;

  EXPECT_EQ(during, 0u)
      << during << " heap allocations in " << kMeasuredRounds
      << " steady-state rounds across " << kNodes << " guest-less nodes";

  // Sanity: the fleet actually gossiped during the window.
  EXPECT_GT(hub.frames_sent(), kNodes * kWarmupRounds);
  for (auto& n : nodes) EXPECT_GT(n->rps_view_size(), 0u);
}

// ---- identity by id ---------------------------------------------------------

TEST(Identity, NodesSendEveryNameSlotEmpty) {
  // Named frames introduce the attacker and two third parties to the
  // node; every frame the node then sends any of them — replies, and a
  // tick's RPS, T-Man, backup and migration frames — carries empty names.
  HostileRig rig;
  const auto points = rig.shape.generate();
  std::vector<net::MsgType> types;
  std::size_t named = 0;
  const net::MessageHandler inspect = [&](net::Message& m) {
    util::ByteReader r(m.payload);
    const net::Header h = net::decode_header(r);
    types.push_back(h.type);
    named += !h.sender_addr.empty();
    if (h.type == net::MsgType::kRpsShuffleReq ||
        h.type == net::MsgType::kRpsShuffleResp)
      for (const net::WirePeer& p : net::decode_peers(r))
        named += !p.addr.empty();
    if (h.type == net::MsgType::kTmanReq || h.type == net::MsgType::kTmanResp)
      for (const net::WireDescriptor& d : net::decode_descriptors(r))
        named += !d.addr.empty();
  };
  rig.attacker->set_handler(inspect);
  auto third_1000 = rig.hub.make_endpoint(1000);
  auto third_1001 = rig.hub.make_endpoint(1001);
  third_1000->set_handler(inspect);
  third_1001->set_handler(inspect);
  const net::LiveNodeId kAttacker = HostileRig::kAttacker;
  rig.deliver(net::encode_rps(
      net::Header{net::MsgType::kRpsShuffleReq, kAttacker, "attacker"},
      {{kAttacker, "attacker", 0, points[1].pos, 1},
       {1000, "node-1000", 0, points[2].pos, 1}}));
  rig.deliver(net::encode_tman(
      net::Header{net::MsgType::kTmanReq, kAttacker, "attacker"},
      {{kAttacker, "attacker", points[1].pos, 1},
       {1001, "node-1001", points[3].pos, 1}}));
  rig.node->tick();
  rig.engine.run_until(rig.engine.now() +
                       std::chrono::duration_cast<engine::SimTime>(10ms));
  for (const net::MsgType t :
       {net::MsgType::kRpsShuffleResp, net::MsgType::kTmanResp,
        net::MsgType::kRpsShuffleReq, net::MsgType::kTmanReq,
        net::MsgType::kBackupPush, net::MsgType::kMigrateReq})
    EXPECT_NE(std::find(types.begin(), types.end(), t), types.end())
        << "no frame of type " << static_cast<int>(t);
  EXPECT_EQ(named, 0u);
}

}  // namespace
