// Unit + integration tests for poly::tman — convergence to grid
// neighbourhoods, view invariants, position versioning/refresh, healing
// after failures (and the Fig. 1 limitation: healing ≠ reshaping).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "rps/rps.hpp"
#include "scenario/simulation.hpp"
#include "shape/grid_torus.hpp"
#include "sim/failure_detector.hpp"
#include "net/view_storage.hpp"
#include "sim/network.hpp"
#include "tman/ranked_view.hpp"
#include "tman/tman.hpp"
#include "util/arena.hpp"
#include "util/rng.hpp"
#include "vicinity/vicinity.hpp"

namespace {

using poly::rps::RpsProtocol;
using poly::shape::GridTorusShape;
using poly::sim::Network;
using poly::sim::NodeId;
using poly::sim::PerfectFailureDetector;
using poly::space::Point;
using poly::tman::TmanConfig;
using poly::tman::TmanProtocol;
using poly::util::Rng;

/// A small wired T-Man stack over a grid torus.
struct Stack {
  explicit Stack(unsigned nx, unsigned ny, std::uint64_t seed = 1,
                 TmanConfig cfg = {})
      : shape(nx, ny),
        net(seed),
        rps(net, {20, 10}),
        fd(net),
        tman(net, shape.space(), rps, fd, cfg) {
    for (const auto& dp : shape.generate()) {
      const NodeId id = net.add_node(dp.pos);
      rps.on_node_added(id);
      tman.on_node_added(id, dp.pos);
    }
    rps.bootstrap_all();
    tman.bootstrap_all();
  }

  void run_rounds(int n) {
    for (int i = 0; i < n; ++i) {
      rps.round();
      tman.round();
      net.advance_round();
    }
  }

  /// Mean distance to the 4 closest alive view neighbours (the paper's
  /// proximity, computed directly for test independence from metrics/).
  double proximity4() const {
    double sum = 0.0;
    std::size_t counted = 0;
    for (NodeId id = 0; id < net.num_total(); ++id) {
      if (!net.alive(id)) continue;
      const auto nbs = tman.closest_alive(id, 4);
      if (nbs.empty()) continue;
      double s = 0.0;
      for (NodeId nb : nbs)
        s += shape.space().distance(tman.position(id), tman.position(nb));
      sum += s / static_cast<double>(nbs.size());
      ++counted;
    }
    return sum / static_cast<double>(counted);
  }

  GridTorusShape shape;
  Network net;
  RpsProtocol rps;
  PerfectFailureDetector fd;
  TmanProtocol tman;
};

TEST(Tman, ConvergesToGridNeighbours) {
  Stack s(16, 16, 7);
  s.run_rounds(20);
  // On a unit grid each node's 4 closest nodes are at distance exactly 1.
  EXPECT_NEAR(s.proximity4(), 1.0, 0.05);
}

TEST(Tman, ConvergedViewsContainTheTrueNeighbours) {
  Stack s(12, 12, 11);
  s.run_rounds(25);
  // Node (x, y) has id y*12+x; its 4 grid neighbours wrap around.
  std::size_t perfect = 0;
  for (unsigned y = 0; y < 12; ++y) {
    for (unsigned x = 0; x < 12; ++x) {
      const NodeId id = y * 12 + x;
      const std::set<NodeId> expected{
          y * 12 + ((x + 1) % 12), y * 12 + ((x + 11) % 12),
          ((y + 1) % 12) * 12 + x, ((y + 11) % 12) * 12 + x};
      const auto nbs = s.tman.closest_alive(id, 4);
      std::set<NodeId> got(nbs.begin(), nbs.end());
      if (got == expected) ++perfect;
    }
  }
  // Allow a few stragglers; convergence is probabilistic (144 nodes total).
  EXPECT_GE(perfect, 134u);
}

/// The ranked-view invariant of `id`'s view: no self-entry, unique ids,
/// the exact strict (distance² to the node's current position, id) order
/// with no slack, and size and capacity within the view cap.
::testing::AssertionResult view_is_ranked(const TmanProtocol& tman,
                                          const poly::space::MetricSpace& space,
                                          NodeId id) {
  const auto& view = tman.view(id);
  const std::size_t cap = tman.config().view_cap;
  if (view.size() > cap || view.capacity() > cap)
    return ::testing::AssertionFailure()
           << "node " << id << ": size " << view.size() << ", capacity "
           << view.capacity() << " > view_cap " << cap;
  std::set<NodeId> seen;
  for (std::size_t i = 0; i < view.size(); ++i) {
    if (view[i].id == id || !seen.insert(view[i].id).second)
      return ::testing::AssertionFailure()
             << "node " << id << ": self or duplicate id " << view[i].id;
    if (i == 0) continue;
    const double prev = space.distance2(tman.position(id), view[i - 1].pos);
    const double cur = space.distance2(tman.position(id), view[i].pos);
    if (!(prev < cur || (prev == cur && view[i - 1].id < view[i].id)))
      return ::testing::AssertionFailure()
             << "node " << id << ": entries " << i - 1 << " and " << i
             << " out of (distance², id) order";
  }
  return ::testing::AssertionSuccess();
}

TEST(Tman, ViewInvariants) {
  // Polystyrene on: migration moves node positions every round, so views
  // are refreshed and re-ranked all the time; a 30-entry cap makes merges
  // truncate.  The run goes through a catastrophe and a re-injection.
  GridTorusShape shape(16, 10);
  poly::scenario::SimulationConfig cfg;
  cfg.seed = 13;
  cfg.tman.view_cap = 30;
  poly::scenario::Simulation sim(shape, cfg);
  const TmanProtocol& tman = sim.tman();
  const auto& space = sim.metric_space();
  Rng rng(13);

  auto all_ranked = [&](const char* when, std::size_t round) {
    for (NodeId id = 0; id < sim.network().num_total(); ++id)
      ASSERT_TRUE(view_is_ranked(tman, space, id))
          << "after " << when << " in round " << round;
  };
  auto version_sum = [&] {
    std::uint64_t sum = 0;
    for (NodeId id = 0; id < sim.network().num_total(); ++id)
      sum += tman.position_version(id);
    return sum;
  };
  std::size_t round = 0;
  std::size_t rounds_with_moves = 0;
  auto run = [&](std::size_t n) {
    for (std::size_t r = 0; r < n; ++r, ++round) {
      sim.rps().round();
      sim.topology().round();
      ASSERT_NO_FATAL_FAILURE(all_ranked("T-Man", round));
      const std::uint64_t before = version_sum();
      sim.polystyrene()->round();  // re-projection: set_position on movers
      if (version_sum() > before) ++rounds_with_moves;
      ASSERT_NO_FATAL_FAILURE(all_ranked("Polystyrene", round));
      sim.network().advance_round();
      // Explicit moves, checked one by one.
      const auto alive = sim.network().alive_ids();
      for (int i = 0; i < 3; ++i) {
        const NodeId id = alive[rng.index(alive.size())];
        const double x = rng.uniform_real(0.0, 16.0);
        sim.tman().set_position(id, Point(x, rng.uniform_real(0.0, 10.0)));
        ASSERT_NO_FATAL_FAILURE(all_ranked("set_position", round));
      }
    }
  };
  ASSERT_NO_FATAL_FAILURE(run(10));
  const std::size_t crashed = sim.crash_failure_half();
  ASSERT_NO_FATAL_FAILURE(run(10));
  sim.reinject(crashed);
  ASSERT_NO_FATAL_FAILURE(all_ranked("reinject", round));
  ASSERT_NO_FATAL_FAILURE(run(10));
  // Positions moved in every round but the first, where every node still
  // hosts just its own point.
  EXPECT_GE(rounds_with_moves, round - 1);
}

TEST(Tman, NoAliveViewHoldsASuspectedIdAfterARound) {
  // prune_suspected skips its scan while the detector's epoch stands
  // still; that is exact only if every T-Man round leaves each alive view
  // free of suspected ids.  Checked under perfect detection and under
  // detection three rounds late, through a catastrophe and a re-injection.
  for (const std::uint64_t delay : {0, 3}) {
    GridTorusShape shape(16, 10);
    poly::scenario::SimulationConfig cfg;
    cfg.seed = 17;
    cfg.fd_delay_rounds = delay;
    poly::scenario::Simulation sim(shape, cfg);
    const TmanProtocol& tman = sim.tman();
    const poly::sim::FailureDetector& fd = sim.failure_detector();
    const Network& net = sim.network();
    std::size_t round = 0, dead_unsuspected = 0;
    auto run = [&](std::size_t n) {
      for (std::size_t r = 0; r < n; ++r, ++round) {
        sim.rps().round();
        sim.topology().round();
        for (NodeId id = 0; id < net.num_total(); ++id) {
          if (!net.alive(id)) continue;
          for (const auto& d : tman.view(id)) {
            ASSERT_FALSE(fd.suspects(id, d.id))
                << "delay " << delay << ", round " << round << ": node "
                << id << " holds suspected " << d.id;
            dead_unsuspected += !net.alive(d.id);
          }
        }
        sim.polystyrene()->round();
        sim.network().advance_round();
      }
    };
    ASSERT_NO_FATAL_FAILURE(run(10));
    const std::size_t crashed = sim.crash_failure_half();
    ASSERT_NO_FATAL_FAILURE(run(10));
    sim.reinject(crashed);
    ASSERT_NO_FATAL_FAILURE(run(10));
    // Late detection leaves crashed nodes in views for a few rounds, and
    // the check above holds through them.
    if (delay > 0) {
      EXPECT_GT(dead_unsuspected, 0u);
    }
  }
}

TEST(Tman, SetPositionBumpsVersionAndReRanks) {
  Stack s(8, 8, 17);
  s.run_rounds(10);
  const auto v0 = s.tman.position_version(0);
  s.tman.set_position(0, Point(4.0, 4.0));
  EXPECT_EQ(s.tman.position_version(0), v0 + 1);
  EXPECT_EQ(s.tman.position(0), Point(4.0, 4.0));
  // Setting the identical position must not bump the version.
  s.tman.set_position(0, Point(4.0, 4.0));
  EXPECT_EQ(s.tman.position_version(0), v0 + 1);
}

TEST(Tman, PositionRefreshPropagatesMoves) {
  Stack s(8, 8, 19);
  s.run_rounds(15);
  // Move node 0 to the far corner; with refresh_positions, every view entry
  // referencing node 0 must carry the new position within one round.
  s.tman.set_position(0, Point(4.0, 4.0));
  s.run_rounds(1);
  for (NodeId id = 1; id < s.net.num_total(); ++id) {
    for (const auto& d : s.tman.view(id)) {
      if (d.id == 0) {
        EXPECT_EQ(d.pos, Point(4.0, 4.0));
      }
    }
  }
}

TEST(Tman, StaleViewsWithoutRefresh) {
  TmanConfig cfg;
  cfg.refresh_positions = false;
  Stack s(8, 8, 19, cfg);
  s.run_rounds(15);
  s.tman.set_position(0, Point(4.0, 4.0));
  // Without refresh, at least some views still carry the old position right
  // after the move (gossip hasn't reached them yet).
  std::size_t stale = 0;
  for (NodeId id = 1; id < s.net.num_total(); ++id)
    for (const auto& d : s.tman.view(id))
      if (d.id == 0 && d.pos != Point(4.0, 4.0)) ++stale;
  EXPECT_GT(stale, 0u);
}

TEST(Tman, HealsAfterRegionFailureButKeepsShapeLoss) {
  // Fig. 1: T-Man reconnects boundary nodes to surviving neighbours, but
  // the crashed half stays empty — healing is local, the shape is lost.
  Stack s(16, 8, 23);
  s.run_rounds(20);
  s.net.crash_region([&](const Point& p) {
    return s.shape.in_failure_half(p);
  });
  s.run_rounds(10);

  // Healed: every survivor has alive neighbours again, and proximity is
  // small (boundary nodes link across the gap).
  for (NodeId id : s.net.alive_ids())
    EXPECT_FALSE(s.tman.closest_alive(id, 4).empty());
  EXPECT_LT(s.proximity4(), 2.5);

  // Shape lost: no survivor ever moves into the crashed half (T-Man nodes
  // never change position).
  for (NodeId id : s.net.alive_ids())
    EXPECT_FALSE(s.shape.in_failure_half(s.tman.position(id)));
}

TEST(Tman, ClosestAliveFiltersCrashedNodes) {
  Stack s(10, 10, 29);
  s.run_rounds(15);
  // Crash node 1 (a grid neighbour of node 0).
  s.net.crash(1);
  const auto nbs = s.tman.closest_alive(0, 4);
  for (NodeId nb : nbs) EXPECT_TRUE(s.net.alive(nb));
}

TEST(Tman, TrafficBilledPerDescriptor) {
  Stack s(6, 6, 31);
  s.run_rounds(1);
  const double tman_units =
      s.net.traffic().total(0, poly::sim::Channel::kTman);
  // 36 active exchanges, each ≤ 2 buffers of ≤ 20 descriptors × 3 units;
  // plus refresh costs (zero in round 0, versions unchanged).
  EXPECT_GT(tman_units, 0.0);
  EXPECT_LE(tman_units, 36.0 * 2 * 20 * 3);
}

TEST(Tman, BootstrapNodeJoinsExistingOverlay) {
  Stack s(8, 8, 37);
  s.run_rounds(15);
  // Inject a fresh node between grid points.
  const NodeId id = s.net.add_node(Point(3.5, 3.5));
  s.rps.on_node_added(id);
  s.rps.bootstrap_node(id);
  s.tman.on_node_added(id, Point(3.5, 3.5));
  s.tman.bootstrap_node(id);
  s.run_rounds(10);
  const auto nbs = s.tman.closest_alive(id, 4);
  ASSERT_EQ(nbs.size(), 4u);
  // Its neighbours must be the surrounding grid nodes (distance ≈ 0.707).
  for (NodeId nb : nbs)
    EXPECT_LT(s.shape.space().distance(Point(3.5, 3.5), s.tman.position(nb)),
              1.0);
}

TEST(Tman, DeterministicGivenSeed) {
  auto run = [](std::uint64_t seed) {
    Stack s(10, 10, seed);
    s.run_rounds(10);
    std::vector<NodeId> flat;
    for (NodeId id = 0; id < s.net.num_total(); ++id)
      for (const auto& d : s.tman.view(id)) flat.push_back(d.id);
    return flat;
  };
  EXPECT_EQ(run(99), run(99));
  EXPECT_NE(run(99), run(100));
}

// ---- ranked-view operations vs the full-sort reference ----------------------
//
// The ranked-view core serves three entry types: sync T-Man's Descriptor
// (32-bit ids, no age), Vicinity's VicinityEntry (32-bit ids, an age) and
// the fleet's TmanEntry (64-bit ids, an age and an inline name, kept in an
// arena view).  Each operation is checked against a plain full-sort
// reference for each of them.

using poly::net::TmanEntry;
using poly::tman::Descriptor;
using poly::tman::IdOf;
using poly::tman::RankScratch;
using poly::vicinity::VicinityEntry;

template <typename Entry>
constexpr bool kHasAge = requires(Entry e) { e.age; };

/// The (distance² to `target`, id) order — the reference ranking.
template <typename Entry>
bool ranks_before(const Entry& a, const Entry& b, const Point& target,
                  const poly::space::MetricSpace& space) {
  const double ka = space.distance2(target, a.pos);
  const double kb = space.distance2(target, b.pos);
  if (ka != kb) return ka < kb;
  return a.id < b.id;
}

/// Full (distance², id) sort around `owner_pos`.
template <typename Entry>
void reference_sort(std::vector<Entry>& view, const Point& owner_pos,
                    const poly::space::MetricSpace& space) {
  std::sort(view.begin(), view.end(), [&](const Entry& a, const Entry& b) {
    return ranks_before(a, b, owner_pos, space);
  });
}

/// The merge as T-Man did it before views were kept ranked: apply newer
/// versions (an entry keeps its age) and append new ids (with their own
/// age), then let the age rule set the age, scanning the growing view so
/// duplicates inside `incoming` meet the copy already taken; then fully
/// re-sort and truncate.
template <typename Entry, typename AgeRule>
std::vector<Entry> reference_merge(std::vector<Entry> view,
                                   const std::vector<Entry>& incoming,
                                   IdOf<Entry> owner, const Point& owner_pos,
                                   const poly::space::MetricSpace& space,
                                   std::size_t cap, AgeRule age_rule) {
  for (const auto& d : incoming) {
    if (d.id == owner) continue;
    auto it = std::find_if(view.begin(), view.end(),
                           [&](const Entry& v) { return v.id == d.id; });
    if (it == view.end()) {
      view.push_back(d);
      age_rule(view.back(), d);
      continue;
    }
    if (d.version > it->version) {
      Entry newer = d;
      if constexpr (kHasAge<Entry>) newer.age = it->age;
      *it = newer;
    }
    age_rule(*it, d);
  }
  reference_sort(view, owner_pos, space);
  if (view.size() > cap) view.resize(cap);
  return view;
}

/// Bit-for-bit equality: ids, versions, ages, dims and coordinate bit
/// patterns.
template <typename Entry>
::testing::AssertionResult same_bits(const std::vector<Entry>& got,
                                     const std::vector<Entry>& want) {
  if (got.size() != want.size())
    return ::testing::AssertionFailure()
           << "size " << got.size() << " != " << want.size();
  for (std::size_t i = 0; i < got.size(); ++i) {
    const Entry& g = got[i];
    const Entry& w = want[i];
    bool same =
        g.id == w.id && g.version == w.version && g.pos.dim == w.pos.dim;
    for (int c = 0; c < 3; ++c)
      same = same && std::bit_cast<std::uint64_t>(g.pos.c[c]) ==
                         std::bit_cast<std::uint64_t>(w.pos.c[c]);
    if constexpr (kHasAge<Entry>) same = same && g.age == w.age;
    if (!same)
      return ::testing::AssertionFailure()
             << "entry " << i << ": id " << g.id << " v" << g.version << " "
             << g.pos.str() << " != id " << w.id << " v" << w.version << " "
             << w.pos.str();
  }
  return ::testing::AssertionSuccess();
}

/// Random entries over a small id pool on a 6x4 torus: grid positions
/// (many equal distances with different ids) or real ones, versions 0..4,
/// ages 0..7.  Pool index k maps to id k, or to 2^40 + 3k for 64-bit ids,
/// so their high bits take part in the comparisons.
template <typename Entry>
struct ViewFuzzer {
  using Id = IdOf<Entry>;

  explicit ViewFuzzer(std::uint64_t seed) : rng(seed) {}

  Id id(std::size_t k) const {
    if constexpr (sizeof(Id) > 4)
      return (Id{1} << 40) + 3 * static_cast<Id>(k);
    else
      return static_cast<Id>(k);
  }

  Point random_pos() {
    if (rng.bernoulli(0.7))
      return Point(static_cast<double>(rng.index(6)),
                   static_cast<double>(rng.index(4)));
    return Point(rng.uniform_real(0.0, 6.0), rng.uniform_real(0.0, 4.0));
  }

  Entry random_entry(std::size_t pool) {
    Entry e{};
    e.id = id(rng.index(pool));
    e.pos = random_pos();
    e.version = rng.index(5);
    if constexpr (kHasAge<Entry>)
      e.age = static_cast<std::uint32_t>(rng.index(8));
    return e;
  }

  /// A ranked view of `owner`: unique ids, never the owner, at most
  /// `size`, with no spare capacity (as T-Man grows its views).
  std::vector<Entry> ranked_view(Id owner, const Point& owner_pos,
                                 std::size_t pool, std::size_t size) {
    std::vector<Entry> view;
    for (std::size_t i = 0; i < size; ++i) {
      Entry e = random_entry(pool);
      if (e.id == owner ||
          std::any_of(view.begin(), view.end(),
                      [&](const Entry& v) { return v.id == e.id; }))
        continue;
      view.push_back(e);
    }
    reference_sort(view, owner_pos, space);
    return std::vector<Entry>(view.begin(), view.end());
  }

  Rng rng;
  GridTorusShape shape{6, 4};
  const poly::space::MetricSpace& space = shape.space();
};

/// A view container under test: `std::vector` (sync) or an arena view
/// bound at a fixed capacity that no operation may grow (fleet).
template <typename View>
struct ViewUnderTest {
  View view;
  /// A new vector each load: no spare capacity, as T-Man grows its views,
  /// so every merge that adds entries must grow it exactly.
  void load(const auto& entries) {
    view = View(entries.begin(), entries.end());
  }
  auto entries() const { return std::vector(view.begin(), view.end()); }
  /// Sync views grow exactly: never past the cap or their old capacity.
  bool capacity_ok(std::size_t cap, std::size_t before) const {
    return view.capacity() <= std::max(cap, before);
  }
};

template <typename Entry>
struct ViewUnderTest<poly::util::ArenaVec<Entry>> {
  static constexpr std::uint32_t kCap = 64;
  poly::util::Arena arena{std::size_t{1} << 14};
  poly::util::ArenaVec<Entry> view;
  ViewUnderTest() { view.bind(arena, kCap); }
  void load(const std::vector<Entry>& entries) {
    view.clear();
    for (const Entry& e : entries) view.push_back(e);
  }
  std::vector<Entry> entries() const {
    return std::vector<Entry>(view.begin(), view.end());
  }
  bool capacity_ok(std::size_t, std::size_t) const {
    return view.capacity() == kCap &&
           arena.bytes_used() == kCap * sizeof(Entry);
  }
};

/// 20,000 seeded merges of `View`s of `Entry`, each against
/// reference_merge, followed by a full re-rank against reference_sort.
/// `make_rule(fz, incoming)` draws the case's age rule.
template <typename View, typename Entry, typename MakeRule>
void fuzz_merge(std::uint64_t seed, MakeRule make_rule) {
  ViewFuzzer<Entry> fz(seed);
  RankScratch<Entry> scratch;
  ViewUnderTest<View> t;
  std::size_t truncated = 0, duplicated = 0, owner_seen = 0, empty = 0,
              over_cap = 0;
  for (int round = 0; round < 20000; ++round) {
    const std::size_t pool = 8 + fz.rng.index(40);
    const auto owner = fz.id(fz.rng.index(pool));
    const Point owner_pos = fz.random_pos();
    const std::size_t cap = 1 + fz.rng.index(30);
    // Mostly within the cap, as T-Man keeps it; sometimes empty, sometimes
    // above the cap (a fleet view after RPS injection; the merge must
    // truncate it too).
    std::size_t size = fz.rng.index(cap + 1);
    if (fz.rng.bernoulli(0.1)) size = 0;
    if (fz.rng.bernoulli(0.1)) size = cap + 1 + fz.rng.index(8);
    const std::vector<Entry> before =
        fz.ranked_view(owner, owner_pos, pool, size);
    if (before.size() > cap) ++over_cap;
    std::vector<Entry> incoming;
    const std::size_t m = fz.rng.index(25);
    for (std::size_t i = 0; i < m; ++i) {
      Entry d = fz.random_entry(pool);
      if (!before.empty() && fz.rng.bernoulli(0.4)) {
        // An id the view knows: older, equal or newer version, same or
        // moved position.
        const Entry& known = before[fz.rng.index(before.size())];
        d.id = known.id;
        if (fz.rng.bernoulli(0.5)) d.pos = known.pos;
      }
      if (!incoming.empty() && fz.rng.bernoulli(0.15)) {
        d.id = incoming[fz.rng.index(incoming.size())].id;  // duplicate
        ++duplicated;
      }
      if (fz.rng.bernoulli(0.05)) {
        d.id = owner;
        ++owner_seen;
      }
      incoming.push_back(d);
    }
    if (before.empty()) ++empty;
    const auto rule = make_rule(fz, incoming);

    const auto want = reference_merge(before, incoming, owner, owner_pos,
                                      fz.space, cap, rule);
    if (want.size() == cap) ++truncated;
    t.load(before);
    const std::size_t capacity = t.view.capacity();
    poly::tman::merge_ranked(t.view, incoming, owner, owner_pos, fz.space, cap,
                             scratch, rule);
    ASSERT_TRUE(same_bits(t.entries(), want)) << "case " << round;
    ASSERT_TRUE(t.capacity_ok(cap, capacity)) << "case " << round;

    // The owner moves: full re-rank.
    const Point moved = fz.random_pos();
    auto want_ranked = want;
    reference_sort(want_ranked, moved, fz.space);
    poly::tman::rank_view(t.view, moved, fz.space, scratch);
    ASSERT_TRUE(same_bits(t.entries(), want_ranked)) << "case " << round;
    ASSERT_TRUE(t.capacity_ok(cap, capacity)) << "case " << round;
  }
  // The generator reached every corner it is meant to cover.
  EXPECT_GT(truncated, 1000u);
  EXPECT_GT(duplicated, 1000u);
  EXPECT_GT(owner_seen, 1000u);
  EXPECT_GT(empty, 1000u);
  EXPECT_GT(over_cap, 500u);
}

TEST(TmanRankedView, MergeMatchesFullSortReference) {
  // Sync T-Man: no ages.
  fuzz_merge<std::vector<Descriptor>, Descriptor>(
      2014, [](auto&, const auto&) { return poly::tman::NoAge{}; });
}

TEST(TmanRankedView, VicinityAgeRuleMergeMatchesFullSortReference) {
  // Only the exchange partner's entries are rejuvenated; the partner is
  // often in the frame, sometimes not.
  fuzz_merge<std::vector<VicinityEntry>, VicinityEntry>(
      2016, [](auto& fz, const std::vector<VicinityEntry>& incoming) {
        const NodeId from = !incoming.empty() && fz.rng.bernoulli(0.8)
                                ? incoming[fz.rng.index(incoming.size())].id
                                : fz.id(fz.rng.index(48));
        return [from](VicinityEntry& kept, const VicinityEntry& arriving) {
          if (arriving.id == from) kept.age = 0;
        };
      });
}

TEST(TmanRankedView, FleetAgeRuleMergeMatchesFullSortReference) {
  // The fleet keeps the younger age; 64-bit ids, names inline, arena view.
  fuzz_merge<poly::util::ArenaVec<TmanEntry>, TmanEntry>(
      2017, [](auto&, const auto&) {
        return [](TmanEntry& kept, const TmanEntry& arriving) {
          kept.age = std::min(kept.age, arriving.age);
        };
      });
}

TEST(TmanRankedView, RefreshAndReRankMatchFullSortReference) {
  ViewFuzzer<Descriptor> fz(2015);
  RankScratch<Descriptor> scratch;
  std::size_t refreshed = 0;
  for (int round = 0; round < 20000; ++round) {
    const std::size_t pool = 8 + fz.rng.index(40);
    const NodeId owner = fz.id(fz.rng.index(pool));
    const Point owner_pos = fz.random_pos();
    const std::size_t size = fz.rng.bernoulli(0.1) ? 0 : fz.rng.index(40);
    std::vector<Descriptor> view =
        fz.ranked_view(owner, owner_pos, pool, size);

    // Advertised positions/versions: some entries are behind them.
    std::vector<Point> positions(pool);
    std::vector<std::uint64_t> versions(pool, 0);
    for (NodeId id = 0; id < pool; ++id) {
      positions[id] = fz.random_pos();
      versions[id] = fz.rng.index(6);
    }
    std::vector<Descriptor> want = view;
    std::size_t want_updated = 0;
    for (auto& d : want) {
      if (versions[d.id] > d.version) {
        d.pos = positions[d.id];
        d.version = versions[d.id];
        ++want_updated;
      }
    }
    reference_sort(want, owner_pos, fz.space);
    const std::size_t capacity = view.capacity();
    const std::size_t updated = poly::tman::refresh_ranked(
        view, positions, versions, owner_pos, fz.space, scratch);
    ASSERT_EQ(updated, want_updated) << "case " << round;
    ASSERT_TRUE(same_bits(view, want)) << "case " << round;
    ASSERT_EQ(view.capacity(), capacity) << "case " << round;
    refreshed += updated;

    // The owner moves: full re-rank.
    const Point moved = fz.random_pos();
    reference_sort(want, moved, fz.space);
    poly::tman::rank_view(view, moved, fz.space, scratch);
    ASSERT_TRUE(same_bits(view, want)) << "case " << round;
    ASSERT_EQ(view.capacity(), capacity) << "case " << round;
  }
  EXPECT_GT(refreshed, 10000u);
}

/// The buffer as a plain full sort picks it: sort view ++ extra by
/// (distance² to the receiver, id, candidate index), keep the
/// msg + |extra| first, walk them, skip the receiver, the sender, taken ids
/// and rejected entries, stop at msg − 1.  Returns the taken candidates'
/// indices.
template <typename Entry, typename Forward>
std::vector<std::uint32_t> reference_pick(const std::vector<Entry>& cand,
                                          std::size_t n_extra,
                                          IdOf<Entry> receiver,
                                          const Point& receiver_pos,
                                          IdOf<Entry> sender,
                                          const poly::space::MetricSpace& space,
                                          std::size_t msg, Forward forward) {
  std::vector<std::uint32_t> order(cand.size());
  for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    if (ranks_before(cand[a], cand[b], receiver_pos, space)) return true;
    if (ranks_before(cand[b], cand[a], receiver_pos, space)) return false;
    return a < b;
  });
  if (order.size() > msg + n_extra) order.resize(msg + n_extra);
  std::vector<std::uint32_t> taken;
  for (std::uint32_t i : order) {
    if (taken.size() + 1 >= msg) break;
    const Entry& e = cand[i];
    if (e.id == receiver || e.id == sender || !forward(e) ||
        std::any_of(taken.begin(), taken.end(),
                    [&](std::uint32_t t) { return cand[t].id == e.id; }))
      continue;
    taken.push_back(i);
  }
  return taken;
}

struct PickCoverage {
  std::size_t with_extra = 0, rejected = 0, tied = 0, full = 0, short_of = 0,
              exited = 0;
};

/// 20,000 seeded buffer picks from `View`s of `Entry` plus extra
/// candidates, each against reference_pick.  An extra candidate may
/// repeat a view entry's id at the same position (sync T-Man's RPS
/// sample); the candidate index breaks such ties.  Half the cases pass the
/// sender's position, around which the view is ranked, and draw the
/// receiver near it, so the scan often stops early; those must pick the
/// same as without the position.
template <typename View, typename Entry, typename Forward>
PickCoverage fuzz_pick(std::uint64_t seed, Forward forward) {
  ViewFuzzer<Entry> fz(seed);
  RankScratch<Entry> scratch;
  ViewUnderTest<View> t;
  PickCoverage cov;
  for (int round = 0; round < 20000; ++round) {
    const std::size_t pool = 8 + fz.rng.index(40);
    const auto sender = fz.id(fz.rng.index(pool));
    const Point sender_pos = fz.random_pos();
    // Longer views where the scan may stop early give it room to.
    const bool ranked_around = fz.rng.bernoulli(0.5);
    const std::vector<Entry> view = fz.ranked_view(
        sender, sender_pos, pool, fz.rng.index(ranked_around ? 60 : 30));
    std::vector<Entry> extra;
    const std::size_t n_extra = fz.rng.bernoulli(0.3) ? 0 : fz.rng.index(8);
    for (std::size_t i = 0; i < n_extra; ++i) {
      Entry e = fz.random_entry(pool);
      if (!view.empty() && fz.rng.bernoulli(0.4)) {
        // A view member again, often at the same position.
        const Entry& known = view[fz.rng.index(view.size())];
        e.id = known.id;
        if (fz.rng.bernoulli(0.6)) e.pos = known.pos;
      }
      extra.push_back(e);
    }
    // The receiver is usually a view member, as a gossip partner is.
    const auto receiver = !view.empty() && fz.rng.bernoulli(0.8)
                              ? view[fz.rng.index(view.size())].id
                              : fz.id(fz.rng.index(pool));
    Point receiver_pos = fz.random_pos();
    if (ranked_around) {
      // At the sender, one grid step away (grid entries in line with both
      // then make the triangle inequality tight), or anywhere nearby.
      receiver_pos = sender_pos;
      const std::size_t near = fz.rng.index(3);
      if (near == 1)
        receiver_pos.c[fz.rng.index(2)] += fz.rng.bernoulli(0.5) ? 1.0 : -1.0;
      for (int c = 0; near == 2 && c < 2; ++c)
        receiver_pos.c[c] += fz.rng.uniform_real(-0.5, 0.5);
      receiver_pos = fz.space.normalize(receiver_pos);
    }
    const std::size_t msg = fz.rng.index(12);

    std::vector<Entry> cand = view;
    cand.insert(cand.end(), extra.begin(), extra.end());
    bool has_tie = false;
    for (std::size_t a = 0; a < cand.size(); ++a)
      for (std::size_t b = a + 1; b < cand.size(); ++b)
        has_tie = has_tie ||
                  (cand[a].id == cand[b].id &&
                   fz.space.distance2(receiver_pos, cand[a].pos) ==
                       fz.space.distance2(receiver_pos, cand[b].pos));
    const auto want = reference_pick(cand, extra.size(), receiver,
                                     receiver_pos, sender, fz.space, msg,
                                     forward);
    t.load(view);
    auto pick = [&](const Point* around) {
      const auto picked = poly::tman::pick_closest(
          t.view, std::span<const Entry>(extra), receiver, receiver_pos,
          sender, fz.space, msg, scratch, around, forward);
      return std::vector<std::uint32_t>(picked.begin(), picked.end());
    };
    const auto got = pick(ranked_around ? &sender_pos : nullptr);
    if (ranked_around) {
      cov.exited += scratch.view_scanned < view.size();
      EXPECT_EQ(got, pick(nullptr)) << "case " << round;
      EXPECT_EQ(scratch.view_scanned, msg > 1 ? view.size() : 0)
          << "case " << round;
    }
    EXPECT_EQ(got, want) << "case " << round;
    if (has_tie) {
      // The rule may reject one copy of a tied pair but not the other;
      // check what holds for any choice of copy, too.
      EXPECT_LE(got.size() + 1, std::max<std::size_t>(msg, 1))
          << "case " << round;
      for (std::size_t i = 0; i < got.size(); ++i) {
        const Entry& g = cand[got[i]];
        EXPECT_TRUE(g.id != receiver && g.id != sender && forward(g))
            << "case " << round;
        for (std::size_t j = 0; j < i; ++j) {
          EXPECT_NE(cand[got[j]].id, g.id) << "case " << round;
          EXPECT_FALSE(ranks_before(g, cand[got[j]], receiver_pos, fz.space))
              << "case " << round;
        }
      }
    }
    if (::testing::Test::HasFailure()) return cov;
    // A buffer left short while forwardable, untaken candidates remain:
    // the rule applies after the prefix cut, as in the fleet.
    std::size_t forwardable = 0;
    for (std::size_t i = 0; i < cand.size(); ++i) {
      const Entry& e = cand[i];
      const bool seen =
          std::any_of(cand.begin(), cand.begin() + i,
                      [&](const Entry& o) { return o.id == e.id; });
      forwardable += !seen && e.id != receiver && e.id != sender && forward(e);
    }
    cov.with_extra += !extra.empty();
    cov.tied += has_tie;
    cov.full += msg > 0 && got.size() + 1 == msg;
    cov.short_of += got.size() + 1 < msg && got.size() < forwardable;
    cov.rejected += static_cast<std::size_t>(
        std::count_if(cand.begin(), cand.end(),
                      [&](const Entry& e) { return !forward(e); }));
  }
  return cov;
}

TEST(TmanRankedView, PickMatchesFullSortReference) {
  // Sync T-Man's and Vicinity's rule: every entry may be forwarded.
  const auto all = fuzz_pick<std::vector<Descriptor>, Descriptor>(
      2018, poly::tman::ForwardAll{});
  EXPECT_GT(all.with_extra, 10000u);
  EXPECT_GT(all.tied, 1000u);
  EXPECT_GT(all.full, 2000u);
  EXPECT_GT(all.exited, 5000u);
  // A rule that rejects version-0 entries covers the 32-bit id width with
  // a real filter too.
  const auto filtered = fuzz_pick<std::vector<Descriptor>, Descriptor>(
      2019, [](const Descriptor& d) { return d.version != 0; });
  EXPECT_GT(filtered.rejected, 10000u);
  EXPECT_GT(filtered.short_of, 1000u);
  EXPECT_GT(filtered.exited, 5000u);
}

TEST(TmanRankedView, FleetForwardingRulePickMatchesFullSortReference) {
  // The fleet's rule: no version-0 placeholders, nothing at or past the
  // forwarding horizon.  64-bit ids, arena view.
  const auto cov = fuzz_pick<poly::util::ArenaVec<TmanEntry>, TmanEntry>(
      2020, [](const TmanEntry& e) { return e.version != 0 && e.age < 4; });
  EXPECT_GT(cov.with_extra, 10000u);
  EXPECT_GT(cov.rejected, 10000u);
  EXPECT_GT(cov.full, 1000u);
  EXPECT_GT(cov.short_of, 1000u);
  EXPECT_GT(cov.exited, 5000u);
}

TEST(Tman, ConfigValidation) {
  Network net(1);
  RpsProtocol rps(net, {});
  PerfectFailureDetector fd(net);
  GridTorusShape shape(4, 4);
  EXPECT_THROW(TmanProtocol(net, shape.space(), rps, fd,
                            TmanConfig{.view_cap = 0}),
               std::invalid_argument);
  EXPECT_THROW(TmanProtocol(net, shape.space(), rps, fd,
                            TmanConfig{.msg_size = 0}),
               std::invalid_argument);
}

}  // namespace
