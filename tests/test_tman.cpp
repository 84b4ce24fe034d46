// Unit + integration tests for poly::tman — convergence to grid
// neighbourhoods, view invariants, position versioning/refresh, healing
// after failures (and the Fig. 1 limitation: healing ≠ reshaping).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <set>
#include <vector>

#include "rps/rps.hpp"
#include "scenario/simulation.hpp"
#include "shape/grid_torus.hpp"
#include "sim/failure_detector.hpp"
#include "sim/network.hpp"
#include "tman/ranked_view.hpp"
#include "tman/tman.hpp"
#include "util/rng.hpp"

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

using poly::tman::Descriptor;
using poly::tman::RankScratch;

/// Full (distance², id) sort around `owner_pos` — the reference order.
void reference_sort(std::vector<Descriptor>& view, const Point& owner_pos,
                    const poly::space::MetricSpace& space) {
  std::sort(view.begin(), view.end(),
            [&](const Descriptor& a, const Descriptor& b) {
              const double ka = space.distance2(owner_pos, a.pos);
              const double kb = space.distance2(owner_pos, b.pos);
              if (ka != kb) return ka < kb;
              return a.id < b.id;
            });
}

/// The merge as T-Man did it before views were kept ranked: append new ids
/// and apply newer versions (scanning the growing view, so duplicates
/// inside `incoming` meet the copy already taken), then fully re-sort and
/// truncate.
std::vector<Descriptor> reference_merge(std::vector<Descriptor> view,
                                        const std::vector<Descriptor>& incoming,
                                        NodeId owner, const Point& owner_pos,
                                        const poly::space::MetricSpace& space,
                                        std::size_t cap) {
  for (const auto& d : incoming) {
    if (d.id == owner) continue;
    auto it = std::find_if(view.begin(), view.end(),
                           [&](const Descriptor& v) { return v.id == d.id; });
    if (it == view.end())
      view.push_back(d);
    else if (d.version > it->version)
      *it = d;
  }
  reference_sort(view, owner_pos, space);
  if (view.size() > cap) view.resize(cap);
  return view;
}

/// Bit-for-bit equality: ids, versions, dims and coordinate bit patterns.
::testing::AssertionResult same_bits(const std::vector<Descriptor>& got,
                                     const std::vector<Descriptor>& want) {
  if (got.size() != want.size())
    return ::testing::AssertionFailure()
           << "size " << got.size() << " != " << want.size();
  for (std::size_t i = 0; i < got.size(); ++i) {
    const Descriptor& g = got[i];
    const Descriptor& w = want[i];
    bool same =
        g.id == w.id && g.version == w.version && g.pos.dim == w.pos.dim;
    for (int c = 0; c < 3; ++c)
      same = same && std::bit_cast<std::uint64_t>(g.pos.c[c]) ==
                         std::bit_cast<std::uint64_t>(w.pos.c[c]);
    if (!same)
      return ::testing::AssertionFailure()
             << "entry " << i << ": id " << g.id << " v" << g.version << " "
             << g.pos.str() << " != id " << w.id << " v" << w.version << " "
             << w.pos.str();
  }
  return ::testing::AssertionSuccess();
}

/// Random descriptors over a small id pool on a 6x4 torus: grid positions
/// (many equal distances with different ids) or real ones, versions 0..4.
struct ViewFuzzer {
  explicit ViewFuzzer(std::uint64_t seed) : rng(seed) {}

  Point random_pos() {
    if (rng.bernoulli(0.7))
      return Point(static_cast<double>(rng.index(6)),
                   static_cast<double>(rng.index(4)));
    return Point(rng.uniform_real(0.0, 6.0), rng.uniform_real(0.0, 4.0));
  }

  Descriptor random_descriptor(NodeId pool) {
    return Descriptor{static_cast<NodeId>(rng.index(pool)), random_pos(),
                      rng.index(5)};
  }

  /// A ranked view of `owner`: unique ids, never the owner, at most
  /// `size`, with no spare capacity (as T-Man grows its views).
  std::vector<Descriptor> ranked_view(NodeId owner, const Point& owner_pos,
                                      NodeId pool, std::size_t size) {
    std::vector<Descriptor> view;
    for (std::size_t i = 0; i < size; ++i) {
      Descriptor d = random_descriptor(pool);
      if (d.id == owner ||
          std::any_of(view.begin(), view.end(),
                      [&](const Descriptor& v) { return v.id == d.id; }))
        continue;
      view.push_back(d);
    }
    reference_sort(view, owner_pos, space);
    return std::vector<Descriptor>(view.begin(), view.end());
  }

  Rng rng;
  GridTorusShape shape{6, 4};
  const poly::space::MetricSpace& space = shape.space();
};

TEST(TmanRankedView, MergeMatchesFullSortReference) {
  ViewFuzzer fz(2014);
  RankScratch scratch;
  std::size_t truncated = 0, duplicated = 0, owner_seen = 0, empty = 0;
  for (int round = 0; round < 20000; ++round) {
    const NodeId pool = 8 + static_cast<NodeId>(fz.rng.index(40));
    const NodeId owner = static_cast<NodeId>(fz.rng.index(pool));
    const Point owner_pos = fz.random_pos();
    const std::size_t cap = 1 + fz.rng.index(30);
    // Mostly within the cap, as T-Man keeps it; sometimes empty, sometimes
    // above the cap (the merge must truncate it too).
    std::size_t size = fz.rng.index(cap + 1);
    if (fz.rng.bernoulli(0.1)) size = 0;
    if (fz.rng.bernoulli(0.1)) size = cap + 1 + fz.rng.index(8);
    std::vector<Descriptor> view =
        fz.ranked_view(owner, owner_pos, pool, size);
    const std::size_t capacity = std::max(cap, view.capacity());
    std::vector<Descriptor> incoming;
    const std::size_t m = fz.rng.index(25);
    for (std::size_t i = 0; i < m; ++i) {
      Descriptor d = fz.random_descriptor(pool);
      if (!view.empty() && fz.rng.bernoulli(0.4)) {
        // An id the view knows: older, equal or newer version, same or
        // moved position.
        const Descriptor& known = view[fz.rng.index(view.size())];
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
    if (view.empty()) ++empty;

    const auto want =
        reference_merge(view, incoming, owner, owner_pos, fz.space, cap);
    if (want.size() == cap) ++truncated;
    poly::tman::merge_ranked(view, incoming, owner, owner_pos, fz.space, cap,
                             scratch);
    ASSERT_TRUE(same_bits(view, want)) << "case " << round;
    ASSERT_LE(view.capacity(), capacity) << "case " << round;
  }
  // The generator reached every corner it is meant to cover.
  EXPECT_GT(truncated, 1000u);
  EXPECT_GT(duplicated, 1000u);
  EXPECT_GT(owner_seen, 1000u);
  EXPECT_GT(empty, 1000u);
}

TEST(TmanRankedView, RefreshAndReRankMatchFullSortReference) {
  ViewFuzzer fz(2015);
  RankScratch scratch;
  std::size_t refreshed = 0;
  for (int round = 0; round < 20000; ++round) {
    const NodeId pool = 8 + static_cast<NodeId>(fz.rng.index(40));
    const NodeId owner = static_cast<NodeId>(fz.rng.index(pool));
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
