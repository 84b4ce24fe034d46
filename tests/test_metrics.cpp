// Unit tests for poly::metrics — homogeneity (both the hosted and the
// lost-point fallback branches, checked against the paper's closed-form
// values), reliability, proximity, and storage averaging.  A property
// test holds the one homogeneity/reliability implementation to the two
// it replaced (the simulator's and the fleets'), bit for bit.  The
// spatial index backing the lost-point fallback is covered by
// test_spatial_index.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "metrics/metrics.hpp"
#include "shape/grid_torus.hpp"
#include "space/euclidean.hpp"
#include "space/ring.hpp"
#include "space/spatial_index.hpp"
#include "space/torus.hpp"
#include "util/rng.hpp"

namespace {

using poly::metrics::ForEachHost;
using poly::metrics::HostVisit;
using poly::sim::Network;
using poly::sim::NodeId;
using poly::space::DataPoint;
using poly::space::EuclideanSpace;
using poly::space::Point;
using poly::space::RingSpace;
using poly::space::TorusSpace;
using poly::util::Rng;

// ---- Homogeneity --------------------------------------------------------------

/// Test fixture: hand-built hosts over a small network (crashed nodes are
/// not visited).
struct Hosting {
  Network net{1};
  std::vector<std::vector<DataPoint>> guests;
  std::vector<Point> positions;

  NodeId add(Point pos, std::vector<DataPoint> g) {
    const NodeId id = net.add_node(pos);
    guests.push_back(std::move(g));
    positions.push_back(pos);
    return id;
  }

  ForEachHost hosts() {
    return [this](const HostVisit& visit) {
      for (NodeId n : net.alive_ids()) visit(positions[n], guests[n]);
    };
  }
};

TEST(Homogeneity, ZeroWhenEveryPointHostedAtItsPosition) {
  TorusSpace t(8.0, 8.0);
  Hosting h;
  std::vector<DataPoint> pts;
  for (int i = 0; i < 4; ++i) {
    DataPoint dp{static_cast<poly::space::PointId>(i),
                 Point(i * 2.0, 0.0)};
    pts.push_back(dp);
    h.add(dp.pos, {dp});
  }
  EXPECT_DOUBLE_EQ(poly::metrics::homogeneity(t, pts, h.hosts()), 0.0);
}

TEST(Homogeneity, HostedPointUsesClosestPrimaryHolder) {
  TorusSpace t(10.0, 10.0);
  Hosting h;
  DataPoint dp{0, Point(0.0, 0.0)};
  h.add(Point(3.0, 0.0), {dp});  // holder A at distance 3
  h.add(Point(1.0, 0.0), {dp});  // holder B at distance 1 (duplicate copy)
  std::vector<DataPoint> pts{dp};
  EXPECT_DOUBLE_EQ(poly::metrics::homogeneity(t, pts, h.hosts()), 1.0);
}

TEST(Homogeneity, LostPointFallsBackToNearestNode) {
  TorusSpace t(10.0, 10.0);
  Hosting h;
  h.add(Point(0.0, 0.0), {});  // nobody hosts anything
  h.add(Point(5.0, 0.0), {});
  std::vector<DataPoint> pts{{0, Point(4.0, 0.0)}};
  // Nearest node to (4,0) is (5,0): distance 1.
  EXPECT_DOUBLE_EQ(poly::metrics::homogeneity(t, pts, h.hosts()), 1.0);
}

TEST(Homogeneity, PaperClosedFormAfterHalfTorusFailure) {
  // T-Man after the 80×40 half-crash: surviving points at distance 0, lost
  // points at mean 10.5 → homogeneity 5.25 (§IV-B reports 5.25 ± 0.0).
  poly::shape::GridTorusShape shape(80, 40);
  const auto pts = shape.generate();
  Hosting h;
  for (const auto& dp : pts) {
    if (!shape.in_failure_half(dp.pos)) {
      h.add(dp.pos, {dp});
    }
  }
  EXPECT_NEAR(
      poly::metrics::homogeneity(shape.space(), pts, h.hosts()), 5.25,
      1e-9);
}

TEST(Homogeneity, PaperClosedFormAfterReinjection) {
  // T-Man after re-injection on the offset grid: lost points sit √2/2 from
  // the nearest fresh node → homogeneity ≈ 0.35 (§IV-B).
  poly::shape::GridTorusShape shape(80, 40);
  const auto pts = shape.generate();
  Hosting h;
  for (const auto& dp : pts)
    if (!shape.in_failure_half(dp.pos)) h.add(dp.pos, {dp});
  for (const auto& pos : shape.reinjection_positions(1600))
    h.add(pos, {});
  const double hom =
      poly::metrics::homogeneity(shape.space(), pts, h.hosts());
  EXPECT_NEAR(hom, 0.5 * std::sqrt(2.0) / 2.0, 0.01);
}

TEST(Homogeneity, IgnoresNonInitialPointIds) {
  TorusSpace t(10.0, 10.0);
  Hosting h;
  DataPoint initial{0, Point(0.0, 0.0)};
  DataPoint foreign{999, Point(9.0, 9.0)};
  h.add(Point(0.0, 0.0), {initial, foreign});
  std::vector<DataPoint> pts{initial};
  EXPECT_DOUBLE_EQ(poly::metrics::homogeneity(t, pts, h.hosts()), 0.0);
}

TEST(Homogeneity, EmptyPointListIsZero) {
  TorusSpace t(10.0, 10.0);
  Hosting h;
  h.add(Point(0, 0), {});
  std::vector<DataPoint> pts;
  EXPECT_DOUBLE_EQ(poly::metrics::homogeneity(t, pts, h.hosts()), 0.0);
}

// ---- Reliability ----------------------------------------------------------------

TEST(Reliability, CountsHostedFraction) {
  TorusSpace t(10.0, 10.0);
  Hosting h;
  DataPoint a{0, Point(0, 0)};
  DataPoint b{1, Point(1, 0)};
  DataPoint c{2, Point(2, 0)};
  h.add(Point(0, 0), {a, b});
  h.add(Point(5, 0), {});
  std::vector<DataPoint> pts{a, b, c};
  EXPECT_NEAR(poly::metrics::reliability(pts, h.hosts()), 2.0 / 3.0,
              1e-12);
}

TEST(Reliability, CrashedHoldersDoNotCount) {
  TorusSpace t(10.0, 10.0);
  Hosting h;
  DataPoint a{0, Point(0, 0)};
  const NodeId holder = h.add(Point(0, 0), {a});
  std::vector<DataPoint> pts{a};
  EXPECT_DOUBLE_EQ(poly::metrics::reliability(pts, h.hosts()), 1.0);
  h.net.crash(holder);
  EXPECT_DOUBLE_EQ(poly::metrics::reliability(pts, h.hosts()), 0.0);
}

TEST(Reliability, EmptyPointListIsOne) {
  Hosting h;
  h.add(Point(0, 0), {});
  std::vector<DataPoint> pts;
  EXPECT_DOUBLE_EQ(poly::metrics::reliability(pts, h.hosts()), 1.0);
}

// ---- one implementation, two references ------------------------------------
//
// The two implementations metrics::homogeneity/reliability replaced, kept
// verbatim as the property test's references: the round simulator's
// (callbacks over sim::Network ids, ids indexing a dense vector from 0)
// and the event and live fleets' (copied node snapshots, a PointIndex
// with a sorted fallback for sparse ids, injected sentinels skipped).

namespace sync_reference {

struct HostingView {
  std::function<std::span<const poly::space::DataPoint>(NodeId)> guests;
  std::function<const Point&(NodeId)> position;
};

double homogeneity(const Network& net, const poly::space::MetricSpace& space,
                   std::span<const DataPoint> initial_points,
                   const HostingView& view) {
  if (initial_points.empty()) return 0.0;
  poly::space::PointId max_id = 0;
  for (const auto& p : initial_points) max_id = std::max(max_id, p.id);
  std::vector<double> best(max_id + 1,
                           std::numeric_limits<double>::infinity());
  const auto alive = net.alive_ids();
  for (NodeId n : alive) {
    const Point& npos = view.position(n);
    for (const auto& g : view.guests(n)) {
      if (g.id > max_id) continue;
      const double d = space.distance(g.pos, npos);
      best[g.id] = std::min(best[g.id], d);
    }
  }
  std::optional<poly::space::SpatialIndex> index;
  double sum = 0.0;
  for (const auto& p : initial_points) {
    double d = best[p.id];
    if (!std::isfinite(d)) {
      if (!index) {
        std::vector<Point> positions;
        positions.reserve(alive.size());
        for (NodeId n : alive) positions.push_back(view.position(n));
        index.emplace(space, std::move(positions));
      }
      d = index->empty() ? 0.0 : index->nearest_distance(p.pos);
    }
    sum += d;
  }
  return sum / static_cast<double>(initial_points.size());
}

double reliability(const Network& net,
                   std::span<const DataPoint> initial_points,
                   const HostingView& view) {
  if (initial_points.empty()) return 1.0;
  poly::space::PointId max_id = 0;
  for (const auto& p : initial_points) max_id = std::max(max_id, p.id);
  std::vector<bool> hosted(max_id + 1, false);
  for (NodeId n : net.alive_ids())
    for (const auto& g : view.guests(n))
      if (g.id <= max_id) hosted[g.id] = true;
  std::size_t surviving = 0;
  for (const auto& p : initial_points)
    if (hosted[p.id]) ++surviving;
  return static_cast<double>(surviving) /
         static_cast<double>(initial_points.size());
}

/// The simulator's callbacks over a node table indexed by NodeId.
HostingView view_of(const std::vector<Point>& positions,
                    const std::vector<std::vector<DataPoint>>& guests) {
  HostingView v;
  v.guests = [&guests](NodeId n) {
    return std::span<const DataPoint>(guests[n]);
  };
  v.position = [&positions](NodeId n) -> const Point& {
    return positions[n];
  };
  return v;
}

}  // namespace sync_reference

namespace fleet_reference {

struct FleetNodeState {
  Point pos;
  std::vector<DataPoint> guests;
};

class PointIndex {
 public:
  explicit PointIndex(const std::vector<DataPoint>& points) {
    using poly::space::kInvalidPointId;
    using poly::space::PointId;
    PointId lo = std::numeric_limits<PointId>::max();
    PointId hi = 0;
    std::size_t live = 0;
    for (const auto& p : points) {
      if (p.id == kInvalidPointId) continue;
      ++live;
      lo = std::min(lo, p.id);
      hi = std::max(hi, p.id);
    }
    if (live == 0) return;
    const PointId span = hi - lo + 1;
    if (span <= 4 * static_cast<PointId>(live)) {
      base_ = lo;
      dense_.assign(static_cast<std::size_t>(span), kNone);
      for (std::size_t i = 0; i < points.size(); ++i)
        if (points[i].id != kInvalidPointId)
          dense_[static_cast<std::size_t>(points[i].id - base_)] = i;
      return;
    }
    sparse_.reserve(live);
    for (std::size_t i = 0; i < points.size(); ++i)
      if (points[i].id != kInvalidPointId)
        sparse_.emplace_back(points[i].id, i);
    std::sort(sparse_.begin(), sparse_.end());
  }

  std::size_t find(poly::space::PointId id) const {
    if (!dense_.empty()) {
      if (id < base_) return kNone;
      const auto off = static_cast<std::size_t>(id - base_);
      return off < dense_.size() ? dense_[off] : kNone;
    }
    const auto it = std::lower_bound(
        sparse_.begin(), sparse_.end(), id,
        [](const auto& entry, poly::space::PointId key) {
          return entry.first < key;
        });
    return (it != sparse_.end() && it->first == id) ? it->second : kNone;
  }

  static constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

 private:
  poly::space::PointId base_ = 0;
  std::vector<std::size_t> dense_;
  std::vector<std::pair<poly::space::PointId, std::size_t>> sparse_;
};

double fleet_homogeneity(const poly::space::MetricSpace& space,
                         const std::vector<DataPoint>& points,
                         const std::vector<FleetNodeState>& alive) {
  if (alive.empty()) return 0.0;
  const PointIndex index(points);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> best(points.size(), kInf);
  for (const auto& node : alive) {
    for (const auto& g : node.guests) {
      const std::size_t i = index.find(g.id);
      if (i == PointIndex::kNone) continue;
      const double d = space.distance(points[i].pos, node.pos);
      if (d < best[i]) best[i] = d;
    }
  }
  std::optional<poly::space::SpatialIndex> nearest_alive;
  double sum = 0.0;
  std::size_t counted = 0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (points[i].id == poly::space::kInvalidPointId) continue;
    double d = best[i];
    if (!std::isfinite(d)) {
      if (!nearest_alive) {
        std::vector<Point> positions;
        positions.reserve(alive.size());
        for (const auto& node : alive) positions.push_back(node.pos);
        nearest_alive.emplace(space, std::move(positions));
      }
      d = nearest_alive->nearest_distance(points[i].pos);
    }
    sum += d;
    ++counted;
  }
  return counted ? sum / static_cast<double>(counted) : 0.0;
}

double fleet_reliability(const std::vector<DataPoint>& points,
                         const std::vector<FleetNodeState>& alive) {
  const PointIndex index(points);
  std::vector<bool> hosted(points.size(), false);
  for (const auto& node : alive) {
    for (const auto& g : node.guests) {
      const std::size_t i = index.find(g.id);
      if (i != PointIndex::kNone) hosted[i] = true;
    }
  }
  std::size_t total = 0;
  std::size_t ok = 0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (points[i].id == poly::space::kInvalidPointId) continue;
    ++total;
    ok += hosted[i] ? 1 : 0;
  }
  return total ? static_cast<double>(ok) / static_cast<double>(total) : 1.0;
}

/// The fleets' copies of every alive node's position and guests.
std::vector<FleetNodeState> snapshots_of(
    const Network& net, const std::vector<Point>& positions,
    const std::vector<std::vector<DataPoint>>& guests) {
  std::vector<FleetNodeState> alive;
  for (NodeId n : net.alive_ids()) alive.push_back({positions[n], guests[n]});
  return alive;
}

}  // namespace fleet_reference

/// One random measurement: original points (ids from a random base, with
/// random gaps on some cases), injected sentinels among them, and nodes —
/// some crashed — hosting random subsets, so points have duplicate
/// holders or none, plus foreign ids no original point carries.  Some
/// cases have no node, no alive node, or no guest anywhere, and some a
/// guest whose position a corrupted frame altered (fleets only: the
/// simulator has no wire).
struct HostingCase {
  std::unique_ptr<poly::space::MetricSpace> space;
  std::vector<DataPoint> originals;  // the simulator's initial points
  std::vector<DataPoint> points;     // originals + sentinels (the fleets')
  Network net{1};
  std::vector<std::vector<DataPoint>> guests;
  std::vector<Point> positions;
  bool corrupted = false;

  explicit HostingCase(Rng& rng) {
    const bool ring = rng.bernoulli(0.3);
    const double w = rng.uniform_real(1.0, 40.0);
    const double h = rng.uniform_real(1.0, 40.0);
    if (ring)
      space = std::make_unique<RingSpace>(w);
    else
      space = std::make_unique<TorusSpace>(w, h);
    auto random_point = [&] {
      return ring ? Point(rng.uniform_real(0.0, w))
                  : Point(rng.uniform_real(0.0, w), rng.uniform_real(0.0, h));
    };

    const std::size_t n_points = rng.index(40);
    const std::size_t max_gap = rng.bernoulli(0.2) ? 8 : 1;
    poly::space::PointId id = rng.index(3) * 50;
    for (std::size_t i = 0; i < n_points; ++i) {
      originals.push_back({id, random_point()});
      id += 1 + rng.index(max_gap);
    }
    points = originals;
    const std::size_t n_sentinels = rng.index(4);
    for (std::size_t s = 0; s < n_sentinels; ++s) {
      const std::size_t at = rng.index(points.size() + 1);
      points.insert(points.begin() + static_cast<std::ptrdiff_t>(at),
                    DataPoint{poly::space::kInvalidPointId, random_point()});
    }

    const std::size_t n_nodes = rng.index(30);
    const bool all_lost = rng.bernoulli(0.1);
    const double crash_p = rng.bernoulli(0.1) ? 1.0 : 0.2;
    for (std::size_t n = 0; n < n_nodes; ++n) {
      const Point pos = random_point();
      net.add_node(pos);
      positions.push_back(pos);
      std::vector<DataPoint> g;
      if (!all_lost && !originals.empty()) {
        const std::size_t n_guests = rng.index(4);
        for (std::size_t k = 0; k < n_guests; ++k)
          g.push_back(originals[rng.index(originals.size())]);
        if (rng.bernoulli(0.1))
          g.push_back({id + rng.index(10), random_point()});  // foreign id
        if (rng.bernoulli(0.05)) {
          g.push_back({originals[rng.index(originals.size())].id,
                       random_point()});
          corrupted = true;
        }
      }
      guests.push_back(std::move(g));
    }
    for (NodeId n = 0; n < n_nodes; ++n)
      if (rng.bernoulli(crash_p)) net.crash(n);
  }

  ForEachHost hosts() const {
    return [this](const HostVisit& visit) {
      for (NodeId n : net.alive_ids()) visit(positions[n], guests[n]);
    };
  }
};

TEST(HostingMetrics, OneImplementationMatchesBothReferencesBitForBit) {
  constexpr int kCases = 20000;
  Rng rng(20140630);
  int lost = 0;
  int sentinels = 0;
  int empty_fleets = 0;
  int corrupted = 0;
  for (int c = 0; c < kCases; ++c) {
    const HostingCase hc(rng);
    const auto& space = *hc.space;
    const auto alive =
        fleet_reference::snapshots_of(hc.net, hc.positions, hc.guests);
    const auto view = sync_reference::view_of(hc.positions, hc.guests);
    const double hom = poly::metrics::homogeneity(space, hc.points, hc.hosts());
    const double rel = poly::metrics::reliability(hc.points, hc.hosts());
    const double fleet_hom =
        fleet_reference::fleet_homogeneity(space, hc.points, alive);
    const double fleet_rel =
        fleet_reference::fleet_reliability(hc.points, alive);
    const double sync_hom =
        sync_reference::homogeneity(hc.net, space, hc.originals, view);
    const double sync_rel =
        sync_reference::reliability(hc.net, hc.originals, view);
    ASSERT_EQ(std::bit_cast<std::uint64_t>(hom),
              std::bit_cast<std::uint64_t>(fleet_hom))
        << "case " << c << ": " << hom << " vs " << fleet_hom;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(rel),
              std::bit_cast<std::uint64_t>(fleet_rel))
        << "case " << c << ": " << rel << " vs " << fleet_rel;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(rel),
              std::bit_cast<std::uint64_t>(sync_rel))
        << "case " << c << ": " << rel << " vs " << sync_rel;
    if (!hc.corrupted) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(hom),
                std::bit_cast<std::uint64_t>(sync_hom))
          << "case " << c << ": " << hom << " vs " << sync_hom;
    }
    lost += (rel < 1.0 && !alive.empty()) ? 1 : 0;
    sentinels += hc.points.size() > hc.originals.size() ? 1 : 0;
    empty_fleets += alive.empty() ? 1 : 0;
    corrupted += hc.corrupted ? 1 : 0;
  }
  // The generator reaches every branch the references differ on.
  EXPECT_GT(lost, kCases / 4);
  EXPECT_GT(sentinels, kCases / 4);
  EXPECT_GT(empty_fleets, kCases / 20);
  EXPECT_GT(corrupted, kCases / 20);
}

// ---- geometric proximity ----------------------------------------------------

TEST(SpatialProximity, UnitGridTorusIsExactlyOne) {
  // On a unit-spaced grid torus every node's 4 nearest peers sit at
  // distance exactly 1.
  poly::shape::GridTorusShape shape(8, 8);
  std::vector<poly::space::Point> positions;
  for (const auto& p : shape.generate()) positions.push_back(p.pos);
  EXPECT_DOUBLE_EQ(
      poly::metrics::proximity(shape.space(), positions, 4), 1.0);
}

TEST(SpatialProximity, MatchesBruteForceOnRandomPositions) {
  poly::space::TorusSpace space(10.0, 10.0);
  poly::util::Rng rng(7);
  std::vector<poly::space::Point> positions;
  for (int i = 0; i < 60; ++i)
    positions.push_back(Point(rng.uniform_real(0.0, 10.0),
                              rng.uniform_real(0.0, 10.0)));
  constexpr std::size_t k = 4;
  // Brute force: per node, sort all other distances and average the k
  // smallest.
  double expect = 0.0;
  for (std::size_t i = 0; i < positions.size(); ++i) {
    std::vector<double> d;
    for (std::size_t j = 0; j < positions.size(); ++j)
      if (j != i) d.push_back(space.distance(positions[i], positions[j]));
    std::sort(d.begin(), d.end());
    double s = 0.0;
    for (std::size_t m = 0; m < k; ++m) s += d[m];
    expect += s / static_cast<double>(k);
  }
  expect /= static_cast<double>(positions.size());
  EXPECT_DOUBLE_EQ(poly::metrics::proximity(space, positions, k), expect);
}

TEST(SpatialProximity, CoLocatedPeersCountAtDistanceZero) {
  poly::space::RingSpace space(8.0);
  const std::vector<poly::space::Point> positions{Point(1.0), Point(1.0),
                                                  Point(3.0)};
  // Node 0's nearest peer is co-located node 1 (distance 0), then node 2
  // (distance 2); symmetric for node 1; node 2 sees both at distance 2.
  const double expect = ((0.0 + 2.0) / 2 + (0.0 + 2.0) / 2 + 2.0) / 3.0;
  EXPECT_DOUBLE_EQ(poly::metrics::proximity(space, positions, 2), expect);
}

TEST(SpatialProximity, DegenerateInputsAreZero) {
  poly::space::RingSpace space(8.0);
  EXPECT_DOUBLE_EQ(poly::metrics::proximity(space, {}, 4), 0.0);
  const std::vector<poly::space::Point> one{Point(1.0)};
  EXPECT_DOUBLE_EQ(poly::metrics::proximity(space, one, 4), 0.0);
}

// ---- avg_points_per_node ----------------------------------------------------------

TEST(AvgPoints, AveragesOverAliveOnly) {
  Network net(1);
  const NodeId a = net.add_node(Point(0, 0));
  net.add_node(Point(1, 0));
  const NodeId c = net.add_node(Point(2, 0));
  net.crash(c);
  (void)a;
  const double avg = poly::metrics::avg_points_per_node(
      net, [](NodeId n) { return n == 0 ? std::size_t{4} : std::size_t{2}; });
  EXPECT_DOUBLE_EQ(avg, 3.0);
}

TEST(AvgPoints, EmptyNetworkIsZero) {
  Network net(1);
  EXPECT_DOUBLE_EQ(
      poly::metrics::avg_points_per_node(net, [](NodeId) { return 1ul; }),
      0.0);
}

}  // namespace
