#include "metrics/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "space/spatial_index.hpp"

namespace poly::metrics {

namespace {

/// id -> index into the original points, direct-mapped: shapes mint ids
/// sequentially, so the id range is dense, and nothing hash-ordered is
/// left for anyone to iterate (detlint: unordered-iter).  Injected
/// sentinels (kInvalidPointId) are not indexed.
class PointIndex {
 public:
  explicit PointIndex(std::span<const space::DataPoint> points) {
    space::PointId hi = 0;
    for (const auto& p : points) {
      if (p.id == space::kInvalidPointId) continue;
      base_ = std::min(base_, p.id);
      hi = std::max(hi, p.id);
    }
    if (base_ == space::kInvalidPointId) return;
    slots_.assign(static_cast<std::size_t>(hi - base_) + 1, kNone);
    for (std::size_t i = 0; i < points.size(); ++i)
      if (points[i].id != space::kInvalidPointId)
        slots_[static_cast<std::size_t>(points[i].id - base_)] = i;
  }

  /// The index of `id` in the points, or kNone when no point carries it.
  std::size_t find(space::PointId id) const {
    if (id < base_ || id - base_ >= slots_.size()) return kNone;
    return slots_[static_cast<std::size_t>(id - base_)];
  }

  static constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

 private:
  space::PointId base_ = space::kInvalidPointId;
  std::vector<std::size_t> slots_;
};

}  // namespace

double homogeneity(const space::MetricSpace& space,
                   std::span<const space::DataPoint> points,
                   const ForEachHost& hosts) {
  // Pass 1: for every hosted point, the distance from the original point
  // to its closest holder.  A guest's own copy of the position is not
  // read: a corrupted frame can alter it in flight.
  const PointIndex index(points);
  std::vector<double> best(points.size(),
                           std::numeric_limits<double>::infinity());
  std::size_t alive = 0;
  hosts([&](const space::Point& pos,
            std::span<const space::DataPoint> guests) {
    ++alive;
    for (const auto& g : guests) {
      const std::size_t i = index.find(g.id);
      if (i != PointIndex::kNone)
        best[i] = std::min(best[i], space.distance(points[i].pos, pos));
    }
  });
  if (alive == 0) return 0.0;

  // Pass 2: lost points fall back to the nearest alive node (the
  // ĝuests⁻¹(x) = nodes case of §IV-A).  Right after a catastrophe half
  // the points are lost at once, so an index over the alive positions
  // answers each fallback in ~O(1) expected instead of an O(alive) scan.
  // It is built lazily: converged runs have no lost point and skip it.
  std::optional<space::SpatialIndex> nearest;
  double sum = 0.0;
  std::size_t counted = 0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (points[i].id == space::kInvalidPointId) continue;
    double d = best[i];
    if (!std::isfinite(d)) {
      if (!nearest) {
        std::vector<space::Point> positions;
        positions.reserve(alive);
        hosts([&](const space::Point& pos, std::span<const space::DataPoint>) {
          positions.push_back(pos);
        });
        nearest.emplace(space, std::move(positions));
      }
      d = nearest->nearest_distance(points[i].pos);
    }
    sum += d;
    ++counted;
  }
  return counted ? sum / static_cast<double>(counted) : 0.0;
}

double reliability(std::span<const space::DataPoint> points,
                   const ForEachHost& hosts) {
  const PointIndex index(points);
  std::vector<bool> hosted(points.size(), false);
  hosts([&](const space::Point&, std::span<const space::DataPoint> guests) {
    for (const auto& g : guests) {
      const std::size_t i = index.find(g.id);
      if (i != PointIndex::kNone) hosted[i] = true;
    }
  });
  std::size_t total = 0;
  std::size_t surviving = 0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (points[i].id == space::kInvalidPointId) continue;
    ++total;
    if (hosted[i]) ++surviving;
  }
  return total ? static_cast<double>(surviving) / static_cast<double>(total)
               : 1.0;
}

double proximity(const sim::Network& net, const space::MetricSpace& space,
                 const topo::TopologyConstruction& topology, std::size_t k) {
  double sum = 0.0;
  std::size_t counted = 0;
  for (sim::NodeId n : net.alive_ids()) {
    const auto neighbours = topology.closest_alive(n, k);
    if (neighbours.empty()) continue;
    double s = 0.0;
    for (sim::NodeId nb : neighbours)
      s += space.distance(topology.position(n), topology.position(nb));
    sum += s / static_cast<double>(neighbours.size());
    ++counted;
  }
  return counted == 0 ? 0.0 : sum / static_cast<double>(counted);
}

double proximity(const space::MetricSpace& space,
                 std::span<const space::Point> positions, std::size_t k) {
  if (positions.size() < 2 || k == 0) return 0.0;
  const space::SpatialIndex index(
      space, std::vector<space::Point>(positions.begin(), positions.end()));
  double sum = 0.0;
  std::size_t counted = 0;
  for (std::uint32_t i = 0; i < positions.size(); ++i) {
    // k+1 nearest, dropping the query position itself (co-located other
    // nodes legitimately count at distance 0).
    const auto nn = index.k_nearest(positions[i], k + 1);
    double s = 0.0;
    std::size_t m = 0;
    for (const auto& nb : nn) {
      if (nb.index == i) continue;
      if (m >= k) break;
      s += nb.distance;
      ++m;
    }
    if (m > 0) {
      sum += s / static_cast<double>(m);
      ++counted;
    }
  }
  return counted ? sum / static_cast<double>(counted) : 0.0;
}

double avg_points_per_node(
    const sim::Network& net,
    const std::function<std::size_t(sim::NodeId)>& stored_points) {
  const auto alive = net.alive_ids();
  if (alive.empty()) return 0.0;
  std::size_t total = 0;
  for (sim::NodeId n : alive) total += stored_points(n);
  return static_cast<double>(total) / static_cast<double>(alive.size());
}

LoadStats load_balance(const sim::Network& net,
                       const std::function<double(sim::NodeId)>& load_of) {
  LoadStats stats;
  const auto alive = net.alive_ids();
  if (alive.empty()) return stats;
  double sum = 0.0;
  double sum2 = 0.0;
  double max = 0.0;
  for (sim::NodeId n : alive) {
    const double v = load_of(n);
    sum += v;
    sum2 += v * v;
    max = std::max(max, v);
  }
  const double n = static_cast<double>(alive.size());
  stats.mean = sum / n;
  const double var = std::max(0.0, sum2 / n - stats.mean * stats.mean);
  stats.cv = stats.mean > 0.0 ? std::sqrt(var) / stats.mean : 0.0;
  stats.max_over_mean = stats.mean > 0.0 ? max / stats.mean : 0.0;
  return stats;
}

}  // namespace poly::metrics
