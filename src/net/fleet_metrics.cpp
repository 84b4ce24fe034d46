#include "net/fleet_metrics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <utility>

#include "space/spatial_index.hpp"

namespace poly::net {

namespace {

/// id → index into `points`, skipping injected sentinels.
///
/// Shape generators mint PointIds sequentially from a first_id, so the live
/// id range is dense and a direct-mapped vector beats a hash table: one
/// subtract + load per probe, no hashing, and nothing hash-ordered for
/// anyone to iterate later (detlint: unordered-iter).  A sorted-pairs
/// binary search backs the rare sparse case (e.g. ids surviving heavy
/// churn) so lookups stay deterministic and allocation stays bounded.
class PointIndex {
 public:
  explicit PointIndex(const std::vector<space::DataPoint>& points) {
    space::PointId lo = std::numeric_limits<space::PointId>::max();
    space::PointId hi = 0;
    std::size_t live = 0;
    for (const auto& p : points) {
      if (p.id == space::kInvalidPointId) continue;
      ++live;
      lo = std::min(lo, p.id);
      hi = std::max(hi, p.id);
    }
    if (live == 0) return;
    const space::PointId span = hi - lo + 1;
    // Direct map while the id range is within 4x the live count (always
    // true for freshly generated shapes, where ids are contiguous).
    if (span <= 4 * static_cast<space::PointId>(live)) {
      base_ = lo;
      dense_.assign(static_cast<std::size_t>(span), kNone);
      for (std::size_t i = 0; i < points.size(); ++i)
        if (points[i].id != space::kInvalidPointId)
          dense_[static_cast<std::size_t>(points[i].id - base_)] = i;
      return;
    }
    sparse_.reserve(live);
    for (std::size_t i = 0; i < points.size(); ++i)
      if (points[i].id != space::kInvalidPointId)
        sparse_.emplace_back(points[i].id, i);
    std::sort(sparse_.begin(), sparse_.end());
  }

  /// Returns the index of `id` in `points`, or npos when absent.
  std::size_t find(space::PointId id) const {
    if (!dense_.empty()) {
      if (id < base_) return kNone;
      const auto off = static_cast<std::size_t>(id - base_);
      return off < dense_.size() ? dense_[off] : kNone;
    }
    const auto it = std::lower_bound(
        sparse_.begin(), sparse_.end(), id,
        [](const auto& entry, space::PointId key) { return entry.first < key; });
    return (it != sparse_.end() && it->first == id) ? it->second : kNone;
  }

  static constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

 private:
  space::PointId base_ = 0;
  std::vector<std::size_t> dense_;
  std::vector<std::pair<space::PointId, std::size_t>> sparse_;
};

}  // namespace

double fleet_homogeneity(const space::MetricSpace& space,
                         const std::vector<space::DataPoint>& points,
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
  // Lost points fall back to the nearest alive node.  Right after a
  // catastrophe half the points are lost at once, so a per-point linear
  // scan would be O(lost × alive); the spatial index is built lazily (one
  // O(alive) pass) and answers each fallback in ~O(1) expected.
  std::optional<space::SpatialIndex> nearest_alive;
  double sum = 0.0;
  std::size_t counted = 0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (points[i].id == space::kInvalidPointId) continue;
    double d = best[i];
    if (!std::isfinite(d)) {
      if (!nearest_alive) {
        std::vector<space::Point> positions;
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

double fleet_reliability(const std::vector<space::DataPoint>& points,
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
    if (points[i].id == space::kInvalidPointId) continue;
    ++total;
    ok += hosted[i] ? 1 : 0;
  }
  return total ? static_cast<double>(ok) / static_cast<double>(total) : 1.0;
}

}  // namespace poly::net
