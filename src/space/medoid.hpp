// Medoid computation — the projection primitive (paper §III-C).
//
// A node's position, as seen by the topology construction layer, is the
// *medoid* of its guest data points: the guest minimizing the sum of squared
// distances to the other guests.  Medoids (unlike centroids) are well-defined
// in any metric space, including modular ones.
//
// Two search strategies, mirroring space/diameter.hpp:
//   * exact — exhaustive O(n²) argmin, the right tool at the usual guest-set
//     sizes (≈ K+1 to a few dozen points);
//   * sampled / grid-assisted — for the oversized pools that appear right
//     after a catastrophe (pooled guest sets of merged nodes): estimate each
//     of a random candidate subset's cost against a fixed random reference
//     subset, then refine locally via SpatialIndex k-NN around the best
//     candidate.  Deterministic given the Rng state.
// The threshold dispatcher `medoid(points, space, rng, exact_threshold)`
// routes between them, exactly like space::diameter.
#pragma once

#include <cstddef>
#include <span>

#include "space/metric_space.hpp"
#include "space/point.hpp"
#include "util/rng.hpp"

namespace poly::space {

/// Index of the medoid of `points` under `space`:
///   argmin_{i} Σ_j d(points[i], points[j])²
/// Ties are broken toward the lowest index (deterministic).
/// Precondition: !points.empty().  Complexity O(n²) distance evaluations —
/// guest sets are small (≈ K+1 to a few dozen points), so exact search is
/// the right tool.
std::size_t medoid_index(std::span<const Point> points,
                         const MetricSpace& space);

/// Medoid of a set of raw points.  Precondition: !points.empty().
Point medoid(std::span<const Point> points, const MetricSpace& space);

/// Medoid of a set of data points; ties broken toward the lowest index.
/// Precondition: !points.empty().
std::size_t medoid_index(std::span<const DataPoint> points,
                         const MetricSpace& space);

/// Medoid position of a set of data points.  Precondition: !points.empty().
Point medoid(std::span<const DataPoint> points, const MetricSpace& space);

/// Default size threshold of the exact/sampled medoid dispatchers, and
/// the one the split-cell callers (core::split's MD orientation,
/// AsyncNode::reproject) route at.  Steady-state guest sets stay well
/// below it; only oversized post-catastrophe pools go sampled.
inline constexpr std::size_t kMedoidExactThreshold = 64;

/// Tunables of the sampled / grid-assisted approximation.
struct SampledMedoidConfig {
  /// Random candidate points whose cost is estimated.
  std::size_t candidates = 24;
  /// Size of the fixed reference sample the cost estimate sums over; every
  /// candidate is scored against the *same* references, so the argmin is a
  /// consistent comparison (and deterministic: distance ties break toward
  /// the lower point index).
  std::size_t references = 96;
  /// Grid-assisted local refinement: the k nearest points (SpatialIndex
  /// k-NN; grid-accelerated on the wrapping spaces, linear elsewhere)
  /// around the best sampled candidate are also scored — the true medoid
  /// of a clustered set lies near any low-cost point, so the neighborhood
  /// walk recovers most of the sampling error.  0 disables refinement.
  std::size_t refine_k = 8;
};

/// Approximate medoid index for large sets: random-candidate cost
/// estimation plus SpatialIndex-assisted local refinement (see
/// SampledMedoidConfig).  O((candidates + refine_k) · references) distance
/// evaluations plus one O(n) index build.  Deterministic given the Rng
/// state.  Falls back to the exact search when the set is no larger than
/// the candidate budget.  Precondition: !points.empty().
std::size_t sampled_medoid_index(std::span<const DataPoint> points,
                                 const MetricSpace& space, util::Rng& rng,
                                 const SampledMedoidConfig& cfg = {});

/// Dispatcher used by the split-cell callers (core::split's MD orientation,
/// AsyncNode::reproject): exact search up to `exact_threshold` points,
/// sampled/grid-assisted beyond — mirroring space::diameter's dispatcher.
/// The default threshold comfortably covers steady-state guest sets, so
/// the sampled path (and its Rng draws) only engages on post-catastrophe
/// pools.  Precondition: !points.empty().
std::size_t medoid_index(std::span<const DataPoint> points,
                         const MetricSpace& space, util::Rng& rng,
                         std::size_t exact_threshold = kMedoidExactThreshold,
                         const SampledMedoidConfig& cfg = {});

/// Position form of the threshold dispatcher.  Precondition:
/// !points.empty().
Point medoid(std::span<const DataPoint> points, const MetricSpace& space,
             util::Rng& rng, std::size_t exact_threshold = kMedoidExactThreshold,
             const SampledMedoidConfig& cfg = {});

/// Sum of squared distances from `center` to every point — the clustering
/// objective the paper uses to compare partitions (§III-F).
double sum_squared_to(const Point& center, std::span<const DataPoint> points,
                      const MetricSpace& space) noexcept;

/// Within-cluster objective: Σ_{i,j} d(i,j)² over all ordered pairs of the
/// set.  SPLIT quality in the tests is assessed with this (paper's criterion
/// in §III-F).
double pairwise_squared_cost(std::span<const DataPoint> points,
                             const MetricSpace& space) noexcept;

}  // namespace poly::space
