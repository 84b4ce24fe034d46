// SPLIT — the data point redistribution functions (paper §III-F,
// Algorithms 4 and 5).
//
// Migration is a pairwise exchange: two nodes pool their guest data points
// and a SPLIT function partitions the pool between them.  The choice of
// SPLIT drives the protocol's convergence speed (paper Fig. 10b):
//
//  * SPLIT_BASIC   (Algorithm 4): each point goes to the closer of the two
//                  node positions — one decentralized k-means step.  Can
//                  reach status-quo lock-in on poor configurations (Fig. 5a).
//  * PD heuristic  (Algorithm 5, lines 2-4): partition the pool along one
//                  of its *diameters* (u, v) — the pair of points at maximal
//                  distance — each point joining the closer endpoint.
//  * MD heuristic  (Algorithm 5, lines 5-13): given two clusters, assign
//                  them to the two nodes so as to minimize the total
//                  displacement of the node positions (matching cluster
//                  medoids against current positions).
//  * SPLIT_ADVANCED = PD + MD, the paper's default.
//
// For ablation (Fig. 10b plots Split_Basic / Split_MD / Split_Advanced) we
// expose all four combinations: BASIC, PD-only, MD-only (basic partition +
// optimal assignment), and ADVANCED (PD + MD).
#pragma once

#include <string>
#include <utility>

#include "core/point_set.hpp"
#include "space/medoid.hpp"
#include "space/metric_space.hpp"
#include "util/rng.hpp"

namespace poly::core {

/// Which SPLIT strategy migration uses.
enum class SplitKind {
  kBasic,     ///< Algorithm 4: closest-position assignment
  kPd,        ///< diameter partition only, endpoints assigned u→p, v→q
  kMd,        ///< basic partition + displacement-minimizing assignment
  kAdvanced,  ///< Algorithm 5: diameter partition + MD assignment
};

/// Parse/format helpers (used by bench CLIs).
std::string to_string(SplitKind kind);
SplitKind split_kind_from_string(const std::string& name);

/// Result of a split: the points the initiating node p keeps and the points
/// its partner q keeps.  Every input point appears in exactly one side
/// (conservation — property-tested).
struct SplitResult {
  PointSet for_p;
  PointSet for_q;
};

/// Tunables of the advanced split.
struct SplitConfig {
  /// Pools up to this size use the exact O(n²) diameter; larger pools use
  /// the sampled approximation (paper suggests ~30).
  std::size_t diameter_exact_threshold = 30;

  bool operator==(const SplitConfig&) const = default;
};

/// Algorithm 4 — SPLIT_BASIC(points, pos_p, pos_q):
///   points_p = { x : d(x, pos_p) <  d(x, pos_q) }
///   points_q = { x : d(x, pos_q) <= d(x, pos_p) }   (ties go to q)
SplitResult split_basic(std::span<const space::DataPoint> pool,
                        const space::Point& pos_p, const space::Point& pos_q,
                        const space::MetricSpace& space);

/// Algorithm 5 — SPLIT_ADVANCED: PD partition along a diameter, then MD
/// assignment of the two parts.  `rng` powers the sampled diameter for
/// large pools.
SplitResult split_advanced(std::span<const space::DataPoint> pool,
                           const space::Point& pos_p,
                           const space::Point& pos_q,
                           const space::MetricSpace& space, util::Rng& rng,
                           const SplitConfig& cfg = {});

/// PD heuristic alone: diameter partition, u-side to p and v-side to q
/// (no displacement optimization).
SplitResult split_pd(std::span<const space::DataPoint> pool,
                     const space::Point& pos_p, const space::Point& pos_q,
                     const space::MetricSpace& space, util::Rng& rng,
                     const SplitConfig& cfg = {});

/// MD heuristic alone: basic closest-position partition, then the two parts
/// are assigned to (p, q) or (q, p), whichever minimizes displacement.
/// Cluster medoids are exact — the form for small pools and tests.
SplitResult split_md(std::span<const space::DataPoint> pool,
                     const space::Point& pos_p, const space::Point& pos_q,
                     const space::MetricSpace& space);

/// MD heuristic with threshold-routed medoids: clusters beyond
/// space::kMedoidExactThreshold points use the sampled / grid-assisted
/// medoid (`rng` powers the sampling), matching what the `split()`
/// dispatcher does for kMd.
SplitResult split_md(std::span<const space::DataPoint> pool,
                     const space::Point& pos_p, const space::Point& pos_q,
                     const space::MetricSpace& space, util::Rng& rng);

/// Dispatch on `kind`.
SplitResult split(SplitKind kind, std::span<const space::DataPoint> pool,
                  const space::Point& pos_p, const space::Point& pos_q,
                  const space::MetricSpace& space, util::Rng& rng,
                  const SplitConfig& cfg = {});

}  // namespace poly::core
