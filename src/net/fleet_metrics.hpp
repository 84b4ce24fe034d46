// Fleet-level metrics over live node snapshots.
//
// The round simulator computes homogeneity/reliability through
// metrics::HostingView; the live runtimes (thread-per-node LiveCluster and
// the engine-driven EventCluster) instead snapshot each alive node's
// position and guest set and evaluate the same §IV-A quantities here.
// Implementations are linear in the total number of hosted points (one
// id-index pass over every guest set), so they stay affordable at the
// event engine's 100k-node scale; *lost* points resolve their nearest
// alive node through a lazily-built space::SpatialIndex instead of a
// per-point linear scan (which would be quadratic right after a
// catastrophe, exactly when the metric matters most).
#pragma once

#include <vector>

#include "core/point_set.hpp"
#include "space/metric_space.hpp"
#include "space/point.hpp"

namespace poly::net {

/// Snapshot of one alive node, as consumed by the fleet metrics.
struct FleetNodeState {
  space::Point pos;
  core::PointSet guests;
};

/// Mean distance from every original data point to the closest alive node
/// hosting it; lost points fall back to the nearest alive node.  Entries of
/// `points` with kInvalidPointId (injected, data-point-less nodes) are
/// skipped.  Returns 0 when no points are counted or no node is alive.
double fleet_homogeneity(const space::MetricSpace& space,
                         const std::vector<space::DataPoint>& points,
                         const std::vector<FleetNodeState>& alive);

/// Fraction of original points hosted by at least one alive node.
double fleet_reliability(const std::vector<space::DataPoint>& points,
                         const std::vector<FleetNodeState>& alive);

}  // namespace poly::net
