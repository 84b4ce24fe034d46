// The paper's five evaluation metrics (§IV-A).
//
//  * proximity      — mean distance between a node and its k closest T-Man
//                     neighbours (k = 4); quality of local neighbourhoods.
//  * homogeneity    — mean, over all *initial* data points, of the distance
//                     between the point and the nearest node that hosts it
//                     as a guest (ĝuests⁻¹); if a point was lost, the
//                     nearest node in the whole network.  Shape quality.
//  * reshaping time — rounds until homogeneity < H = ½√(A/N) after a
//                     failure (computed by the scenario runner from the
//                     homogeneity series).
//  * data points per node — guests + ghosts (memory overhead).
//  * message cost   — per node per round, from sim::TrafficMeter.
//
// Homogeneity and reliability have one definition for every engine: each
// takes the original points and a visitor over the alive nodes, which
// Simulation and EventCluster feed in place (bare T-Man runs
// visit each initial node with its own original point, §IV-A).
#pragma once

#include <functional>
#include <span>

#include "sim/network.hpp"
#include "space/metric_space.hpp"
#include "space/point.hpp"
#include "topo/topology.hpp"

namespace poly::metrics {

/// One alive node as the hosting metrics see it: its current position and
/// the data points it hosts (may be empty).
using HostVisit = std::function<void(const space::Point& position,
                                     std::span<const space::DataPoint> guests)>;
/// Calls the visit once per alive node, in a fixed order.
using ForEachHost = std::function<void(const HostVisit&)>;

/// Homogeneity (lower is better): the mean, over the original `points`, of
/// the distance to the closest alive node hosting the point, or to the
/// nearest alive node if none does.  Identity is matched by PointId, over
/// a map as long as the id range (shapes mint ids sequentially); guests
/// with other ids are not measured, and injected sentinels
/// (kInvalidPointId) are skipped.
/// 0 when no point is counted or no node is alive.  Calls `hosts` a second
/// time, for the positions alone, only when a point is lost.
double homogeneity(const space::MetricSpace& space,
                   std::span<const space::DataPoint> points,
                   const ForEachHost& hosts);

/// Fraction of the original points hosted by at least one alive node
/// (Table II's "Reliability"); 1 when no point is counted.
double reliability(std::span<const space::DataPoint> points,
                   const ForEachHost& hosts);

/// Proximity (lower is better): mean over alive nodes of the mean distance
/// to their k closest alive topology neighbours (nodes with empty
/// neighbourhoods are skipped).  This is the paper's metric: it measures
/// the neighbourhoods the *topology layer* actually constructed, so it
/// must read the per-node views, not ground truth.
double proximity(const sim::Network& net, const space::MetricSpace& space,
                 const topo::TopologyConstruction& topology,
                 std::size_t k = 4);

/// Geometric proximity: mean over `positions` of the mean distance to the
/// k nearest *other* positions, answered by one shared
/// space::SpatialIndex::k_nearest pass — O(1) amortized per node instead
/// of per-node-times-view recomputation.  This is the topology-independent
/// lower bound of the view-based proximity (they coincide once gossip has
/// converged); the AsyncNode fleet uses it as its snapshot-scale
/// neighbourhood-quality diagnostic, where no topology object exists.
double proximity(const space::MetricSpace& space,
                 std::span<const space::Point> positions, std::size_t k = 4);

/// Mean number of data points stored per alive node (guests + ghosts),
/// supplied by a per-node storage callback.
double avg_points_per_node(
    const sim::Network& net,
    const std::function<std::size_t(sim::NodeId)>& stored_points);

/// Load-balance statistics over a per-node load callback (e.g. guest
/// counts).  The paper's §I argues a lost shape "create[s] load unbalance";
/// these are the numbers behind that claim:
///   cv            coefficient of variation (stddev / mean; 0 = perfect),
///   max_over_mean hot-spot factor (1 = perfect).
struct LoadStats {
  double mean = 0.0;
  double cv = 0.0;
  double max_over_mean = 0.0;
};
LoadStats load_balance(
    const sim::Network& net,
    const std::function<double(sim::NodeId)>& load_of);

}  // namespace poly::metrics
