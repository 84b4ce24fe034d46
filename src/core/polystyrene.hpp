// Polystyrene — the shape-preserving layer (paper §III, Fig. 3/4).
//
// Polystyrene decouples physical nodes from the data points that define the
// target shape.  Each node keeps (Table I of the paper):
//
//   guests   the data points the node currently hosts (it is their
//            *primary holder*); drives the node's virtual position
//   pos      the virtual position fed to the topology construction layer
//            — the medoid of guests (projection, §III-C)
//   ghosts   deactivated copies of other nodes' guests, keyed by origin
//            (ghosts[q] is the state q pushed here)
//   backups  the K nodes this node replicates its guests to
//
// and runs four mechanisms each round (Fig. 4):
//
//   Step 1   projection: pos = medoid(guests) → topology layer
//   Step 2   backup: keep K alive backup targets, push guests (delta-
//            optimized) — Algorithm 1
//   Step 3   recovery: reactivate ghosts[q] into guests when the failure
//            detector reports q dead — Algorithm 2
//   Step 4   migration: pairwise SPLIT exchange with a neighbour from the
//            topology view (+1 random RPS peer) — Algorithm 3
//
// The layer plugs on top of any topology construction protocol; here it
// drives our T-Man implementation, exactly as in the paper's evaluation.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "core/point_set.hpp"
#include "core/split.hpp"
#include "rps/rps.hpp"
#include "sim/failure_detector.hpp"
#include "sim/network.hpp"
#include "sim/node_id.hpp"
#include "space/metric_space.hpp"
#include "topo/topology.hpp"
#include "util/rng.hpp"

namespace poly::core {

/// Where backup replicas are placed (§III-D discusses the trade-off).
enum class BackupPlacement {
  /// Random nodes from the peer-sampling layer (the paper's choice: copies
  /// spread as independently as possible survive *correlated* failures).
  kRandom,
  /// Topologically close nodes (ablation: cheaper percolation after small
  /// localized failures, catastrophic under region failures).
  kNeighbor,
};

/// Polystyrene tunables (defaults = paper §IV-A, K=4 variant).
struct PolyConfig {
  /// K: number of backup copies per node (2/4/8 in the paper → 87.5%,
  /// 96.9%, 99.8% analytic survival under a 50% catastrophe, §III-D).
  std::size_t replication = 4;
  /// Migration SPLIT strategy (paper default: SPLIT_ADVANCED).
  SplitKind split_kind = SplitKind::kAdvanced;
  SplitConfig split_cfg{};
  /// ψ: migration partners come from the ψ closest T-Man neighbours plus
  /// one random RPS peer (Algorithm 3).
  std::size_t psi = 5;
  BackupPlacement backup_placement = BackupPlacement::kRandom;
  /// Send incremental deltas to established backups instead of full copies
  /// (the optimization §III-D describes; affects traffic only).
  bool incremental_backup = true;

  bool operator==(const PolyConfig&) const = default;
};

/// Per-node Polystyrene statistics (tests and metrics).
struct NodeStorage {
  std::size_t guests = 0;
  std::size_t ghost_points = 0;
  std::size_t backups = 0;
};

/// The Polystyrene protocol layer over a simulated network.
class PolystyreneLayer {
 public:
  PolystyreneLayer(sim::Network& net, const space::MetricSpace& space,
                   rps::RpsProtocol& rps, topo::TopologyConstruction& topology,
                   const sim::FailureDetector& fd, PolyConfig cfg = {});

  /// Registers a node (in id order).  `initial` is the node's original data
  /// point — its starting guest and position; re-injected nodes join with
  /// no data point (std::nullopt) and a pre-initialized position (§IV-A
  /// Phase 3), acquiring guests through migration.
  void on_node_added(sim::NodeId id,
                     std::optional<space::DataPoint> initial);

  /// One Polystyrene round, to run *after* the topology layer's round:
  /// recovery + backup maintenance for every node, then one migration
  /// exchange per node, re-projecting positions as guests move.
  void round();

  // ---- state inspection --------------------------------------------------

  const PointSet& guests(sim::NodeId id) const { return guests_[id]; }
  const std::map<sim::NodeId, PointSet>& ghosts(sim::NodeId id) const {
    return ghosts_[id];
  }
  const std::vector<sim::NodeId>& backups(sim::NodeId id) const {
    return backups_[id];
  }

  /// Current virtual position (== the position advertised to T-Man).
  const space::Point& position(sim::NodeId id) const {
    return topo_.position(id);
  }

  /// Storage footprint of a node: guests + all ghost data points (the
  /// paper's "average number of data points per node" counts both).
  NodeStorage storage(sim::NodeId id) const;

  /// Applies `transform` to the position of every data point held anywhere
  /// in the layer (guests and ghosts alike) and re-projects every alive
  /// node.  This implements the paper's evolving-shape extension (footnote
  /// 1: the target shape "could, however, keep evolving as the algorithm
  /// executes"): when the application moves its data points, the overlay
  /// follows.  Point identities are preserved.
  void transform_points(
      const std::function<space::Point(const space::Point&)>& transform);

  const PolyConfig& config() const noexcept { return cfg_; }

  /// Analytic survival probability of one data point when a fraction
  /// `fail_fraction` of nodes crash simultaneously and backups fail
  /// independently: 1 - pf^(K+1)  (§III-D).
  static double analytic_survival(std::size_t k, double fail_fraction);

  /// Minimal K achieving survival probability `target` under
  /// `fail_fraction`:  K > log(1-ps)/log(pf) - 1  (§III-D).
  static std::size_t required_replication(double target,
                                          double fail_fraction);

 private:
  /// Step 3 (Algorithm 2): reactivate ghosts of suspected-dead origins.
  void recover(sim::NodeId p);

  /// Step 2 (Algorithm 1): replace dead backups, push guests to backups.
  void maintain_backups(sim::NodeId p);

  /// Picks a backup candidate for p, or kInvalidNode.
  sim::NodeId pick_backup_candidate(sim::NodeId p,
                                    const std::vector<sim::NodeId>& current);

  /// Step 4 (Algorithm 3): one pairwise migration exchange.
  void migrate(sim::NodeId p);

  /// Step 1 (§III-C): pos = medoid(guests); empty guest sets keep their
  /// current position (re-injected nodes hold their seeded position until
  /// migration hands them points).
  void reproject(sim::NodeId p);

  sim::Network& net_;
  const space::MetricSpace& space_;
  rps::RpsProtocol& rps_;
  topo::TopologyConstruction& topo_;
  const sim::FailureDetector& fd_;
  PolyConfig cfg_;

  std::vector<PointSet> guests_;
  std::vector<std::map<sim::NodeId, PointSet>> ghosts_;
  std::vector<std::vector<sim::NodeId>> backups_;
};

}  // namespace poly::core
