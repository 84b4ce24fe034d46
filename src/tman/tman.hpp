// T-Man — gossip-based topology construction (Jelasity, Montresor &
// Babaoglu; the paper's reference [1] and its baseline comparator).
//
// Every node has a position in a metric space and greedily gossips ranked
// views so that it ends up linked to its k closest peers.  One round:
//
//   1. select a partner q at random among the ψ closest entries of the
//      ranked view;
//   2. send q a buffer of the m descriptors (own + view + a fresh random
//      sample from the peer-sampling layer) ranked closest *to q*;
//   3. q replies symmetrically; both sides merge, re-rank by distance to
//      their own position, and truncate to the view cap.
//
// Parameters follow the paper's §IV-A: views capped at 100 (the original
// T-Man keeps them unbounded), m = 20 descriptors per message, ψ = 5, views
// initialized with 10 random RPS peers, k = 4 neighbours measured.
//
// Polystyrene-specific: node positions *move* (the projection step), so
// descriptors carry a version number and merges keep the freshest
// descriptor per node ("Because nodes move, T-Man must update their
// positions in its view in each round, causing most of the traffic",
// §IV-B).  Suspected-dead entries are pruned on contact, which is how bare
// T-Man heals — locally but not globally — after a catastrophe (Fig. 1c).
#pragma once

#include <cstdint>
#include <vector>

#include "rps/rps.hpp"
#include "sim/failure_detector.hpp"
#include "sim/network.hpp"
#include "sim/node_id.hpp"
#include "space/metric_space.hpp"
#include "space/point.hpp"
#include "tman/ranked_view.hpp"
#include "topo/topology.hpp"
#include "util/rng.hpp"

namespace poly::tman {

/// T-Man tunables (defaults = paper §IV-A).
struct TmanConfig {
  std::size_t view_cap = 100;     ///< max ranked-view size
  std::size_t msg_size = 20;      ///< m: descriptors per gossip message
  std::size_t psi = 5;            ///< peer selection among ψ closest
  std::size_t init_view = 10;     ///< bootstrap: random RPS peers
  std::size_t rps_fresh = 5;      ///< fresh random candidates mixed per round
  /// Refresh the advertised position of every view entry at the start of
  /// each round, billing one descriptor per *changed* entry.  This is the
  /// paper's T-Man: "Because nodes move, T-Man must update their positions
  /// in its view in each round, causing most of the traffic" (§IV-B).
  /// Disabling it leaves views gossip-fresh only (ablation: stale views
  /// slow down post-failure re-convergence dramatically).
  bool refresh_positions = true;

  bool operator==(const TmanConfig&) const = default;
};

/// The T-Man protocol over all nodes of a simulated network.
class TmanProtocol final : public topo::TopologyConstruction {
 public:
  TmanProtocol(sim::Network& net, const space::MetricSpace& space,
               rps::RpsProtocol& rps, const sim::FailureDetector& fd,
               TmanConfig cfg = {});

  /// Registers a node with its initial position (call in id order).
  void on_node_added(sim::NodeId id, const space::Point& pos) override;

  /// Seeds `id`'s view with init_view random RPS peers.
  void bootstrap_node(sim::NodeId id) override;
  void bootstrap_all();

  /// One T-Man round over all alive nodes (shuffled activation order).
  void round() override;

  const char* name() const override { return "tman"; }

  // ---- positions --------------------------------------------------------

  /// Current advertised position of a node.
  const space::Point& position(sim::NodeId id) const override {
    return pos_[id];
  }

  /// Updates a node's position (Polystyrene's projection step) and bumps
  /// its version so the new position propagates through future gossip.
  void set_position(sim::NodeId id, const space::Point& pos) override;

  std::uint64_t position_version(sim::NodeId id) const {
    return version_[id];
  }

  // ---- view access -------------------------------------------------------

  /// The ranked view of a node: ascending (distance² to the node, id).
  const std::vector<Descriptor>& view(sim::NodeId id) const {
    return views_[id];
  }

  /// The `k` closest *alive* neighbours of `id` according to its view.
  /// This is the neighbourhood the topology layer exports (Step 1' of the
  /// paper's Fig. 4) — used by Polystyrene's migration and by the
  /// proximity metric.
  std::vector<sim::NodeId> closest_alive(sim::NodeId id,
                                         std::size_t k) const override;

  const TmanConfig& config() const noexcept { return cfg_; }

 private:
  /// Round-start position refresh of every alive node's view (see
  /// TmanConfig::refresh_positions).
  void refresh_all_views();

  /// One active exchange initiated by p; returns false if no partner.
  bool exchange(sim::NodeId p);

  /// Drops suspected-dead descriptors from a node's view, unless the
  /// failure detector's epoch has not moved since its last prune.
  void prune_suspected(sim::NodeId id);

  /// Builds into `buf` the m-descriptor buffer p sends to q: own
  /// descriptor + the entries of p's view and a fresh RPS sample, ranked
  /// closest to q.
  void build_buffer(sim::NodeId p, sim::NodeId q,
                    std::vector<Descriptor>& buf);

  /// Draws up to `k` ids from `p`'s RPS view (the draws of
  /// RpsProtocol::random_peers) and stages a descriptor for each alive one
  /// other than `p` and `skip` in `candidates_`.
  void sample_candidates(sim::NodeId p, std::size_t k, sim::NodeId skip);

  sim::Network& net_;
  const space::MetricSpace& space_;
  rps::RpsProtocol& rps_;
  const sim::FailureDetector& fd_;
  TmanConfig cfg_;

  std::vector<std::vector<Descriptor>> views_;
  std::vector<space::Point> pos_;
  std::vector<std::uint64_t> version_;
  /// Detector epoch of each view's last prune (kNeverPruned before one).
  std::vector<std::uint64_t> pruned_at_;

  // Exchange scratch: with it an exchange, a refresh or a re-rank makes no
  // heap allocation once the views have grown (one protocol object per
  // simulation, so parallel repetitions never share it).
  RankScratch<Descriptor> rank_scratch_;
  std::vector<std::size_t> sample_;
  std::vector<Descriptor> candidates_;
  std::vector<Descriptor> buf_pq_;
  std::vector<Descriptor> buf_qp_;
};

}  // namespace poly::tman
