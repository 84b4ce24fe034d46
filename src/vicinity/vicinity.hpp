// Vicinity — epidemic semantic-overlay construction (Voulgaris & van
// Steen, Euro-Par 2005; the paper's reference [2] and the second protocol
// it names as a substrate).
//
// Like T-Man, Vicinity converges each node's view toward its closest peers
// in a metric space, but with different mechanics:
//
//   * view entries carry an *age*; the gossip partner is the **oldest**
//     entry (tail-chasing churn resilience, inherited from Cyclon), not a
//     random pick among the ψ closest;
//   * the buffer sent to a partner is assembled from the node's own
//     descriptor, its Vicinity view **and its peer-sampling view** (the
//     two-layer design of the original protocol), ranked by proximity to
//     the partner;
//   * after the exchange both sides keep the `view_size` entries closest
//     to themselves (strict selection, no cap slack).
//
// Failure handling: entries suspected by the failure detector are pruned
// at the start of every exchange (like T-Man's prune_suspected) — without
// it, a post-catastrophe view fills with dead closest-ranked entries that
// the cap then protects forever, starving closest_alive().  Ages are only
// reset on *direct contact* (the exchange partner); relayed or RPS-minted
// descriptors never rejuvenate an existing entry, preserving Cyclon's
// age-based healing under churn.
//
// Implementing a second substrate demonstrates the paper's central claim
// that Polystyrene "comes in the form of an add-on layer that can be
// plugged into any decentralized topology construction algorithm" (§II-C):
// the Polystyrene layer runs unchanged on either (see abl_substrate bench).
#pragma once

#include <cstdint>
#include <vector>

#include "rps/rps.hpp"
#include "sim/failure_detector.hpp"
#include "sim/network.hpp"
#include "sim/node_id.hpp"
#include "space/metric_space.hpp"
#include "tman/ranked_view.hpp"
#include "topo/topology.hpp"

namespace poly::vicinity {

/// Vicinity tunables (defaults sized like the paper's T-Man setup).
struct VicinityConfig {
  std::size_t view_size = 20;   ///< selected-view size (strict)
  std::size_t gossip_size = 20; ///< descriptors per message
  std::size_t init_view = 10;   ///< bootstrap: random RPS peers
  std::size_t rps_mix = 5;      ///< peer-sampling entries mixed per buffer

  bool operator==(const VicinityConfig&) const = default;
};

/// An aged, positioned view entry.
struct VicinityEntry {
  sim::NodeId id = sim::kInvalidNode;
  space::Point pos;
  std::uint64_t version = 0;
  std::uint32_t age = 0;
};

/// The Vicinity protocol over all nodes of a simulated network.
class VicinityProtocol final : public topo::TopologyConstruction {
 public:
  VicinityProtocol(sim::Network& net, const space::MetricSpace& space,
                   rps::RpsProtocol& rps, const sim::FailureDetector& fd,
                   VicinityConfig cfg = {});

  void on_node_added(sim::NodeId id, const space::Point& pos) override;
  void bootstrap_node(sim::NodeId id) override;
  void bootstrap_all();
  void round() override;

  const space::Point& position(sim::NodeId id) const override {
    return pos_[id];
  }
  /// Moves a node and bumps its version.  Unlike T-Man's, it does not
  /// re-rank the node's view: the view keeps the order of the previous
  /// position (the order closest_alive reads) until its next merge.
  void set_position(sim::NodeId id, const space::Point& pos) override;
  std::vector<sim::NodeId> closest_alive(sim::NodeId id,
                                         std::size_t k) const override;
  const char* name() const override { return "vicinity"; }

  const std::vector<VicinityEntry>& view(sim::NodeId id) const {
    return views_[id];
  }
  const VicinityConfig& config() const noexcept { return cfg_; }

 private:
  bool exchange(sim::NodeId p);
  void refresh_positions(sim::NodeId p);

  /// Drops suspected-dead entries from a node's view (Vicinity's analog of
  /// T-Man's prune_suspected; run at the start of every exchange).
  void prune_suspected(sim::NodeId id);

  /// Builds into `buf` the buffer p sends to q: own descriptor + the
  /// entries of p's Vicinity view and a slice of its peer-sampling view,
  /// ranked closest to q.
  void build_buffer(sim::NodeId p, sim::NodeId q,
                    std::vector<VicinityEntry>& buf);

  /// Merges `incoming` (received from the directly-contacted peer `from`)
  /// into `self`'s view.  Positions/versions adopt the freshest advertised
  /// value; ages are reset only for `from` itself — gossiped descriptors
  /// never rejuvenate existing entries.
  void merge(sim::NodeId self, sim::NodeId from,
             const std::vector<VicinityEntry>& incoming);

  sim::Network& net_;
  const space::MetricSpace& space_;
  rps::RpsProtocol& rps_;
  const sim::FailureDetector& fd_;
  VicinityConfig cfg_;

  std::vector<std::vector<VicinityEntry>> views_;
  std::vector<space::Point> pos_;
  std::vector<std::uint64_t> version_;

  // Exchange scratch (one protocol object per simulation).
  tman::RankScratch<VicinityEntry> rank_scratch_;
  std::vector<VicinityEntry> candidates_;
  std::vector<VicinityEntry> buf_pq_;
  std::vector<VicinityEntry> buf_qp_;
};

}  // namespace poly::vicinity
