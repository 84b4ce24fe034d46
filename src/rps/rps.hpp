// Random Peer Sampling (RPS) — the bottom gossip layer (paper Fig. 2/3).
//
// "The bottom overlay (peer sampling) provides each node with a random
//  sample of the rest of the network.  This is achieved by having nodes
//  exchange and shuffle their neighbors' list in asynchronous gossip rounds
//  to maximize the randomness of the peer-sampling overlay graph" (§II-B).
//
// This is a Cyclon-style implementation (Voulgaris et al., JNSM 2005, the
// paper's reference [21]): bounded views of aged descriptors, oldest-peer
// selection, swap-based shuffles.  Aging is what flushes crashed nodes out
// of views after a catastrophe — there is no global membership oracle.
//
// Polystyrene uses this layer three ways: to seed T-Man views, to pick
// random *backup* targets (spreading replicas as independently as possible,
// §III-D), and as the extra random candidate in each migration step
// (Algorithm 3, line 2).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sim/network.hpp"
#include "sim/node_id.hpp"
#include "util/rng.hpp"

namespace poly::rps {

/// Tunables of the peer-sampling layer.
struct RpsConfig {
  /// Bounded view size (Cyclon's cache size).
  std::size_t view_size = 20;
  /// Number of descriptors exchanged per shuffle (Cyclon's shuffle length).
  std::size_t shuffle_length = 10;

  bool operator==(const RpsConfig&) const = default;
};

/// An aged view entry.
struct RpsEntry {
  sim::NodeId id = sim::kInvalidNode;
  std::uint32_t age = 0;
};

/// The peer sampling protocol over all nodes of a simulated network.
///
/// Per-node state lives in parallel arrays indexed by NodeId; the scenario
/// runner calls `round()` once per simulation round.
class RpsProtocol {
 public:
  RpsProtocol(sim::Network& net, RpsConfig cfg = {});

  /// Registers a node (must be called once per added node, in id order).
  void on_node_added(sim::NodeId id);

  /// Fills `id`'s view with up to view_size random alive peers — models the
  /// bootstrap service a joining node contacts.  Also used at start-up.
  void bootstrap_node(sim::NodeId id);

  /// Bootstraps every alive node (round-0 initialization).
  void bootstrap_all();

  /// One Cyclon round: every alive node (in shuffled order) initiates one
  /// shuffle with its oldest alive neighbour.
  void round();

  /// The current view of a node (ages included).
  const std::vector<RpsEntry>& view(sim::NodeId id) const {
    return views_[id];
  }

  /// A uniformly random entry of `self`'s view (may reference a crashed
  /// node — views are only eventually fresh).  Returns kInvalidNode when the
  /// view is empty.
  sim::NodeId random_peer(sim::NodeId self, util::Rng& rng) const;

  /// Up to `k` distinct random ids from `self`'s view.
  std::vector<sim::NodeId> random_peers(sim::NodeId self, std::size_t k,
                                        util::Rng& rng) const;

  /// Up to `k` distinct random entries (id + age) from `self`'s view — the
  /// age-carrying variant of random_peers for layers that must not mint
  /// fresh (age-0) descriptors for peers they never actually contacted
  /// (e.g. Vicinity's RPS mix).
  std::vector<RpsEntry> random_view_entries(sim::NodeId self, std::size_t k,
                                            util::Rng& rng) const;

  /// Fraction of entries across all alive views that reference crashed
  /// nodes — a staleness gauge used by tests and ablations.
  double dead_entry_fraction() const;

  const RpsConfig& config() const noexcept { return cfg_; }

 private:
  /// One active shuffle initiated by `p`.  Returns false if no alive
  /// partner could be selected.
  bool shuffle(sim::NodeId p);

  /// Removes the entry for `target` from `self`'s view, if present.
  void remove_entry(sim::NodeId self, sim::NodeId target);

  /// Whether `id` is `self` or already in `self`'s view.
  bool knows(sim::NodeId self, sim::NodeId id) const;

  /// Merges `incoming` into `self`'s view: drops self-references and
  /// duplicates, fills free slots first, then replaces the entries that
  /// were just sent out (`sent`), never exceeding view_size.
  void merge(sim::NodeId self, std::span<const RpsEntry> incoming,
             std::span<const RpsEntry> sent);

  sim::Network& net_;
  RpsConfig cfg_;
  std::vector<std::vector<RpsEntry>> views_;

  // Shuffle scratch, reused by every shuffle so that a shuffle makes no
  // heap allocation (one protocol object per simulation, never shared).
  std::vector<std::size_t> picks_;
  std::vector<RpsEntry> buf_p_;
  std::vector<RpsEntry> buf_q_;
};

}  // namespace poly::rps
