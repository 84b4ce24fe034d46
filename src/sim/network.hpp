// Round-based simulated network (PeerSim-style cycle-driven model).
//
// The paper's evaluation runs on PeerSim's cycle-based engine: in every
// round each alive node takes one protocol activation; there is no message
// loss and exchanges are pairwise-atomic.  `Network` reproduces exactly that
// substrate: a registry of nodes (alive / crashed, original positions,
// join/crash rounds), a deterministic per-node RNG-stream allocator, the
// round counter, and the traffic meter.  Protocol layers (rps/, tman/,
// core/) keep their own per-node state in parallel arrays keyed by NodeId
// and are driven once per round by the scenario runner.
//
// Everything is deterministic given the seed: node activation order,
// per-node randomness, and failure injection.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/node_id.hpp"
#include "sim/traffic.hpp"
#include "space/point.hpp"
#include "util/rng.hpp"

namespace poly::sim {

/// Lifecycle status of a node.  Crash-stop fault model (paper §III-A):
/// crashed nodes never recover (re-provisioning injects *fresh* nodes).
enum class NodeStatus : std::uint8_t { kAlive, kCrashed };

/// The simulated node registry and round clock.
class Network {
 public:
  explicit Network(std::uint64_t seed);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // ---- membership -------------------------------------------------------

  /// Adds a node with the given original position; returns its id.
  /// The node is alive and joins at the current round.
  NodeId add_node(space::Point original_position);

  /// Crashes a node (idempotent).  Crash-stop: no recovery.
  void crash(NodeId id);

  /// Crashes every alive node whose *original position* satisfies `pred` —
  /// the catastrophic correlated failure of the paper (a whole region of the
  /// shape disappearing at once).  Returns the number of nodes crashed.
  std::size_t crash_region(
      const std::function<bool(const space::Point&)>& pred);

  /// Crashes `count` alive nodes chosen uniformly at random (uncorrelated
  /// churn, for contrast experiments).  Returns the number crashed.
  std::size_t crash_random(std::size_t count);

  // ---- queries ----------------------------------------------------------

  std::size_t num_total() const noexcept { return status_.size(); }
  std::size_t num_alive() const noexcept { return alive_count_; }
  /// Crashes so far: nodes never recover, so this only grows.
  std::size_t num_crashed() const noexcept {
    return status_.size() - alive_count_;
  }
  bool alive(NodeId id) const noexcept { return status_[id] == NodeStatus::kAlive; }
  bool exists(NodeId id) const noexcept { return id < status_.size(); }
  NodeStatus status(NodeId id) const noexcept { return status_[id]; }

  const space::Point& original_position(NodeId id) const noexcept {
    return original_pos_[id];
  }
  std::uint64_t join_round(NodeId id) const noexcept { return join_round_[id]; }
  /// Round at which the node crashed; meaningful only if !alive(id).
  std::uint64_t crash_round(NodeId id) const noexcept {
    return crash_round_[id];
  }

  /// Ids of all alive nodes, ascending.
  std::vector<NodeId> alive_ids() const;

  /// Ids of all alive nodes in a freshly shuffled order — the per-round
  /// activation schedule.  Deterministic given the network seed and round.
  std::vector<NodeId> shuffled_alive_ids();

  /// A uniformly random alive node, or kInvalidNode if none.
  NodeId random_alive(util::Rng& rng) const;

  // ---- randomness -------------------------------------------------------

  /// The network-global RNG stream (activation order, failure injection).
  util::Rng& rng() noexcept { return rng_; }

  /// The private RNG stream of a node.  Streams are derived from the master
  /// seed at join time, so one node's draws never perturb another's.
  util::Rng& node_rng(NodeId id) noexcept { return node_rng_[id]; }

  // ---- round clock & traffic -------------------------------------------

  std::uint64_t round() const noexcept { return round_; }

  /// Ends the current round: flushes per-round traffic counters and
  /// advances the clock.
  void advance_round();

  TrafficMeter& traffic() noexcept { return traffic_; }
  const TrafficMeter& traffic() const noexcept { return traffic_; }

 private:
  util::Rng rng_;
  std::vector<NodeStatus> status_;
  std::vector<space::Point> original_pos_;
  std::vector<std::uint64_t> join_round_;
  std::vector<std::uint64_t> crash_round_;
  std::vector<util::Rng> node_rng_;
  std::size_t alive_count_ = 0;
  std::uint64_t round_ = 0;
  TrafficMeter traffic_;
};

}  // namespace poly::sim
