// Deterministic fault-injection plane: scheduled, seeded chaos for the
// engine fleets.
//
// The link model (engine/link_model.hpp) expresses *uniform* pathology —
// one i.i.d. latency/drop law for every frame.  Real deployments die from
// structured faults: a partition that severs two halves of the fleet, an
// asymmetric blackhole on one direction of one link, a rack whose uplink
// degrades (extra loss + latency) without failing outright, frames
// duplicated or reordered in flight, payload bytes corrupted by a bad NIC.
// FaultPlane composes such faults as *rules* layered between EngineHub and
// the LinkModel: the hub consults the plane once per frame (after the
// dead-destination check and the link's drop draw, before its latency
// draw) and applies the returned FrameFate — blackhole, extra latency,
// duplication, corruption, reorder jitter.
//
// Determinism contract (docs/FAULTS.md, docs/DETERMINISM.md): every rule
// owns a private util::Rng stream derived from (plane seed, rule id), so
//   * a frame's fate is a pure function of (rule set, matched traffic);
//   * adding a rule never perturbs the draws of existing rules;
//   * an installed plane with no rules makes zero draws — trajectories
//     with and without an (empty) plane are bit-identical.
// Rules are evaluated in creation order; a blackhole short-circuits the
// rest (the frame is gone — later rules never see it), which is itself
// deterministic for a fixed rule set.
//
// Activity windows are half-open [from, until) in engine time.  "Heal" is
// simply an until-bound: a partition with until = T stops matching at T,
// with no state to undo.  Counters (frames_blackholed/duplicated/
// corrupted/reordered) are owned here; the cluster-level faults the hub
// never sees (node stalls, crash-recovery) count into the same struct via
// counters() so scenario metrics read one record.
#pragma once

#include <cstdint>
#include <vector>

#include "engine/event_engine.hpp"
#include "util/rng.hpp"

namespace poly::fault {

using engine::SimTime;

/// Which directions of traffic a member-set rule matches, relative to the
/// rule's member set: frames into the set, out of the set, or both.
/// Enumerators follow the `degrade` verb's `in|out|both` alternatives.
enum class Direction : std::uint8_t { kInto, kOutOf, kBoth };

/// Cumulative per-fault counters, read by the scenario metric table.
/// The plane increments the frame-level counters; the owning cluster
/// increments stall_rounds (ticks frozen by a stall) and recoveries
/// (crashed nodes that rejoined).
struct FaultCounters {
  std::uint64_t frames_blackholed = 0;  ///< partition/blackhole/degrade loss
  std::uint64_t frames_duplicated = 0;  ///< extra copies scheduled
  std::uint64_t frames_corrupted = 0;   ///< payloads byte-flipped in flight
  std::uint64_t frames_reordered = 0;   ///< frames given FIFO-breaking jitter
  std::uint64_t stall_rounds = 0;       ///< node-ticks frozen by stalls
  std::uint64_t recoveries = 0;         ///< crashed nodes rejoined
};

/// The plane's verdict for one frame.  Defaults mean "deliver untouched".
struct FrameFate {
  bool blackholed = false;      ///< silently lost (send still returns true)
  bool corrupt = false;         ///< flip payload bytes before delivery
  std::uint32_t copies = 1;     ///< >1: schedule copies-1 duplicates
  SimTime extra_latency{0};     ///< degrade jitter, applied pre-FIFO-clamp
  SimTime reorder_latency{0};   ///< reorder jitter, applied post-clamp
};

using RuleId = std::uint32_t;

class FaultPlane {
 public:
  /// `seed` keys every rule stream; independent of the engine's RNG.
  explicit FaultPlane(std::uint64_t seed) noexcept : seed_(seed) {}

  // ---- rule builders -----------------------------------------------------
  // All windows are [from, until) in engine time; pass SimTime::max() for
  // a fault that never heals.

  /// Severs every link between `side` and the rest of the fleet, both
  /// directions (a clean network partition).
  RuleId add_partition(const std::vector<std::uint32_t>& side, SimTime from,
                       SimTime until);

  /// Silently drops every frame from `src_node` to `dst_node` (a directed
  /// per-link blackhole; the reverse direction is untouched).
  RuleId add_blackhole(std::uint32_t src_node, std::uint32_t dst_node,
                       SimTime from, SimTime until);

  /// Gray links: frames matching (members, dir) suffer an extra drop
  /// probability and up to `jitter_max` of extra latency.  The jitter is
  /// applied before the hub's FIFO clamp, so per-pair ordering survives —
  /// degradation is slow, not reordering.
  RuleId add_degrade(const std::vector<std::uint32_t>& members, Direction dir,
                     double extra_drop, SimTime jitter_max, SimTime from,
                     SimTime until);

  /// Corrupts each frame's payload with probability `p` (1–4 byte flips).
  RuleId add_corrupt(double p, SimTime from, SimTime until);

  /// Duplicates each frame with probability `p` (one extra copy, same
  /// instant — as a routing loop or retransmit bug would).
  RuleId add_duplicate(double p, SimTime from, SimTime until);

  /// Delays each frame with probability `p` by up to `jitter_max`,
  /// *after* the hub's FIFO clamp — deliberately breaks per-pair ordering
  /// (the one fault the Transport contract otherwise rules out).
  RuleId add_reorder(double p, SimTime jitter_max, SimTime from,
                     SimTime until);

  /// Re-bounds rule `id`'s window to end at `at` (early heal).
  void heal(RuleId id, SimTime at);

  // ---- hub hooks ---------------------------------------------------------

  /// True once any rule exists; an inactive plane costs one branch per
  /// send and makes no RNG draws.
  bool active() const noexcept { return !rules_.empty(); }

  /// True when any degrade/reorder rule can stretch latency: the hub must
  /// engage its FIFO clamp even over fixed-latency links.
  bool may_jitter() const noexcept { return jitter_rules_ > 0; }

  /// The fate of one frame from node `from` to node `to`.  Rules match
  /// node ids (cluster indices), not endpoints: a node that crashes and
  /// recovers gets a fresh endpoint but keeps its id, and its partition
  /// membership survives the rebirth (the hub passes node ids).
  /// Draws only from the private streams of the active rules that match.
  FrameFate fate(std::uint32_t from, std::uint32_t to, std::size_t bytes,
                 SimTime now);

  /// Applies a corrupt fate: XORs 1–4 payload bytes with nonzero masks
  /// (the frame is guaranteed to differ).  Uses the plane's dedicated
  /// corruption stream, shared across corrupt rules.
  void corrupt_payload(std::vector<std::uint8_t>& payload);

  const FaultCounters& counters() const noexcept { return counters_; }
  FaultCounters& counters() noexcept { return counters_; }

  std::size_t rule_count() const noexcept { return rules_.size(); }

 private:
  struct Rule {
    enum class Kind : std::uint8_t {
      kPartition,
      kBlackhole,
      kDegrade,
      kCorrupt,
      kDuplicate,
      kReorder,
    };
    Kind kind;
    Direction dir = Direction::kBoth;
    SimTime from{}, until{};
    double prob = 0.0;          ///< degrade drop / corrupt / duplicate / reorder
    SimTime jitter_max{0};      ///< degrade / reorder
    std::uint32_t src = 0, dst = 0;  ///< blackhole endpoints (node ids)
    std::vector<bool> member;   ///< partition / degrade membership by node id
    util::Rng rng;              ///< private stream, keyed (seed, rule id)

    bool in_set(std::uint32_t node) const noexcept {
      return node < member.size() && member[node];
    }
  };

  RuleId push_rule(Rule r);
  /// The per-rule stream key: SplitMix-style mix of (seed, stream id), so
  /// neighboring rule ids land far apart in seed space.
  util::Rng stream(std::uint64_t stream_id) const noexcept {
    return util::Rng(seed_ ^ (0x9e3779b97f4a7c15ull * (stream_id + 1)));
  }

  std::uint64_t seed_;
  std::vector<Rule> rules_;
  /// Corruption byte positions/masks draw from one dedicated stream (the
  /// per-rule streams decide *whether* a frame corrupts; this one decides
  /// *how*).  Stream id 2^32 cannot collide with a rule id.
  util::Rng corrupt_rng_ = stream(std::uint64_t{1} << 32);
  FaultCounters counters_;
  int jitter_rules_ = 0;
};

}  // namespace poly::fault
