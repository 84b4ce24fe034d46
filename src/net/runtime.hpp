// The message-passing Polystyrene node: the full protocol stack (RPS +
// T-Man + Polystyrene) over a Transport, without the round-based
// simulator.
//
// The paper's system model (§III-A) assumes message-passing nodes over
// reliable channels with a possibly-imperfect failure detector.  AsyncNode
// realizes that model as a protocol state machine: each node owns a
// Transport endpoint, and each tick() its driver calls performs one
// asynchronous "round" — an RPS shuffle, a T-Man exchange, backup pushes,
// a recovery check, and one migration attempt.  Its driver owns time and
// liveness: engine::EventCluster ticks nodes from engine events, on a
// virtual clock or paced by the wall clock, and runs every call of a node
// — tick, handler, inspection — on its one loop thread, so the node holds
// no lock.  Failure detection combines two signals: send failures (contact
// refused ⇒ peer gone) and backup-push staleness (an origin that has not
// pushed within the timeout is considered dead and its ghosts reactivate).
//
// Pairwise migration atomicity (the Algorithm 3 requirement) is enforced
// with a busy flag: a node engaged in an exchange rejects incoming
// migration requests, and an initiator freezes its guest set until the
// response (or a tick timeout) arrives.  With reliable channels and
// crash-stop nodes the only anomaly a lost exchange can produce is a
// duplicated data point — exactly what migration's union-by-id dedup
// removes anyway.
//
// Memory layout (see docs/ARCHITECTURE.md, "Per-node memory layout"): a
// node's protocol state — RPS/T-Man views, backup targets, ghost table —
// lives in util::Arena storage with caps derived from AsyncConfig, one
// array per view (net/view_storage.hpp).  The call-scoped
// working buffers live in an AsyncScratch that the fleet shares across
// every node, so the steady state holds zero per-node heap vectors.
#pragma once

#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/point_set.hpp"
#include "core/split.hpp"
#include "net/messages.hpp"
#include "net/transport.hpp"
#include "net/view_storage.hpp"
#include "space/metric_space.hpp"
#include "tman/ranked_view.hpp"
#include "util/arena.hpp"
#include "util/rng.hpp"

namespace poly::net {

/// Tunables of the live runtime (scaled-down defaults suit tests and the
/// live_async example; semantics mirror the simulator's configs).
struct AsyncConfig {
  std::chrono::milliseconds tick{25};          ///< one "round" per tick
  std::size_t rps_view = 8;
  std::size_t rps_shuffle = 4;
  std::size_t tman_view = 16;
  std::size_t tman_msg = 8;
  std::size_t psi = 3;
  std::size_t replication = 2;                 ///< K
  core::SplitKind split_kind = core::SplitKind::kAdvanced;
  /// An origin that has not pushed a backup within this window is presumed
  /// dead (heartbeat timeout of the §III-A failure detector).
  std::chrono::milliseconds origin_timeout{400};
};

/// T-Man view entries unrefreshed for this many ticks are evicted.
/// Bounds view staleness: without it, a member that crashed — or moved
/// far away while its old descriptor still advertises a nearby position —
/// occupies a view slot forever, because T-Man gossip only circulates a
/// member's fresh descriptors near its *current* vicinity.
inline constexpr std::uint32_t kTmanTtl = 48;

/// Physical capacity of the T-Man view storage: tman_view plus tman_msg
/// slots for step_tman's RPS injection, which may hold entries past
/// tman_view until the next merge truncates to it.  Also the most
/// descriptors handle_tman merges from one frame.
inline std::uint32_t tman_phys_cap(const AsyncConfig& cfg) {
  const std::size_t phys = cfg.tman_view + cfg.tman_msg;
  return static_cast<std::uint32_t>(
      phys > cfg.tman_view + 1 ? phys : cfg.tman_view + 1);
}

/// Forwarding horizon of the T-Man descriptor-age mechanism: only
/// entries younger than this are forwarded to third parties, and a
/// forwarded copy arrives exactly this old — so second-hand information
/// is never re-forwarded and a rumor dies one hop from its last
/// first-hand confirmation.  A member that crashes (or whose descriptor
/// goes stale) vanishes from every view within kTmanTtl ticks.
inline constexpr std::uint32_t kTmanForwardAge = kTmanTtl / 2;

/// Call-scoped working buffers: decoded incoming lists, outgoing staging,
/// rank/sample/frame scratch.  Nothing in here survives a protocol call,
/// so a single instance serves every node driven from one thread — the
/// fleet shares one per cluster (the per-node vectors this replaces
/// dominated fleet memory).
///
/// Must be bound to the same Arena as the views of the nodes that use it
/// (so the arena's byte counters account for its arrays too).
struct AsyncScratch {
  std::vector<WirePeer> in_peers, out_peers;
  std::vector<WireDescriptor> in_descriptors, out_descriptors;
  std::vector<WirePoint> in_points, out_points, wire_guests;
  std::vector<std::size_t> samples;      // rng sample staging
  std::vector<std::uint8_t> frame;       // one-encode backup frame
  std::vector<TmanEntry> in_tman;        // decoded T-Man frame, as entries
  tman::RankScratch<TmanEntry> rank;     // ranked-view staging
  PeerList backup_targets;               // step_backup staging
  PeerList mig_candidates;               // step_migration staging

  void bind(util::Arena& arena, const AsyncConfig& cfg);
};

/// One message-passing node.  Single-threaded: its driver makes every
/// call — tick, transport handler, inspection — from one thread.
class AsyncNode {
 public:
  /// Source of "now" for timeout bookkeeping: the fleet engine's clock.
  using ClockFn = std::function<std::chrono::steady_clock::time_point()>;

  /// `initial` is the node's original data point (nullopt for fresh nodes
  /// joining after a catastrophe, as in the paper's Phase 3).  `clock` is
  /// the node's only source of time.  The node's view storage is carved
  /// from `arena`, and its working buffers are `scratch`, which must be
  /// bound to `arena`; both outlive the node, and a fleet shares them
  /// across all its nodes.
  AsyncNode(LiveNodeId id, std::shared_ptr<const space::MetricSpace> space,
            std::unique_ptr<Transport> transport,
            std::optional<space::DataPoint> initial, AsyncConfig config,
            std::uint64_t seed, ClockFn clock, util::Arena& arena,
            AsyncScratch& scratch);
  ~AsyncNode();

  AsyncNode(const AsyncNode&) = delete;
  AsyncNode& operator=(const AsyncNode&) = delete;

  /// Introduces bootstrap contacts by id (call before the first tick).
  void bootstrap(std::span<const LiveNodeId> seeds);

  /// One protocol round: RPS shuffle, T-Man exchange, recovery check,
  /// backup pushes, one migration attempt.  The driver ticks alive nodes
  /// only.
  void tick();

  /// Crash-stop: shuts the transport, so peers see contact failures and
  /// stale backups, exactly like a process kill.  The driver stops
  /// ticking the node first.
  void crash();

  /// Rejoins a crashed node under a fresh transport, with the same node id:
  /// peers' sends to the id reach the new life, and frames in flight to
  /// the old one die with it.  All protocol state survives as-is: the node
  /// restarts with its pre-crash — now stale — views, guests and backups,
  /// like a process restarted from a warm checkpoint.  Any half-open
  /// migration handshake is abandoned.  The driver resumes ticking the
  /// node afterwards.
  void recover(std::unique_ptr<Transport> transport);

  // ---- inspection ---------------------------------------------------------

  LiveNodeId id() const noexcept { return id_; }
  Address address() const { return transport_->address(); }
  space::Point position() const;

  /// The T-Man view member closest to `target` (the greedy-routing
  /// neighbourhood query of src/traffic/).  Deterministic: linear scan in
  /// view order, strict-< improvement with lowest-id tie-break.  `found`
  /// is false when no entry qualifies.  An optional `accept(ctx, id)`
  /// filter skips entries (the traffic plane rejects crashed members —
  /// modelling a sender that times out on a dead neighbour and tries its
  /// next candidate; a plain function pointer keeps the hot path
  /// allocation-free).  The RPS view's entries carry positions too, but
  /// greedy routing runs over the T-Man topology, not random peers.
  struct ViewHop {
    LiveNodeId id = 0;
    double distance = 0.0;
    bool found = false;
  };
  ViewHop closest_view_member(const space::Point& target,
                              bool (*accept)(void* ctx, LiveNodeId id) = nullptr,
                              void* ctx = nullptr) const;
  /// Visits every T-Man view entry (id, advertised position, version) —
  /// diagnostics and view-quality tests.
  void for_each_view_member(void (*fn)(void* ctx, LiveNodeId id,
                                       const space::Point& advertised,
                                       std::uint64_t version),
                            void* ctx) const;
  core::PointSet guests() const;
  /// Calls fn(position, guests), reading the guest set in place: the
  /// hosting metrics' visit.
  template <class Fn>
  void visit_hosting(Fn&& fn) const {
    fn(pos_, std::span<const space::DataPoint>(guests_));
  }
  std::size_t ghost_point_count() const;
  std::size_t tman_view_size() const;
  std::size_t rps_view_size() const;
  std::size_t backup_target_count() const;
  /// Heap bytes owned by this node's state outside the arena: the guest
  /// set plus the ghost tables' PointSets (the data plane; the control
  /// plane — views and targets — is all arena memory).
  std::size_t state_heap_bytes() const;
  /// Frames dropped at the decode boundary (util::CodecError): malformed,
  /// truncated or corrupted input that never reached a handler.  Zero on
  /// clean links.
  std::uint64_t frames_rejected() const { return frames_rejected_; }
  /// T-Man frames cut to their first tman_phys_cap descriptors before the
  /// merge: no sender of this config builds one that long.
  std::uint64_t frames_overlong() const { return frames_overlong_; }

 private:
  // Message handling: on_message decodes into the scratch buffers, and the
  // handle_* methods read the decoded scratch.
  void on_message(Message& msg);
  void handle_rps(const Header& h, const std::vector<WirePeer>& peers,
                  bool is_req);
  void handle_tman(const Header& h,
                   const std::vector<WireDescriptor>& descriptors,
                   bool is_req);
  void handle_backup_push(const Header& h,
                          const std::vector<WirePoint>& guests);
  void handle_migrate_req(const Header& h, const space::Point& initiator_pos,
                          const std::vector<WirePoint>& guests);
  void handle_migrate_resp(const Header& h, bool accepted,
                           const std::vector<WirePoint>& guests);

  /// Stages in the scratch the T-Man frame sent to `receiver`, at
  /// `receiver_pos`: our descriptor, then the view entries closest to it
  /// that the forwarding rule lets through (tman::pick_closest).
  const std::vector<WireDescriptor>& tman_buffer(
      LiveNodeId receiver, const space::Point& receiver_pos);

  // Protocol steps.
  void step_rps();
  void step_tman();
  void step_backup();
  void step_recovery();
  void step_migration();
  void reproject();

  /// Marks a peer dead after a contact failure: purges it from views and
  /// backups, and aborts a migration with it.
  void peer_unreachable(LiveNodeId peer);

  /// Sends a frame to node `peer` (a reply goes to the header's sender);
  /// on failure marks the peer unreachable.
  bool send_to(LiveNodeId peer, std::vector<std::uint8_t> frame);

  /// A ByteWriter over a transport-pooled buffer (the frame-encode path).
  util::ByteWriter frame_writer() { return util::ByteWriter(transport_->acquire_buffer()); }

  Header header(MsgType type) const;
  const std::vector<WirePoint>& wire_guests() const;

  const LiveNodeId id_;
  std::shared_ptr<const space::MetricSpace> space_;
  std::unique_ptr<Transport> transport_;
  AsyncConfig cfg_;
  const ClockFn clock_;
  util::Rng rng_;
  /// The working buffers, shared with the rest of the fleet.
  AsyncScratch* scratch_;

  // RPS state: Cyclon view, cap cfg_.rps_view.
  PeerList rps_view_;

  // T-Man state: ranked descriptor view, cap tman_phys_cap(cfg_).
  TmanView tman_view_;
  /// True while tman_view_ is sorted by (distance to pos_, id) — set by
  /// the rank sites, cleared when pos_ moves or unranked entries appear.
  /// The re-rank is lazy: reproject only clears it, and the next step_tman
  /// or merge ranks the view.
  bool tman_ranked_ = false;
  space::Point pos_;
  std::uint64_t pos_version_ = 1;

  // Polystyrene state.
  core::PointSet guests_;
  /// Ghost sets keyed by origin id, ascending (the recovery merge order);
  /// see GhostTable for the slot-recycling erase.
  GhostTable ghosts_;
  /// Backup targets, cap cfg_.replication (ages unused).
  PeerList backups_;

  // Migration handshake.
  bool migrating_ = false;
  LiveNodeId migrate_partner_ = 0;
  int migrate_ticks_left_ = 0;  // timeout countdown

  /// Frames rejected at the decode boundary (see the accessor).
  std::uint64_t frames_rejected_ = 0;
  std::uint64_t frames_overlong_ = 0;  ///< see accessor
};

}  // namespace poly::net
