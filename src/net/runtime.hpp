// The message-passing Polystyrene node: the full protocol stack (RPS +
// T-Man + Polystyrene) over a Transport, without the round-based
// simulator.
//
// The paper's system model (§III-A) assumes message-passing nodes over
// reliable channels with a possibly-imperfect failure detector.  AsyncNode
// realizes that model as a protocol state machine: each node owns a
// Transport endpoint, and each tick() its driver calls performs one
// asynchronous "round" — an RPS shuffle, a T-Man exchange, backup pushes,
// a recovery check, and one migration attempt.  The drivers own time and
// liveness: engine::EventCluster ticks nodes from engine events on a
// virtual clock, net::LiveCluster from one thread per node on the wall
// clock.  Failure detection combines two signals: send failures (contact
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
// node's protocol state — RPS/T-Man views, backup targets, ghost table,
// endpoint cache — lives in util::Arena storage with caps derived from
// AsyncConfig, one array per view (net/view_storage.hpp).  The call-scoped
// working buffers live in an AsyncScratch that single-threaded drivers
// (the engine fleets) share across every node, so the steady state holds
// zero per-node heap vectors.
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
#include "space/medoid.hpp"
#include "space/metric_space.hpp"
#include "tman/ranked_view.hpp"
#include "util/arena.hpp"
#include "util/rng.hpp"
#include "util/thread_annotations.hpp"

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
  /// Guest sets up to this size reproject through the exact O(n²) medoid;
  /// larger ones (post-catastrophe pools) use the sampled /
  /// SpatialIndex-assisted variant.  Mirrors SplitConfig's threshold.
  std::size_t medoid_exact_threshold = space::kMedoidExactThreshold;
  /// An origin that has not pushed a backup within this window is presumed
  /// dead (heartbeat timeout of the §III-A failure detector).
  std::chrono::milliseconds origin_timeout{400};
  /// T-Man view entries unrefreshed for this many ticks are evicted.
  /// Bounds view staleness: without it, a member that crashed — or moved
  /// far away while its old descriptor still advertises a nearby
  /// position — occupies a view slot forever, because T-Man gossip only
  /// circulates a member's fresh descriptors near its *current*
  /// vicinity.  0 disables aging (and the forwarding horizon with it).
  std::size_t tman_ttl = 48;
};

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
/// goes stale) vanishes from every view within tman_ttl ticks.
inline std::uint32_t tman_forward_age(const AsyncConfig& cfg) {
  return static_cast<std::uint32_t>(cfg.tman_ttl / 2);
}

/// A contactable peer: identity + transport address.
struct Seed {
  LiveNodeId id;
  Address addr;
};

/// Call-scoped working buffers: decoded incoming lists, outgoing staging,
/// rank/sample/frame scratch.  Nothing in here survives a protocol call,
/// so a single instance can serve every node driven from one thread — the
/// engine fleets share one per cluster (the per-node vectors this
/// replaces dominated fleet memory).  Threaded fleets (LiveCluster) give
/// each node a private one: a node's scratch use is guarded by its
/// state_mu_, which cannot order accesses across nodes.
///
/// Must be bound to the same Arena as the views of the nodes that use it
/// (so the arena's byte counters account for its arrays too).
///
/// Externally synchronized: AsyncScratch itself carries no lock and no
/// single-thread checker on purpose.  Which mutex covers it depends on the
/// owner — a live node's scratch is covered by that node's state_mu_
/// (both its ticker thread and the transport pump touch it, always under
/// the lock), while an engine fleet's shared scratch is covered by the
/// fleet's single-driver discipline.  Do not add a SingleThreadChecker
/// here: the live two-thread case is legal.
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

/// One message-passing node.
class AsyncNode {
 public:
  /// Source of "now" for timeout bookkeeping: the engine's virtual clock
  /// in engine fleets, the wall clock in LiveCluster.
  using ClockFn = std::function<std::chrono::steady_clock::time_point()>;

  /// `initial` is the node's original data point (nullopt for fresh nodes
  /// joining after a catastrophe, as in the paper's Phase 3).  `clock` is
  /// the node's only source of time.
  ///
  /// `arena`/`scratch` place the node's view storage and working buffers:
  /// fleet owners pass a shared arena (and, when every node runs on one
  /// thread, a shared scratch bound to that arena); by default the node
  /// owns a private arena and scratch.  A non-null `scratch` must be
  /// bound to `arena`.
  AsyncNode(LiveNodeId id, std::shared_ptr<const space::MetricSpace> space,
            std::unique_ptr<Transport> transport,
            std::optional<space::DataPoint> initial, AsyncConfig config,
            std::uint64_t seed, ClockFn clock, util::Arena* arena = nullptr,
            AsyncScratch* scratch = nullptr);
  ~AsyncNode();

  AsyncNode(const AsyncNode&) = delete;
  AsyncNode& operator=(const AsyncNode&) = delete;

  /// Introduces bootstrap contacts (call before the first tick).
  void bootstrap(const std::vector<Seed>& seeds);

  /// One protocol round on the caller's thread: RPS shuffle, T-Man
  /// exchange, recovery check, backup pushes, one migration attempt.  The
  /// driver ticks alive nodes only.
  void tick() EXCLUDES(state_mu_);

  /// Crash-stop: shuts the transport, so peers see contact failures and
  /// stale backups, exactly like a process kill.  The driver stops
  /// ticking the node first.
  void crash();

  /// Rejoins a crashed node under a fresh transport registered at the
  /// *same address* (endpoint ids are never reused, so the node comes back
  /// under a new id; peers' cached ids for the old life fail like any dead
  /// endpoint and re-resolve by name).  All protocol state survives as-is:
  /// the node restarts with its pre-crash — now stale — views, guests and
  /// backups, like a process restarted from a warm checkpoint.  Any
  /// half-open migration handshake is abandoned.  The driver resumes
  /// ticking the node afterwards.
  void recover(std::unique_ptr<Transport> transport) EXCLUDES(state_mu_);

  // ---- thread-safe inspection ------------------------------------------

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
  /// Visits every T-Man view entry (id, advertised position, version)
  /// under the state lock — diagnostics and view-quality tests.
  void for_each_view_member(void (*fn)(void* ctx, LiveNodeId id,
                                       const space::Point& advertised,
                                       std::uint64_t version),
                            void* ctx) const;
  core::PointSet guests() const;
  /// Calls fn(position, guests) under one acquisition of the state lock,
  /// reading the guest set in place: the hosting metrics' visit.
  template <class Fn>
  void visit_hosting(Fn&& fn) const EXCLUDES(state_mu_) {
    util::MutexLock lk(state_mu_);
    fn(pos_, std::span<const space::DataPoint>(guests_));
  }
  std::size_t ghost_point_count() const;
  std::size_t tman_view_size() const;
  std::size_t rps_view_size() const;
  std::size_t backup_target_count() const;
  /// Heap bytes owned by this node's state outside the arena: the guest
  /// set plus the ghost tables' PointSets (the data plane; the control
  /// plane — views, targets, cache — is all arena memory).
  std::size_t state_heap_bytes() const;
  /// Frames dropped at the decode boundary (util::CodecError): malformed,
  /// truncated or corrupted input that never reached a handler.  Zero on
  /// clean links.
  std::uint64_t frames_rejected() const;
  /// T-Man frames cut to their first tman_phys_cap descriptors before the
  /// merge: no sender of this config builds one that long.
  std::uint64_t frames_overlong() const {
    util::MutexLock lk(state_mu_);
    return frames_overlong_;
  }

 private:
  // Message handling (transport pump thread).  on_message takes state_mu_
  // and decodes into the scratch buffers; the handle_* methods run with
  // the lock held and read the decoded scratch.
  void on_message(Message& msg) EXCLUDES(state_mu_);
  void handle_rps(const Header& h, const std::vector<WirePeer>& peers,
                  bool is_req) REQUIRES(state_mu_);
  void handle_tman(const Header& h,
                   const std::vector<WireDescriptor>& descriptors,
                   bool is_req) REQUIRES(state_mu_);
  void handle_backup_push(const Header& h,
                          const std::vector<WirePoint>& guests)
      REQUIRES(state_mu_);
  void handle_migrate_req(const Header& h, const space::Point& initiator_pos,
                          const std::vector<WirePoint>& guests)
      REQUIRES(state_mu_);
  void handle_migrate_resp(const Header& h, bool accepted,
                           const std::vector<WirePoint>& guests)
      REQUIRES(state_mu_);

  /// Stages in the scratch the T-Man frame sent to `receiver`, at
  /// `receiver_pos`: our descriptor, then the view entries closest to it
  /// that the forwarding rule lets through (tman::pick_closest).
  const std::vector<WireDescriptor>& tman_buffer(
      LiveNodeId receiver, const space::Point& receiver_pos)
      REQUIRES(state_mu_);

  // Protocol steps (called with state_mu_ held unless noted).
  void step_rps() REQUIRES(state_mu_);
  void step_tman() REQUIRES(state_mu_);
  void step_backup() REQUIRES(state_mu_);
  void step_recovery() REQUIRES(state_mu_);
  void step_migration() REQUIRES(state_mu_);
  void reproject() REQUIRES(state_mu_);

  /// Marks a peer dead after a contact failure: purges it from views,
  /// backups, the endpoint cache, and (if it was a ghost origin) triggers
  /// recovery.
  void peer_unreachable(LiveNodeId peer) REQUIRES(state_mu_);

  /// Sends a frame; on failure marks the peer unreachable.  Caller must
  /// hold state_mu_.  Prefers the transport's interned-id fast path (a
  /// direct-mapped per-node cache, no per-send string work); falls back
  /// to a by-name send on transports without interning.
  bool send_to(LiveNodeId peer, std::string_view addr,
               std::vector<std::uint8_t> frame) REQUIRES(state_mu_);

  /// Sends a reply to the sender of the message currently being handled.
  /// Uses the delivering transport's interned sender id when the header's
  /// advertised address matches the transport-level source (always true
  /// in-tree), avoiding a per-reply by-name lookup.
  bool send_reply(const Header& h, std::vector<std::uint8_t> frame)
      REQUIRES(state_mu_);

  /// A ByteWriter over a transport-pooled buffer (the frame-encode path).
  util::ByteWriter frame_writer() { return util::ByteWriter(transport_->acquire_buffer()); }

  Header header(MsgType type) const;
  const std::vector<WirePoint>& wire_guests() const REQUIRES(state_mu_);

  const LiveNodeId id_;
  std::shared_ptr<const space::MetricSpace> space_;
  std::unique_ptr<Transport> transport_;
  Address addr_;  // cached transport_->address()
  AsyncConfig cfg_;
  const ClockFn clock_;  // set at construction, read lock-free

  /// Guards all protocol state below (views, guests, ghosts, migration
  /// handshake, the scratch buffers, the endpoint cache) across the two
  /// threads that may touch it: the driver (tick) and the transport pump
  /// (on_message).
  mutable util::Mutex state_mu_;
  util::Rng rng_ GUARDED_BY(state_mu_);

  // Storage placement: the arena all view storage is carved from, and the
  // working buffers.  Shared-fleet nodes point at their cluster's; a
  // standalone node owns private ones (own_*).  The pointers are set at
  // construction; the pointed-to scratch is protocol state (see
  // AsyncScratch: externally synchronized — here by state_mu_).
  std::unique_ptr<util::Arena> own_arena_;
  std::unique_ptr<AsyncScratch> own_scratch_;
  util::Arena* arena_;
  AsyncScratch* scratch_ PT_GUARDED_BY(state_mu_);

  // RPS state: Cyclon view, cap cfg_.rps_view.
  PeerList rps_view_ GUARDED_BY(state_mu_);

  // T-Man state: ranked descriptor view, cap tman_phys_cap(cfg_).
  TmanView tman_view_ GUARDED_BY(state_mu_);
  /// True while tman_view_ is sorted by (distance to pos_, id) — set by
  /// the rank sites, cleared when pos_ moves or unranked entries appear.
  /// The re-rank is lazy: reproject only clears it, and the next step_tman
  /// or merge ranks the view.
  bool tman_ranked_ GUARDED_BY(state_mu_) = false;
  space::Point pos_ GUARDED_BY(state_mu_);
  std::uint64_t pos_version_ GUARDED_BY(state_mu_) = 1;

  // Polystyrene state.
  core::PointSet guests_ GUARDED_BY(state_mu_);
  /// Ghost sets keyed by origin id, ascending (the recovery merge order);
  /// see GhostTable for the slot-recycling erase.
  GhostTable ghosts_ GUARDED_BY(state_mu_);
  /// Backup targets, cap cfg_.replication (ages unused).
  PeerList backups_ GUARDED_BY(state_mu_);

  // Migration handshake.
  bool migrating_ GUARDED_BY(state_mu_) = false;
  LiveNodeId migrate_partner_ GUARDED_BY(state_mu_) = 0;
  int migrate_ticks_left_ GUARDED_BY(state_mu_) = 0;  // timeout countdown

  /// Frames rejected at the decode boundary (see the accessor).  Guarded
  /// by state_mu_ like the scratch it protects: the increment happens in
  /// on_message's CodecError catch.
  std::uint64_t frames_rejected_ GUARDED_BY(state_mu_) = 0;
  std::uint64_t frames_overlong_ GUARDED_BY(state_mu_) = 0;  ///< see accessor

  // Reply fast path: the interned sender id and transport-level source
  // address of the message currently in on_message (null outside it).
  EndpointId reply_ep_ GUARDED_BY(state_mu_) = kInvalidEndpointId;
  const Address* reply_from_ GUARDED_BY(state_mu_) = nullptr;

  // Interned-endpoint cache, direct-mapped by peer id: peer -> transport
  // endpoint id, filled on first send, invalidated when the peer becomes
  // unreachable, evicted by collision.  A node's per-tick contacts are a
  // handful of stable ids (tman target, K backups, migration partner)
  // plus one churning RPS target, so 32 slots cover the stable set; a
  // collision just re-resolves.  Peer ids are never reused by the
  // clusters, so a cached id is never stale in the dangerous direction
  // (it can only point at a dead endpoint, where send fails exactly like
  // the by-name path would).
  struct EpCacheSlot {
    LiveNodeId id = 0;
    EndpointId ep = kInvalidEndpointId;
  };
  static constexpr std::size_t kEpCacheSlots = 32;
  util::ArenaVec<EpCacheSlot> ep_cache_ GUARDED_BY(state_mu_);
};

}  // namespace poly::net
