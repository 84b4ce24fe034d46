// Event-driven transport: net::Transport over the discrete-event kernel.
//
// EngineHub is the fleet's in-process network — a registry of endpoints,
// each registered for one node — whose delivery is an *event*: send()
// draws a latency (and possibly a drop) from the hub's LinkModel and
// schedules the receiver's handler at now + latency on the engine.  No
// threads, no mailboxes: handlers run inline in the engine loop, in
// deterministic timestamp order, on either of the fleet's clocks.
//
// The hub is built for the 100k-node steady state, where every protocol
// message passes through it:
//
//   * endpoints are dense EndpointIds, and one endpoint <-> node table
//     maps each endpoint to its node and each node to its live endpoint;
//     a send resolves a node id with one array read (protocol layers
//     cache resolve()d ids), and neither send nor delivery touches a name;
//   * each endpoint's hub-side state — transport pointer, node, FIFO-clamp
//     keys, delivery-batching rendezvous — lives in type-segregated
//     contiguous slabs indexed by EndpointId, split by access pattern so
//     the per-send hot walk stays inside the two dense tables (transport
//     pointers, 8 B/endpoint; open-instant marks, 32 B/endpoint) and the
//     cold per-endpoint tables are only touched by the paths that need
//     them;
//   * per-pair FIFO clamps (jittered links only) key on the id pair, and
//     each endpoint's slot indexes the clamp entries it participates in,
//     so a crash cleans up in O(degree), not O(table);
//   * same-destination deliveries are batched: the first frame due at a
//     given (destination, instant) — optionally rounded up to a
//     `batch_window` boundary, see the constructor — schedules one
//     delivery event and travels inline in its closure (the PR-4 fast
//     path, unchanged); any further frames for that instant coalesce
//     into a per-destination Batch the head event drains right after its
//     own frame.  The receiver's state stays cache-hot while its frames
//     drain, the scheduler sees one event per instant instead of one per
//     frame (reply bursts make multi-frame instants common), and the
//     single-frame common case pays only an inline open-instant marker
//     check on the slot it already touches;
//   * payload vectors come from a hub pool: encode writes into a recycled
//     buffer, and after delivery (or a drop) the buffer returns to the
//     pool — zero steady-state allocation per message;
//   * the delivery closure (hub pointer + two ids + the pooled vector)
//     fits EventFn's inline storage, so scheduling doesn't allocate.
//
// Semantics match the live transports where it matters to the protocol:
//   * send() returns false when the destination is not (or no longer)
//     registered — peers observe crashes as contact failures;
//   * a frame in flight to an endpoint that shuts down before delivery is
//     discarded silently (as a TCP segment to a dead process would be);
//   * per sender→receiver FIFO is preserved even under jittered latency
//     (delivery times are clamped monotone per pair).
//
// Endpoints have no names: address() spells the endpoint's node
// ("node-<id>") from the table, for logs and codec probes.
//
// Lifetime: the hub must outlive the engine's pending delivery events (in
// practice: destroy the engine first, or simply stop running it).
// Endpoint ids are never reused; a node whose endpoint died may be
// registered again under a fresh endpoint id.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/event_engine.hpp"
#include "engine/link_model.hpp"
#include "fault/fault_plane.hpp"
#include "net/transport.hpp"
#include "util/thread_annotations.hpp"

namespace poly::engine {

class EngineHub;

/// One endpoint of an EngineHub.  Single-threaded: use only from engine
/// event handlers or from the thread driving the engine.
class EngineTransport final : public net::Transport {
 public:
  ~EngineTransport() override;

  /// "node-<id>" for the node this endpoint was made for.
  net::Address address() const override;
  void set_handler(net::MessageHandler handler) override;
  /// The node's live endpoint on this hub (EngineHub::endpoint_of).
  net::EndpointId resolve(net::LiveNodeId node) const override;
  bool send(net::EndpointId to, std::vector<std::uint8_t> payload) override;
  std::vector<std::uint8_t> acquire_buffer() override;
  void shutdown() override;

  /// This endpoint's id within its hub.
  net::EndpointId endpoint_id() const noexcept { return id_; }

 private:
  friend class EngineHub;
  EngineTransport(EngineHub* hub, net::EndpointId id);

  void dispatch(net::Message& msg);

  EngineHub* hub_;
  net::EndpointId id_;
  net::MessageHandler handler_;
  bool stopped_ = false;
};

/// The endpoint registry + delivery scheduler.  One hub per emulated
/// network; endpoints must not outlive the hub.
class EngineHub {
 public:
  /// `link` defaults to the zero link.
  ///
  /// `batch_window > 0` turns on windowed delivery batching: every
  /// delivery time is rounded *up* to the next multiple of the window, so
  /// frames for one destination due within a window share a single flush
  /// event.  The rounding is a monotone map of delivery times, so
  /// per-pair FIFO survives; the cost is up to one window of extra
  /// latency per frame.  With `batch_window == 0` (the default) delivery
  /// times are exact and only frames with *identical* due times coalesce
  /// (e.g. zero-latency hubs), which preserves the precise latency the
  /// link model drew.
  EngineHub(EventEngine& engine, LinkModel link = {},
            SimTime batch_window = SimTime::zero());

  EngineHub(const EngineHub&) = delete;
  EngineHub& operator=(const EngineHub&) = delete;

  /// Creates the next dense EndpointId, for node `node`.  Throws
  /// std::invalid_argument when the node already has a live endpoint, or
  /// when `node` does not fit the table.
  std::unique_ptr<EngineTransport> make_endpoint(net::LiveNodeId node);

  /// The live endpoint of `node`, or kInvalidEndpointId when it has none.
  net::EndpointId endpoint_of(net::LiveNodeId node) const noexcept {
    return node < node_ep_.size() ? node_ep_[node] : net::kInvalidEndpointId;
  }

  EventEngine& engine() noexcept { return engine_; }

  /// Installs a fault plane (docs/FAULTS.md): send_from consults it once
  /// per frame, after the dead-destination check and the link model's own
  /// drop draw.  `plane` must outlive the hub's traffic; pass nullptr to
  /// detach.  An installed-but-ruleless plane makes zero RNG draws and
  /// leaves trajectories bit-identical to no plane at all.
  void set_fault_plane(fault::FaultPlane* plane) noexcept { plane_ = plane; }

  // Traffic counters (frames).
  std::uint64_t frames_sent() const noexcept { return sent_; }
  std::uint64_t frames_delivered() const noexcept { return delivered_; }
  std::uint64_t frames_dropped() const noexcept { return dropped_; }

  // Buffer pool (shared by endpoint encode paths and delivery events).
  //
  // Ownership rule: a buffer leaves the pool via acquire_buffer(), is
  // filled by the sender's encode path, and travels with the frame until
  // the hub is done with it — after the receiving handler returns (or the
  // frame is dropped / the receiver is gone), release_buffer() takes it
  // back.  A handler that moves the payload out of its Message keeps the
  // buffer; the hub then recycles nothing and the pool simply refills
  // from later traffic.  Buffers are plain vectors: releasing a buffer
  // the pool didn't hand out is fine, and the pool cap bounds retained
  // capacity to the scenario's in-flight high-water mark.
  std::vector<std::uint8_t> acquire_buffer();
  void release_buffer(std::vector<std::uint8_t> buf);

  /// Approximate heap bytes retained by the hub: the per-endpoint tables,
  /// the endpoint <-> node table, batching state, FIFO clamps and both
  /// buffer pools (capacities, i.e. the retained footprint).  One line of
  /// the fleet memory audit (EventCluster::memory_breakdown).
  std::size_t approx_bytes() const;

 private:
  friend class EngineTransport;

  /// Pool cap: bounds retained capacity to the scenario's in-flight
  /// high-water mark (beyond it, buffers are simply freed).
  static constexpr std::size_t kPoolCap = 1u << 16;
  /// Cap on recycled per-batch frame vectors (same idea as kPoolCap).
  static constexpr std::size_t kFramePoolCap = 1u << 12;

  /// Inline open-instant markers per endpoint (overflow spills into the
  /// endpoint's batch list as frame-less entries).
  static constexpr std::uint32_t kOpenInline = 3;

  /// One follower frame parked in a destination batch.
  struct PendingFrame {
    net::EndpointId from;
    std::vector<std::uint8_t> payload;
  };

  /// Follower frames for one destination due at one instant, drained by
  /// that instant's head delivery event in enqueue (= send) order.  An
  /// entry with empty `frames` is an overflow open-instant marker.
  struct Batch {
    SimTime at{};
    std::vector<PendingFrame> frames;
  };

  /// The delivery-batching rendezvous, one 32-byte record per endpoint:
  /// `at[0..inline_count)` marks the instants with a scheduled head
  /// delivery; bit i of `follower_bits` records that inline instant i has
  /// follower frames parked in batches_[id]; `overflow_count` counts
  /// additional marked instants parked in batches_[id] as frame-less
  /// entries (only under pathological latency spreads).  Send and
  /// deliver read exactly this record and transports_[id] on the
  /// single-frame common path — batches_[id] stays untouched unless a
  /// frame actually coalesces.
  struct OpenMarks {
    std::uint16_t inline_count = 0;
    std::uint16_t overflow_count = 0;
    std::uint32_t follower_bits = 0;
    SimTime at[kOpenInline]{};
  };

  /// The scheduled head delivery: the instant's first frame, carried
  /// inline.  Sized to exactly fit EventFn's inline storage; the event's
  /// execution time identifies the instant to drain.
  struct Delivery {
    EngineHub* hub;
    net::EndpointId from;
    net::EndpointId to;
    std::vector<std::uint8_t> payload;
    void operator()() { hub->deliver_head(from, to, std::move(payload)); }
  };

  bool send_from(net::EndpointId from, net::EndpointId to,
                 std::vector<std::uint8_t> payload);
  /// Marks the (destination, instant) rendezvous and schedules or parks
  /// one frame — the tail of send_from, factored out so duplicated frames
  /// enqueue through the identical batching path.
  void enqueue_frame(net::EndpointId from, net::EndpointId to, SimTime at,
                     std::vector<std::uint8_t> payload);
  /// Delivers the head frame, clears the instant's open marker, and
  /// drains any followers that coalesced at this instant.
  void deliver_head(net::EndpointId from, net::EndpointId to,
                    std::vector<std::uint8_t> payload);
  /// Delivers one frame to `to` (routing at delivery time: the receiver
  /// may be gone) and recycles the payload buffer.
  void deliver_one(net::EndpointId from, net::EndpointId to,
                   std::vector<std::uint8_t>& payload);
  void unregister(net::EndpointId id);

  EventEngine& engine_;
  LinkModel link_;
  util::Rng rng_;  // link randomness, split off the engine stream
  SimTime batch_window_;
  fault::FaultPlane* plane_ = nullptr;  // optional, not owned

  /// Per-endpoint state as type-segregated contiguous slabs, all indexed
  /// by EndpointId.  Splitting by access pattern (instead of one big
  /// per-endpoint record) keeps each path's working set dense: the
  /// per-send dead-endpoint check walks an 8-byte-stride table, the
  /// batching rendezvous a 32-byte-stride one, and the cold tables
  /// (follower batches, clamp keys) are only pulled in by the paths that
  /// need them.
  ///
  /// transports_[id] == nullptr marks a dead endpoint; clamp_keys_[id]
  /// lists the FIFO-clamp entries id participates in, so unregister erases
  /// exactly its own entries; batches_[id] holds id's follower frames per
  /// open instant (a handful of entries, scanned linearly).
  std::vector<EngineTransport*> transports_;
  std::vector<OpenMarks> marks_;
  std::vector<std::vector<Batch>> batches_;
  std::vector<std::vector<std::uint64_t>> clamp_keys_;

  /// The endpoint <-> node table.  ep_node_[ep] is the node endpoint ep
  /// was made for, kept after ep dies (a frame in flight from it still
  /// belongs to its node, and the fault plane matches it by node);
  /// node_ep_[node] is the node's live endpoint, kInvalidEndpointId when
  /// it has none.
  std::vector<std::uint32_t> ep_node_;
  std::vector<net::EndpointId> node_ep_;

  /// Last scheduled (pre-rounding) delivery per (from, to) id pair;
  /// populated only when the link model can reorder (fixed-latency runs
  /// keep this empty).
  std::unordered_map<std::uint64_t, SimTime> fifo_clamp_;

  std::vector<std::vector<std::uint8_t>> pool_;
  std::vector<std::vector<PendingFrame>> frame_pool_;

  std::uint64_t sent_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_ = 0;

  /// Single-threaded by contract, like the engine it schedules on: every
  /// send/registration must come from the thread driving the engine (or
  /// from its event handlers).  Debug-only tripwire, binds on first use.
  util::SingleThreadChecker thread_check_;
};

}  // namespace poly::engine
