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
//   * a send names the destination node; one array read maps the node to
//     its live endpoint, and neither send nor delivery touches a name;
//   * each frame is one engine event, due at the send time plus the drawn
//     latency (no rounding); frames due at one instant run in send order,
//     because the kernel runs same-instant events FIFO;
//   * per-endpoint state lives in contiguous tables indexed by the hub's
//     dense endpoint ids: the per-delivery dead-endpoint check walks the
//     8-byte transport-pointer table, and each endpoint's clamp-key list
//     indexes the FIFO-clamp entries it participates in, so a crash
//     cleans up in O(degree), not O(table);
//   * payload vectors come from a hub pool: encode writes into a recycled
//     buffer, and after delivery (or a drop) the buffer returns to the
//     pool — zero steady-state allocation per message;
//   * the delivery closure (hub pointer + endpoint id + the pooled
//     vector) fits EventFn's inline storage, so scheduling doesn't
//     allocate.
//
// Semantics match the live transports where it matters to the protocol:
//   * send() returns false when the destination node has no live endpoint
//     — peers observe crashes as contact failures;
//   * a send reaches the node's live endpoint, whichever life of the node
//     that is (as TCP reaches a recovered node at its new port);
//   * a frame in flight to an endpoint that shuts down before delivery is
//     discarded silently (as a TCP segment to a dead process would be),
//     even after its node has recovered under a new endpoint;
//   * per sender→receiver FIFO is preserved even under jittered latency
//     (delivery times are clamped monotone per pair).
//
// Endpoints have no names: address() spells the endpoint's node
// ("node-<id>"), for logs and codec probes.
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

/// Dense id of an endpoint on an EngineHub, in creation order and never
/// reused.  The hub's own key: nodes address each other by node id.
using EndpointId = std::uint32_t;
inline constexpr EndpointId kNoEndpoint = 0xffffffffu;

/// One endpoint of an EngineHub.  Single-threaded: use only from engine
/// event handlers or from the thread driving the engine.
class EngineTransport final : public net::Transport {
 public:
  ~EngineTransport() override;

  /// "node-<id>" for the node this endpoint was made for.
  net::Address address() const override;
  void set_handler(net::MessageHandler handler) override;
  bool send(net::LiveNodeId to, std::vector<std::uint8_t> payload) override;
  std::vector<std::uint8_t> acquire_buffer() override;
  void shutdown() override;

 private:
  friend class EngineHub;
  EngineTransport(EngineHub* hub, EndpointId id, std::uint32_t node);

  void dispatch(net::Message& msg);

  EngineHub* hub_;
  EndpointId id_;
  std::uint32_t node_;  ///< the node this endpoint was made for
  net::MessageHandler handler_;
  bool stopped_ = false;
};

/// The endpoint registry + delivery scheduler.  One hub per emulated
/// network; endpoints must not outlive the hub.
class EngineHub {
 public:
  /// `link` defaults to the zero link.
  explicit EngineHub(EventEngine& engine, LinkModel link = {});

  EngineHub(const EngineHub&) = delete;
  EngineHub& operator=(const EngineHub&) = delete;

  /// Creates the next endpoint, for node `node`.  Throws
  /// std::invalid_argument when the node already has a live endpoint, or
  /// when `node` does not fit the table.
  std::unique_ptr<EngineTransport> make_endpoint(net::LiveNodeId node);

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
  /// the node -> endpoint table, FIFO clamps and the buffer pool
  /// (capacities, i.e. the retained footprint).  One line of the fleet
  /// memory audit (EventCluster::memory_breakdown).
  std::size_t approx_bytes() const;

 private:
  friend class EngineTransport;

  /// Pool cap: bounds retained capacity to the scenario's in-flight
  /// high-water mark (beyond it, buffers are simply freed).
  static constexpr std::size_t kPoolCap = 1u << 16;

  /// One frame in flight, scheduled as its own engine event.  Sized to
  /// fit EventFn's inline storage.
  struct Delivery {
    EngineHub* hub;
    EndpointId to;
    std::vector<std::uint8_t> payload;
    void operator()() { hub->deliver(to, payload); }
  };

  /// The live endpoint of `node`, or kNoEndpoint when it has none.
  EndpointId endpoint_of(net::LiveNodeId node) const noexcept {
    return node < node_ep_.size() ? node_ep_[node] : kNoEndpoint;
  }
  bool send_from(const EngineTransport& from, net::LiveNodeId to,
                 std::vector<std::uint8_t> payload);
  /// Delivers one frame to endpoint `to` — unless it died since the send —
  /// and recycles the payload buffer.
  void deliver(EndpointId to, std::vector<std::uint8_t>& payload);
  void unregister(const EngineTransport& ep);

  EventEngine& engine_;
  LinkModel link_;
  util::Rng rng_;  // link randomness, split off the engine stream
  fault::FaultPlane* plane_ = nullptr;  // optional, not owned

  /// Per-endpoint tables, indexed by EndpointId.  transports_[id] ==
  /// nullptr marks a dead endpoint; clamp_keys_[id] lists the FIFO-clamp
  /// entries id participates in, so unregister erases exactly its own.
  std::vector<EngineTransport*> transports_;
  std::vector<std::vector<std::uint64_t>> clamp_keys_;

  /// node_ep_[node] is the node's live endpoint, kNoEndpoint when it has
  /// none.
  std::vector<EndpointId> node_ep_;

  /// Last scheduled delivery per (from, to) endpoint pair; populated only
  /// when the link model or the fault plane can reorder (fixed-latency
  /// runs keep this empty).
  std::unordered_map<std::uint64_t, SimTime> fifo_clamp_;

  std::vector<std::vector<std::uint8_t>> pool_;

  std::uint64_t sent_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_ = 0;

  /// Single-threaded by contract, like the engine it schedules on: every
  /// send/registration must come from the thread driving the engine (or
  /// from its event handlers).  Debug-only tripwire, binds on first use.
  util::SingleThreadChecker thread_check_;
};

}  // namespace poly::engine
