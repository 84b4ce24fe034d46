// Message transport abstraction for the AsyncNode fleet.
//
// The paper assumes "message-passing nodes that communicate over reliable
// channels (e.g. TCP)" (§III-A) but evaluates in a round-based simulator.
// This module supplies the real substrate: a transport with reliable
// in-order delivery per sender-receiver pair.  Implementations:
//
//   * EngineTransport — delivery as events of the discrete-event kernel
//     (engine/engine_transport.hpp), on either of the fleet's clocks.
//   * TcpTransport    — length-prefixed frames over localhost TCP sockets.
//
// Delivery is callback-based, and in a fleet every handler runs on the
// fleet's loop thread: the hub delivers from engine events, and a TcpHub
// delivers the frames it reads from the sockets its one poll reported
// ready (net/tcp_transport.hpp).  So handlers need no lock.
//
// Identity by id: a node is its LiveNodeId, and that id is all a node
// hands its transport.  `send(node, ...)` reaches the node's live
// endpoint, which the transport looks up itself, so no per-send path
// builds, hashes or copies a name.  Names (`Address`) stay at the edges:
// endpoint registration, TCP connects, logs and tests.  A send reaches
// whichever life of a node is live now; a frame in flight to an earlier
// life dies with it.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace poly::net {

/// Logical node identity in the live runtime: what nodes gossip and
/// address frames to.
using LiveNodeId = std::uint64_t;

/// An endpoint's name, for logs and tests: "node-<id>" for
/// EngineTransport, the "host:port" it listens on for TcpTransport.
using Address = std::string;

/// A received datagram-style message (framing is the transport's job).
/// The sender is whoever the payload's header names.
struct Message {
  std::vector<std::uint8_t> payload;
};

/// Handler invoked on message arrival (see above for the thread).  The
/// transport retains ownership of the message: handlers read it in place
/// and move from `payload` only if they need to keep the bytes.  This lets
/// pooling transports recycle the payload buffer after the handler
/// returns instead of allocating one per message.
using MessageHandler = std::function<void(Message&)>;

/// Abstract reliable point-to-point transport.
class Transport {
 public:
  virtual ~Transport() = default;

  /// The name peers' transports know this endpoint by (logs, tests).
  virtual Address address() const = 0;

  /// Registers the receive callback.  Must be called before messages are
  /// expected; replacing the handler is allowed between quiescent points.
  virtual void set_handler(MessageHandler handler) = 0;

  /// Sends `payload` to node `to`'s live endpoint.  Returns false if it
  /// is unreachable (no live endpoint, connection refused, peer closed).
  /// Reliable transports never silently drop an accepted message.
  virtual bool send(LiveNodeId to, std::vector<std::uint8_t> payload) = 0;

  /// A payload buffer to encode the next frame into — recycled from the
  /// transport's pool when it keeps one (empty, but typically with the
  /// capacity of a previous same-sized frame).  Default: a fresh vector.
  virtual std::vector<std::uint8_t> acquire_buffer() { return {}; }

  /// Stops delivering messages and releases resources.  Idempotent.
  virtual void shutdown() = 0;
};

}  // namespace poly::net
