// Message transport abstraction for the AsyncNode fleet.
//
// The paper assumes "message-passing nodes that communicate over reliable
// channels (e.g. TCP)" (§III-A) but evaluates in a round-based simulator.
// This module supplies the real substrate: an address-based transport with
// reliable in-order delivery per sender-receiver pair.  Implementations:
//
//   * EngineTransport — delivery as events of the discrete-event kernel
//     (engine/engine_transport.hpp), on either of the fleet's clocks.
//   * TcpTransport    — length-prefixed frames over localhost TCP sockets.
//
// Delivery is callback-based, and in a fleet every handler runs on the
// fleet's loop thread: the hub delivers from engine events, and TCP reader
// threads queue frames in the fleet's Inbox for the loop to deliver
// (net/inbox.hpp).  So handlers need no lock.  A TcpTransport built
// without an inbox runs the handler on its reader threads instead.
//
// Interned addressing (the engine hot path): string addresses are the
// portable identity, but hashing one per send is measurable at 100k-node
// scale, so a transport may intern addresses into dense `EndpointId`s.
// `resolve()` maps an address to its id once; `send(EndpointId, ...)` then
// skips the by-name lookup.  Ids are stable for the lifetime of the
// network and never reused, so a cached id either reaches the same
// endpoint or fails like any send to a crashed peer.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace poly::net {

/// Opaque endpoint address.  For EngineTransport this is a registry key;
/// for TcpTransport a "host:port" string.
using Address = std::string;

/// Dense interned form of an Address (transports that support it).
using EndpointId = std::uint32_t;
inline constexpr EndpointId kInvalidEndpointId = 0xffffffffu;

/// A received datagram-style message (framing is the transport's job).
struct Message {
  Address from;
  std::vector<std::uint8_t> payload;
  /// Interned id of `from` on the receiving transport, when the transport
  /// knows it (engine hub deliveries); kInvalidEndpointId otherwise.
  /// Receivers can reply through it without a by-name lookup.
  EndpointId from_ep = kInvalidEndpointId;
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

  /// The address peers can send to.
  virtual Address address() const = 0;

  /// Registers the receive callback.  Must be called before messages are
  /// expected; replacing the handler is allowed between quiescent points.
  virtual void set_handler(MessageHandler handler) = 0;

  /// Sends `payload` to `to`.  Returns false if the destination is
  /// unreachable (unknown address, connection refused, peer closed).
  /// Reliable transports never silently drop an accepted message.
  virtual bool send(const Address& to, std::vector<std::uint8_t> payload) = 0;

  /// Interns `to` into a dense endpoint id, when this transport supports
  /// interned addressing and the address is currently registered.
  /// Default: unsupported (kInvalidEndpointId) — callers fall back to
  /// string sends.
  virtual EndpointId resolve(const Address& to) const {
    (void)to;
    return kInvalidEndpointId;
  }

  /// Sends to an interned endpoint id previously returned by resolve().
  /// Same semantics as the string overload; default: unsupported (false).
  virtual bool send(EndpointId to, std::vector<std::uint8_t> payload) {
    (void)to;
    (void)payload;
    return false;
  }

  /// A payload buffer to encode the next frame into — recycled from the
  /// transport's pool when it keeps one (empty, but typically with the
  /// capacity of a previous same-sized frame).  Default: a fresh vector.
  virtual std::vector<std::uint8_t> acquire_buffer() { return {}; }

  /// Stops delivering messages and releases resources.  Idempotent.
  virtual void shutdown() = 0;
};

}  // namespace poly::net
