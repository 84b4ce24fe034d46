// TCP transport: length-prefixed frames over localhost sockets, all of a
// fleet's sockets polled by one thread.
//
// The paper's system model is "message-passing nodes that communicate over
// reliable channels (e.g. TCP)" (§III-A).  This transport provides exactly
// that: each endpoint listens on 127.0.0.1:<ephemeral-port>, keeps one
// outgoing connection per peer it sends to, and frames are
//
//     u32 payload_length | payload
//
// TcpHub is the TCP fleet's network, as EngineHub is the virtual one: it
// knows each node's live endpoint (hence where the node listens) and owns
// the one wait.  Every socket is non-blocking and no endpoint has a thread:
//
//   * wait() polls every live endpoint's listen socket, its inbound
//     connections, and its outgoing connections that hold unwritten bytes,
//     until one is ready or the timeout passes;
//   * deliver() serves only the descriptors that wait() reported ready: it
//     accepts pending connects, writes queued bytes, and reads each ready
//     inbound connection once, assembling frames across partial reads and
//     running the handler of every complete one on the caller's thread.
//
// Send failures (no live endpoint for the node, connection refused or
// reset) return false, which the async runtime uses as its contact-failure
// signal — the same signal the simulator's failure detector abstracts.  An
// endpoint that shuts down leaves the hub, and every peer closes its
// connection to it, so sends to its node fail until the node binds a new
// endpoint.
#pragma once

#include <poll.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "net/transport.hpp"

namespace poly::net {

class TcpTransport;

/// A TCP fleet's endpoints, by node id, and the poll over their sockets.
/// Single-threaded: every call, and every handler deliver() runs, is on
/// one thread.  Endpoints must not outlive their hub.
class TcpHub {
 public:
  TcpHub() = default;
  TcpHub(const TcpHub&) = delete;
  TcpHub& operator=(const TcpHub&) = delete;

  /// Binds a fresh endpoint for `node` on 127.0.0.1, at a port the kernel
  /// picks.  Throws std::invalid_argument when the node already has a live
  /// endpoint, and std::runtime_error when the socket cannot be bound.
  std::unique_ptr<TcpTransport> make_endpoint(LiveNodeId node);

  /// Blocks until a socket of a live endpoint is ready or `timeout`
  /// passes; returns how many are ready.  With no endpoint it only sleeps.
  std::size_t wait(std::chrono::nanoseconds timeout);

  /// Serves the sockets the last wait() reported ready; returns how many
  /// frames it handed to handlers.  Handlers must not shut an endpoint
  /// down.
  std::size_t deliver();

 private:
  friend class TcpTransport;

  /// What a polled descriptor is to its endpoint.
  enum class Role : std::uint8_t { kListen, kInbound, kOutbound };
  struct Polled {
    TcpTransport* endpoint;
    Role role;
    /// kInbound: the endpoint's in_ index; kOutbound: the peer node id.
    std::uint32_t slot;
  };

  /// The live endpoint of `node`, or nullptr.
  const TcpTransport* endpoint_of(LiveNodeId node) const noexcept {
    return node < endpoints_.size() ? endpoints_[node] : nullptr;
  }
  /// Removes `t` from the directory and closes every peer's connection to
  /// it; drops the ready set, which may name its sockets.
  void unbind(const TcpTransport& t);

  std::vector<TcpTransport*> endpoints_;  ///< by node id; nullptr: none live
  /// The last wait()'s poll set, and what each entry is (same index).
  std::vector<pollfd> poll_set_;
  std::vector<Polled> polled_;
};

/// One node's endpoint on a TcpHub.
class TcpTransport final : public Transport {
 public:
  ~TcpTransport() override;
  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  /// "127.0.0.1:<port>", where this endpoint listens.
  Address address() const override { return address_; }
  void set_handler(MessageHandler handler) override;
  /// Queues one frame for node `to`'s live endpoint and writes what the
  /// socket takes now; the rest goes out when the hub's poll reports the
  /// socket writable.
  bool send(LiveNodeId to, std::vector<std::uint8_t> payload) override;
  /// Leaves the hub and closes every socket.
  void shutdown() override;

 private:
  friend class TcpHub;

  /// One connection.  `buf` holds the bytes of frames not yet complete
  /// (inbound) or not yet written (outbound).  fd -1 is a closed one: the
  /// next wait() sweeps it from in_, and an out_ slot reconnects on the
  /// next send.
  struct Conn {
    int fd = -1;
    std::vector<std::uint8_t> buf;
  };

  TcpTransport(TcpHub& hub, LiveNodeId node);

  /// Accepts every connect waiting in the listen backlog.
  void accept_pending();
  /// Reads once from `c` and hands every frame it completes to the
  /// handler; returns how many.  EOF, an error or an oversized length
  /// prefix closes the connection, and a partial frame dies with it.
  std::size_t read_frames(Conn& c);
  /// Writes what `c` has queued until the socket would block; false on a
  /// failed connection.
  static bool flush(Conn& c);
  static void close(Conn& c);

  TcpHub* hub_;
  LiveNodeId node_;
  Address address_;
  int listen_fd_ = -1;
  MessageHandler handler_;
  std::vector<Conn> in_;   ///< accepted connections
  std::vector<Conn> out_;  ///< by peer node id
  bool stopped_ = false;
};

}  // namespace poly::net
