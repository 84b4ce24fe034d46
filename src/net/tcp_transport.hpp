// TCP transport: length-prefixed frames over POSIX sockets.
//
// The paper's system model is "message-passing nodes that communicate over
// reliable channels (e.g. TCP)" (§III-A).  This transport provides exactly
// that: each endpoint listens on 127.0.0.1:<ephemeral-port>; outgoing
// connections are cached per destination; frames are
//
//     u32 payload_length | payload
//
// Send failures (connection refused / peer closed) return false, which the
// async runtime uses as its contact-failure signal — the same signal the
// simulator's failure detector abstracts.
//
// Nodes reach each other by id through a TcpDirectory: the fleet writes
// where each node listens, and a transport's endpoint for node i is the
// directory's slot i, so a send connects to wherever node i listens now.
//
// Threads: an accept thread, plus one reader thread per inbound
// connection.  Over an Inbox (the fleet's TCP mode) readers only queue
// frames, and the inbox owner's loop thread runs the handler; without one,
// each reader runs the handler itself.
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/transport.hpp"
#include "util/thread_annotations.hpp"

namespace poly::net {

class Inbox;

/// Where each node of a TCP fleet listens ("host:port"), indexed by node
/// id; an empty entry is a node not yet bound.  Its owner writes a node's
/// entry whenever the node binds a transport (at start and on recovery);
/// the transports read it on send.  Both happen on the fleet's loop
/// thread, so it holds no lock.
using TcpDirectory = std::vector<Address>;

class TcpTransport final : public Transport {
 public:
  /// Binds to 127.0.0.1 on an ephemeral port and starts the accept loop.
  /// With an `inbox`, received frames are queued there for the inbox
  /// owner to deliver; the inbox must outlive the transport.  With a
  /// `directory` (which must outlive it too), the transport reaches nodes
  /// by id.  Throws std::runtime_error if the socket cannot be
  /// created/bound.
  explicit TcpTransport(Inbox* inbox = nullptr,
                        const TcpDirectory* directory = nullptr);
  ~TcpTransport() override;

  Address address() const override { return address_; }
  void set_handler(MessageHandler handler) override;
  /// `node` itself when the directory knows where it listens.
  EndpointId resolve(LiveNodeId node) const override;
  /// Sends to the address in directory slot `to`.
  bool send(EndpointId to, std::vector<std::uint8_t> payload) override;
  /// Sends to the endpoint listening at `to` (the connect edge).
  bool send(const Address& to, std::vector<std::uint8_t> payload);
  void shutdown() override;

 private:
  friend class Inbox;

  void accept_loop();
  void read_loop(int fd);
  /// Runs the handler on `msg` unless the transport has shut down.
  void dispatch(Message& msg);
  /// Returns a connected socket to `to` (cached), or -1.
  int connection_to(const Address& to);

  Inbox* const inbox_;
  const TcpDirectory* const directory_;
  Address address_;
  int listen_fd_ = -1;
  std::thread accept_thread_;

  util::Mutex handler_mu_;
  MessageHandler handler_ GUARDED_BY(handler_mu_);

  /// Guards the outgoing-connection cache; also serializes frame writes
  /// (write_all under conn_mu_ keeps concurrent sends from interleaving
  /// one frame inside another).
  util::Mutex conn_mu_;
  std::unordered_map<Address, int> outgoing_ GUARDED_BY(conn_mu_);

  struct Reader {
    int fd;
    std::thread thread;
  };
  util::Mutex readers_mu_;
  std::vector<Reader> readers_ GUARDED_BY(readers_mu_);

  std::atomic<bool> stopped_{false};
};

}  // namespace poly::net
