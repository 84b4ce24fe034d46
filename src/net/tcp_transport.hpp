// TCP transport: length-prefixed frames over POSIX sockets.
//
// The paper's system model is "message-passing nodes that communicate over
// reliable channels (e.g. TCP)" (§III-A).  This transport provides exactly
// that: each endpoint listens on 127.0.0.1:<ephemeral-port>; outgoing
// connections are cached per destination; frames are
//
//     u32 payload_length | u32 from_length | from_addr | payload
//
// Send failures (connection refused / peer closed) return false, which the
// async runtime uses as its contact-failure signal — the same signal the
// simulator's failure detector abstracts.
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

class TcpTransport final : public Transport {
 public:
  /// Binds to 127.0.0.1 on an ephemeral port and starts the accept loop.
  /// With an `inbox`, received frames are queued there for the inbox
  /// owner to deliver; the inbox must outlive the transport.  Throws
  /// std::runtime_error if the socket cannot be created/bound.
  explicit TcpTransport(Inbox* inbox = nullptr);
  ~TcpTransport() override;

  Address address() const override { return address_; }
  void set_handler(MessageHandler handler) override;
  bool send(const Address& to, std::vector<std::uint8_t> payload) override;
  void shutdown() override;

 private:
  friend class Inbox;

  void accept_loop();
  void read_loop(int fd);
  /// Runs the handler on `msg` unless the transport has shut down.
  void dispatch(Message& msg);
  /// Returns a connected socket to `to` (cached), or -1.
  int connection_to(const Address& to);
  void drop_connection(const Address& to);

  Inbox* const inbox_;
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
