// Cross-thread frame inbox: the one seam between TCP reader threads and
// the thread that drives a fleet.
//
// A TcpTransport built over an Inbox never runs its handler on a reader
// thread.  Each reader appends the frames it reads here, under one lock,
// and the fleet's loop thread delivers them (deliver()), so every protocol
// handler runs on the loop thread — the same thread that ticks the nodes.
// A transport that shuts down drops its queued frames (discard()): a frame
// to a crashed node is lost, exactly like a frame in flight on the engine
// hub.  Same model as one multiplexer that every transport plugs into.
#pragma once

#include <chrono>
#include <cstddef>
#include <vector>

#include "net/transport.hpp"
#include "util/thread_annotations.hpp"

namespace poly::net {

class TcpTransport;

class Inbox {
 public:
  /// Queues `msg` for `to`'s handler; any thread.
  void post(TcpTransport& to, Message msg) EXCLUDES(mu_);

  /// Drops every frame queued for `to`.  Called by `to`'s shutdown after
  /// its readers are joined, so nothing for it is queued afterwards.
  void discard(const TcpTransport& to) EXCLUDES(mu_);

  /// Frames queued and not yet delivered.
  std::size_t queued() const EXCLUDES(mu_);

  /// Blocks until a frame is queued or `deadline` passes.
  void wait_until(std::chrono::steady_clock::time_point deadline)
      EXCLUDES(mu_);

  /// Runs the handler of every queued frame, in arrival order, on the
  /// caller's thread; returns how many ran.  Transports must not shut
  /// down from inside a handler.
  std::size_t deliver() EXCLUDES(mu_);

 private:
  struct Frame {
    TcpTransport* to;
    Message msg;
  };

  mutable util::Mutex mu_;
  util::CondVar cv_;
  std::vector<Frame> queued_ GUARDED_BY(mu_);
  /// The frames deliver() is running, swapped out of queued_ (loop
  /// thread only).
  std::vector<Frame> batch_;
};

}  // namespace poly::net
