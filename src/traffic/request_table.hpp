// Slab/pool-backed in-flight request table.
//
// Every in-flight get/put request owns one slot: acquired at launch,
// released at completion or failure, recycled through a free list.  The
// backing vectors only grow when the in-flight high-water mark does —
// after warm-up a steady open-loop workload performs zero heap
// allocations on the request path (the same arena discipline as the
// per-node view storage, enforced by the counting-operator-new test).
//
// Slot reuse is safe by construction in the traffic plane: a slot has
// exactly one pending engine event (the next hop of its request), so a
// released slot cannot be referenced by a stale event.
#pragma once

#include <cassert>
#include <chrono>
#include <cstdint>
#include <vector>

#include "space/point.hpp"

namespace poly::traffic {

/// What a request asks the reached node for.  Get and put route
/// identically (greedy to the key's position); a completed request counts
/// under its kind (TrafficCounters::gets / puts).
enum class RequestKind : std::uint8_t { kGet, kPut };

/// One in-flight request: where it is, where it is going, what it has
/// cost so far.  Trivially copyable — slots recycle with plain stores.
///
/// `closest` is the smallest *actual* target distance of any node visited
/// so far; the request succeeds the moment it drops to the success
/// radius.  `detours` counts consecutive arrivals that failed to improve
/// `closest` — view entries advertise positions that can be stale (T-Man
/// gossip only refreshes entries near their holder), so descent on
/// advertised distances can lie the request into a cycle; the detour
/// budget bounds how long it may wander without real progress, which
/// guarantees termination without giving up at the first false minimum.
struct Request {
  std::uint32_t node = 0;   ///< current node id (== EventCluster index)
  std::uint32_t hops = 0;   ///< hops taken so far
  std::uint32_t detours = 0;  ///< consecutive hops without actual progress
  std::chrono::nanoseconds start{0};  ///< virtual-clock launch instant
  space::Point target;      ///< the key's position in the metric space
  double closest = 0.0;     ///< best actual distance visited (set at launch)
  RequestKind kind = RequestKind::kGet;
};

/// Fixed-slot pool of in-flight requests with a free list.
class RequestTable {
 public:
  static constexpr std::uint32_t kInvalidSlot = 0xffffffffu;

  /// Acquires a slot (recycled or fresh).  Allocates only when the
  /// in-flight count exceeds every previous high-water mark.
  std::uint32_t acquire() {
    std::uint32_t slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
    } else {
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    }
    slots_[slot] = Request{};
    ++in_flight_;
    return slot;
  }

  Request& at(std::uint32_t slot) {
    assert(slot < slots_.size());
    return slots_[slot];
  }
  const Request& at(std::uint32_t slot) const {
    assert(slot < slots_.size());
    return slots_[slot];
  }

  void release(std::uint32_t slot) {
    assert(slot < slots_.size() && in_flight_ > 0);
    free_.push_back(slot);
    --in_flight_;
  }

  std::size_t in_flight() const noexcept { return in_flight_; }
  /// Peak concurrent requests ever held (== slot-pool size).
  std::size_t high_water() const noexcept { return slots_.size(); }

  /// Pre-grows the pool so the first `n` concurrent requests allocate
  /// nothing (optional; the pool also warms itself organically).
  void reserve(std::size_t n) {
    slots_.reserve(n);
    free_.reserve(n);
  }

 private:
  std::vector<Request> slots_;
  std::vector<std::uint32_t> free_;
  std::size_t in_flight_ = 0;
};

}  // namespace poly::traffic
