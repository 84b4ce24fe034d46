// Single-threaded-by-contract checking.
//
// The kernel, its hub and the fleet run on one thread, so EventEngine,
// EngineHub and ObjectSlab hold no lock.  Each embeds a
// SingleThreadChecker instead: a debug-only tripwire that binds to the
// first calling thread and aborts on a call from any other (see below).
#pragma once

#if !defined(NDEBUG)
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <thread>
#endif

namespace poly::util {

#if !defined(NDEBUG)
/// Debug tripwire for single-threaded-by-contract classes: binds to the
/// first thread that calls check() and aborts on any other.  The bind (not
/// construction) point matters — fleets are often *built* on the main
/// thread and then *driven* from a worker (scenario --reps), which is fine
/// as long as construction already calls check() on the driving thread or
/// the owner rebinds via reset().  Zero-cost in release builds (the NDEBUG
/// variant below is an empty class).
class SingleThreadChecker {
 public:
  /// Aborts (with `what` in the message) when called from a second thread.
  void check(const char* what) const {
    const std::thread::id me = std::this_thread::get_id();
    std::thread::id cur = owner_.load(std::memory_order_relaxed);
    if (cur == me) return;  // bound to us: the steady-state path
    if (cur == std::thread::id{} &&
        owner_.compare_exchange_strong(cur, me, std::memory_order_relaxed))
      return;  // first caller: bound
    if (cur == me) return;  // lost the exchange to ourselves
    std::fprintf(stderr,
                 "SingleThreadChecker: %s used from a second thread "
                 "(single-threaded by contract)\n",
                 what);
    std::abort();
  }

  /// Unbinds, allowing a new owning thread (e.g. handing a built fleet to
  /// its driving worker).
  void reset() { owner_.store(std::thread::id{}, std::memory_order_relaxed); }

 private:
  mutable std::atomic<std::thread::id> owner_{};
};
#else
class SingleThreadChecker {
 public:
  void check(const char*) const {}
  void reset() {}
};
#endif

}  // namespace poly::util
