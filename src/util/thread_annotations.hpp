// Clang thread-safety capability annotations + annotated sync primitives.
//
// The repo's threaded seams — the TCP transport and the inbox its reader
// threads feed — document their locking discipline in comments ("guarded
// by mu_").  These macros turn those comments into machine-checked
// contracts under clang's `-Wthread-safety` analysis (enabled by the CMake
// clang path; see POLY_THREAD_SAFETY in CMakeLists.txt).  Under gcc — which
// has no equivalent analysis — every macro expands to nothing and the
// wrappers below compile to the std primitives they wrap.
//
// libstdc++'s std::mutex / std::lock_guard carry no capability attributes,
// so annotating raw std types only produces -Wthread-safety-attributes
// noise.  Instead, threaded code uses the annotated wrappers:
//
//   util::Mutex      — a CAPABILITY("mutex") wrapper over std::mutex
//   util::MutexLock  — a SCOPED_CAPABILITY RAII guard (lock_guard shape)
//   util::CondVar    — condition_variable_any over util::Mutex; its wait
//                      REQUIRES the mutex it waits on
//
// Single-threaded-by-contract classes (EventEngine, EngineHub, ObjectSlab)
// have no mutex to annotate; they embed a SingleThreadChecker instead —
// a debug-only tripwire that binds to the first calling thread and aborts
// on a call from any other (see below).
#pragma once

#include <condition_variable>
#include <mutex>

#if !defined(NDEBUG)
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <thread>
#endif

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define POLY_TSA_(x) __attribute__((x))
#endif
#endif
#ifndef POLY_TSA_
#define POLY_TSA_(x)  // no-op: gcc / old clang
#endif

#define CAPABILITY(x) POLY_TSA_(capability(x))
#define SCOPED_CAPABILITY POLY_TSA_(scoped_lockable)
#define GUARDED_BY(x) POLY_TSA_(guarded_by(x))
#define PT_GUARDED_BY(x) POLY_TSA_(pt_guarded_by(x))
#define ACQUIRE(...) POLY_TSA_(acquire_capability(__VA_ARGS__))
#define RELEASE(...) POLY_TSA_(release_capability(__VA_ARGS__))
#define TRY_ACQUIRE(...) POLY_TSA_(try_acquire_capability(__VA_ARGS__))
#define REQUIRES(...) POLY_TSA_(requires_capability(__VA_ARGS__))
#define EXCLUDES(...) POLY_TSA_(locks_excluded(__VA_ARGS__))
#define ASSERT_CAPABILITY(x) POLY_TSA_(assert_capability(x))
#define NO_THREAD_SAFETY_ANALYSIS POLY_TSA_(no_thread_safety_analysis)

namespace poly::util {

/// std::mutex with a capability attribute, so GUARDED_BY/REQUIRES can name
/// it.  BasicLockable, hence usable directly as a condition_variable_any
/// lock (CondVar below relies on that).
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ACQUIRE() { mu_.lock(); }
  void unlock() RELEASE() { mu_.unlock(); }
  bool try_lock() TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  std::mutex mu_;
};

/// RAII guard the analysis understands (std::lock_guard over a Mutex would
/// acquire the capability invisibly — the analysis does not model
/// unannotated guard types).
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable over util::Mutex.  The wait takes the mutex
/// explicitly and REQUIRES it held; it returns with it held (the internal
/// release/reacquire is invisible to the analysis, which matches the
/// caller-visible contract).  Predicates run with the lock held — annotate
/// predicate lambdas with REQUIRES(mu) when they touch guarded state.
class CondVar {
 public:
  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

  /// Returns pred()'s value on exit (false = timed out with pred false).
  template <typename Clock, typename Duration, typename Pred>
  bool wait_until(Mutex& mu,
                  const std::chrono::time_point<Clock, Duration>& deadline,
                  Pred pred) REQUIRES(mu) {
    return cv_.wait_until(mu, deadline, std::move(pred));
  }

 private:
  std::condition_variable_any cv_;
};

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
