// Deterministic discrete-event kernel.
//
// The repo has two ways to execute the protocol stack: the lock-step round
// simulator (scenario/), and — built on this kernel — the AsyncNode fleet
// (engine::EventCluster), which runs on a virtual clock or paces the same
// run by the wall clock (next_due tells it how long to sleep).  The kernel
// is the scheduling core of the fleet:
//
//   * a virtual clock (nanoseconds since the engine epoch; no wall time),
//   * a hierarchical timer wheel ordered by (time, insertion sequence) so
//     simultaneous events fire in FIFO order — fully deterministic,
//   * per-node RNG streams split off one master seed (util::Rng::split),
//     so scheduling order never perturbs a node's private randomness.
//
// The scheduler is built for the steady-state loop of 100k-node fleets,
// where every message is one event and timeout guards are scheduled and
// cancelled constantly:
//
//   * event nodes live in a slab (chunked, stable addresses, free-listed),
//     so scheduling allocates only when the fleet's high-water mark grows;
//   * callbacks are EventFn (small-buffer-optimized) — no per-event heap
//     allocation for the in-tree closures;
//   * cancellation is O(1) by generation-tagged EventId: cancel marks the
//     slab node, and the wheel reaps it lazily;
//   * the wheel has 3 levels x 64 slots at 2^16 ns (~65.5 us) per tick,
//     covering ~17 virtual seconds of lookahead; the rare farther-out
//     event parks in an overflow heap and migrates into the wheel as the
//     cursor approaches.  Events inside one tick are ordered exactly by
//     (timestamp, insertion sequence) via a tiny per-tick heap, so the
//     execution order is bit-identical to the former global binary heap.
//
// Everything runs on the caller's thread: an event handler that schedules
// further events sees them executed in timestamp order by the same run()
// loop.  Determinism contract: the same seed and the same sequence of
// schedule/run calls replay the exact same execution, bit for bit.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "engine/event_fn.hpp"
#include "util/rng.hpp"
#include "util/thread_annotations.hpp"

namespace poly::engine {

/// Virtual time: nanoseconds since the engine epoch (construction).
using SimTime = std::chrono::nanoseconds;

/// Identifier of a scheduled event (for cancellation).
///
/// Layout: the low 32 bits are the event's slab slot index; the high 32
/// bits are the slot's *generation* — a counter bumped every time the
/// slot is freed (on execution or cancellation).  cancel() only acts when
/// the id's generation matches the slot's current one, so a stale id —
/// held after its event executed, double-cancelled, or outliving a slot
/// reuse — can never cancel somebody else's later event.  Ids are plain
/// values: copyable, comparable, safe to retain indefinitely.
using EventId = std::uint64_t;

/// The deterministic event loop: virtual clock + timer wheel + RNG streams.
class EventEngine {
 public:
  explicit EventEngine(std::uint64_t seed);

  EventEngine(const EventEngine&) = delete;
  EventEngine& operator=(const EventEngine&) = delete;

  // ---- clock -------------------------------------------------------------

  /// Current virtual time.
  SimTime now() const noexcept { return now_; }

  /// The virtual clock expressed as a steady_clock time point (epoch-based),
  /// for components that consume wall-style time points (e.g. AsyncNode's
  /// backup-staleness timeouts).  Only differences are meaningful.
  std::chrono::steady_clock::time_point clock() const noexcept {
    return std::chrono::steady_clock::time_point{} +
           std::chrono::duration_cast<std::chrono::steady_clock::duration>(
               now_);
  }

  // ---- scheduling --------------------------------------------------------

  /// Schedules `fn` at absolute virtual time `at` (clamped to now: an event
  /// scheduled in the past fires at the current time, after already-queued
  /// events with the same timestamp).  Returns an id usable with cancel().
  ///
  /// Horizon: the wheel covers ~17 virtual seconds of lookahead
  /// (3 levels × 64 slots × 2^16 ns).  Events beyond the horizon are
  /// valid — they park in an overflow heap and migrate into the wheel as
  /// the cursor approaches, preserving exact (timestamp, insertion
  /// sequence) order; only their scheduling cost degrades from O(1) to
  /// O(log overflow).  Protocol workloads (tick periods and link
  /// latencies in the milliseconds) never reach the overflow.
  EventId schedule_at(SimTime at, EventFn fn);

  /// Schedules `fn` after `delay` (>= 0) of virtual time.  Same horizon /
  /// overflow behavior as schedule_at.
  EventId schedule_after(SimTime delay, EventFn fn);

  /// Cancels a pending event in O(1): the id's generation tag is checked
  /// against the slot (see EventId), the slab node is marked cancelled,
  /// and its wheel slot reaps it lazily when the cursor passes.
  /// Cancelling an already-executed, already-cancelled, or otherwise
  /// stale id is a safe no-op.
  void cancel(EventId id);

  // ---- execution ---------------------------------------------------------

  /// Executes the next pending event, advancing the clock to its timestamp.
  /// Returns false when the queue is empty.
  bool step();

  /// Drains the queue.  Returns the number of events executed.  Beware of
  /// self-rescheduling events (e.g. protocol tick loops): those never drain;
  /// use run_until.
  std::size_t run();

  /// Executes every event with timestamp <= t (including events they
  /// schedule inside the window), then advances the clock to exactly t.
  /// Returns the number of events executed.
  std::size_t run_until(SimTime t);

  // ---- introspection -----------------------------------------------------

  /// When the next pending event is due, or `limit` when none is due at
  /// or before it: what a wall-clock driver sleeps until.  Executes
  /// nothing and leaves the clock where it is.
  SimTime next_due(SimTime limit);

  /// Live (scheduled, not executed, not cancelled) events.
  std::size_t pending() const noexcept { return live_; }
  std::uint64_t events_executed() const noexcept { return executed_; }

  // ---- randomness --------------------------------------------------------

  /// The engine-global RNG stream (link latency, churn injection, ...).
  util::Rng& rng() noexcept { return rng_; }

  /// Derives an independent stream — one per node, so a node's draws are a
  /// function of the seed and its creation order only.
  util::Rng split_rng() noexcept { return rng_.split(); }

 private:
  // Wheel geometry.  A tick is 2^kTickBits ns; each of the kLevels levels
  // has 2^kLevelBits slots.  Level L's slots each cover 2^(kLevelBits*L)
  // ticks; an event goes to the lowest level whose current window contains
  // its tick, i.e. level = highest_set_bit(tick ^ cursor) / kLevelBits.
  static constexpr unsigned kTickBits = 16;   // ~65.5 us per tick
  static constexpr unsigned kLevelBits = 6;   // 64 slots per level
  static constexpr unsigned kSlots = 1u << kLevelBits;
  static constexpr unsigned kLevels = 3;      // horizon 2^(16+18) ns ~ 17 s
  static constexpr std::uint32_t kNil = 0xffffffffu;
  static constexpr std::uint32_t kChunkBits = 12;  // 4096 nodes per chunk
  static constexpr std::uint32_t kChunkSize = 1u << kChunkBits;

  struct Node {
    SimTime at{};
    std::uint64_t seq = 0;    // insertion sequence: the FIFO tie-break
    std::uint32_t next = kNil;  // slot free-list / slot chain link
    std::uint32_t gen = 0;    // bumped on free; EventId embeds it
    enum : std::uint8_t { kFree, kPending, kCancelled } state = kFree;
    EventFn fn;
  };

  static constexpr std::uint64_t tick_of(SimTime t) noexcept {
    return static_cast<std::uint64_t>(t.count()) >> kTickBits;
  }

  Node& node(std::uint32_t idx) noexcept {
    return chunks_[idx >> kChunkBits][idx & (kChunkSize - 1)];
  }
  const Node& node(std::uint32_t idx) const noexcept {
    return chunks_[idx >> kChunkBits][idx & (kChunkSize - 1)];
  }

  /// A heap entry carries its ordering key (at, seq) inline, so sift
  /// comparisons stay inside the heap array instead of chasing slab nodes
  /// (a cache miss per comparison at 100k-node scale).
  struct HeapEnt {
    SimTime at;
    std::uint64_t seq;
    std::uint32_t idx;
  };
  static bool ent_before(const HeapEnt& a, const HeapEnt& b) noexcept {
    if (a.at != b.at) return a.at < b.at;
    return a.seq < b.seq;
  }

  std::uint32_t alloc_node();
  void free_node(std::uint32_t idx);

  /// Files a pending node into due_, a wheel slot, or overflow_, based on
  /// its tick relative to the cursor.
  void place(std::uint32_t idx);

  /// Moves every node of wheel slot (level, slot) out: level-0 nodes join
  /// due_; higher-level nodes re-place into lower levels.  Cancelled nodes
  /// are reaped.
  void flush_slot(unsigned level, unsigned slot);

  // Binary min-heaps ordered by ent_before().
  void heap_push(std::vector<HeapEnt>& h, const HeapEnt& ent);
  void heap_pop(std::vector<HeapEnt>& h);

  /// Ensures due_'s top is the next live event, advancing the wheel cursor
  /// as needed, but never past `limit_tick`.  Returns the next node index,
  /// or kNil when no live event exists at tick <= limit_tick.
  std::uint32_t peek(std::uint64_t limit_tick);

  /// Pops and runs the next live event (which `peek` found).
  void execute(std::uint32_t idx);

  SimTime now_{0};
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  std::size_t live_ = 0;

  // Slab.
  std::vector<std::unique_ptr<Node[]>> chunks_;
  std::uint32_t next_unused_ = 0;
  std::uint32_t free_head_ = kNil;

  // Wheel.
  std::uint64_t cursor_ = 0;  // tick the wheel is positioned at
  std::array<std::array<std::uint32_t, kSlots>, kLevels> slots_;
  std::array<std::uint64_t, kLevels> occupied_{};  // slot bitmaps

  /// Events at ticks <= cursor_, ordered by (at, seq): the only ordered
  /// structure, and it only ever holds one tick's worth of events (plus
  /// same-instant re-schedules), so it stays tiny.
  std::vector<HeapEnt> due_;
  /// Events beyond the wheel horizon, ordered by (at, seq); migrated into
  /// the wheel as the cursor approaches.  Empty in protocol workloads.
  std::vector<HeapEnt> overflow_;

  util::Rng rng_;

  /// Single-threaded by contract ("everything runs on the caller's
  /// thread") — the debug tripwire binds to the first scheduling/running
  /// thread and aborts on any other.  run_program's rep workers each own a
  /// private engine, so the bind is per repetition.
  util::SingleThreadChecker thread_check_;
};

}  // namespace poly::engine
