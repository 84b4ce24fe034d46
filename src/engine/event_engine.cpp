#include "engine/event_engine.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <utility>

namespace poly::engine {

namespace {

/// Bits strictly above position `pos` (pos in [0, 63]).
constexpr std::uint64_t bits_above(unsigned pos) noexcept {
  return pos >= 63 ? 0 : ~0ull << (pos + 1);
}

constexpr std::uint64_t kNoLimit =
    std::numeric_limits<std::uint64_t>::max();

}  // namespace

EventEngine::EventEngine(std::uint64_t seed) : rng_(seed) {
  for (auto& level : slots_) level.fill(kNil);
}

// ---- slab -------------------------------------------------------------------

std::uint32_t EventEngine::alloc_node() {
  if (free_head_ != kNil) {
    const std::uint32_t idx = free_head_;
    free_head_ = node(idx).next;
    return idx;
  }
  if ((next_unused_ >> kChunkBits) == chunks_.size())
    chunks_.push_back(std::make_unique<Node[]>(kChunkSize));
  return next_unused_++;
}

void EventEngine::free_node(std::uint32_t idx) {
  Node& n = node(idx);
  n.fn.reset();
  n.state = Node::kFree;
  ++n.gen;  // invalidate outstanding EventIds for this slot
  n.next = free_head_;
  free_head_ = idx;
}

// ---- heaps ------------------------------------------------------------------

void EventEngine::heap_push(std::vector<HeapEnt>& h, const HeapEnt& ent) {
  h.push_back(ent);
  std::size_t i = h.size() - 1;
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!ent_before(h[i], h[parent])) break;
    std::swap(h[i], h[parent]);
    i = parent;
  }
}

void EventEngine::heap_pop(std::vector<HeapEnt>& h) {
  h.front() = h.back();
  h.pop_back();
  std::size_t i = 0;
  const std::size_t n = h.size();
  for (;;) {
    const std::size_t l = 2 * i + 1;
    const std::size_t r = l + 1;
    std::size_t best = i;
    if (l < n && ent_before(h[l], h[best])) best = l;
    if (r < n && ent_before(h[r], h[best])) best = r;
    if (best == i) break;
    std::swap(h[i], h[best]);
    i = best;
  }
}

// ---- wheel ------------------------------------------------------------------

void EventEngine::place(std::uint32_t idx) {
  Node& n = node(idx);
  const std::uint64_t t = tick_of(n.at);
  if (t <= cursor_) {
    heap_push(due_, HeapEnt{n.at, n.seq, idx});
    return;
  }
  // Lowest level whose current window contains the tick: determined by the
  // highest bit where the tick differs from the cursor.
  const std::uint64_t diff = t ^ cursor_;
  const unsigned level =
      static_cast<unsigned>(63 - std::countl_zero(diff)) / kLevelBits;
  if (level >= kLevels) {
    heap_push(overflow_, HeapEnt{n.at, n.seq, idx});
    return;
  }
  const unsigned slot =
      static_cast<unsigned>(t >> (kLevelBits * level)) & (kSlots - 1);
  n.next = slots_[level][slot];
  slots_[level][slot] = idx;
  occupied_[level] |= 1ull << slot;
}

void EventEngine::flush_slot(unsigned level, unsigned slot) {
  std::uint32_t idx = slots_[level][slot];
  slots_[level][slot] = kNil;
  occupied_[level] &= ~(1ull << slot);
  while (idx != kNil) {
    Node& n = node(idx);
    const std::uint32_t next = n.next;
    if (n.state == Node::kCancelled) {
      free_node(idx);
    } else if (level == 0) {
      heap_push(due_, HeapEnt{n.at, n.seq, idx});
    } else {
      place(idx);  // re-files into a lower level relative to the new cursor
    }
    idx = next;
  }
}

std::uint32_t EventEngine::peek(std::uint64_t limit_tick) {
  for (;;) {
    // Reap cancelled heads, then serve the due heap.
    while (!due_.empty()) {
      const std::uint32_t idx = due_.front().idx;
      if (node(idx).state != Node::kCancelled) return idx;
      heap_pop(due_);
      free_node(idx);
    }

    // Pull overflow events whose tick now fits inside the wheel horizon.
    while (!overflow_.empty() &&
           ((tick_of(overflow_.front().at) ^ cursor_) >>
            (kLevelBits * kLevels)) == 0) {
      const std::uint32_t idx = overflow_.front().idx;
      heap_pop(overflow_);
      place(idx);
    }
    if (!due_.empty()) continue;  // migration may have filed due events

    // Advance the cursor to the next occupied slot, lowest level first.
    // Slots at or before the cursor's position are already flushed, so
    // only strictly-later slots of each window are candidates.
    bool advanced = false;
    for (unsigned level = 0; level < kLevels && !advanced; ++level) {
      const unsigned pos = static_cast<unsigned>(
          (cursor_ >> (kLevelBits * level)) & (kSlots - 1));
      const std::uint64_t mask = occupied_[level] & bits_above(pos);
      if (mask == 0) continue;
      const unsigned slot = static_cast<unsigned>(std::countr_zero(mask));
      // First tick covered by that slot; the cursor enters the slot's
      // window at its start so lower levels index correctly.
      const unsigned shift = kLevelBits * (level + 1);
      const std::uint64_t base =
          (shift >= 64 ? 0 : (cursor_ >> shift) << shift) |
          (static_cast<std::uint64_t>(slot) << (kLevelBits * level));
      if (base > limit_tick) {
        cursor_ = limit_tick;
        return kNil;
      }
      cursor_ = base;
      flush_slot(level, slot);
      advanced = true;
    }
    if (advanced) continue;

    // Wheels empty: jump toward the overflow heap, if any.
    if (!overflow_.empty()) {
      const std::uint64_t t = tick_of(overflow_.front().at);
      if (t > limit_tick) {
        cursor_ = limit_tick;
        return kNil;
      }
      cursor_ = t;  // the migration loop above files it next iteration
      continue;
    }

    // Nothing scheduled at all.
    if (limit_tick != kNoLimit && limit_tick > cursor_) cursor_ = limit_tick;
    return kNil;
  }
}

void EventEngine::execute(std::uint32_t idx) {
  heap_pop(due_);
  Node& n = node(idx);
  now_ = n.at;
  n.state = Node::kFree;  // executing: cancel becomes a no-op
  --live_;
  ++executed_;
  // Invoke in place: the slot is not on the free list yet, so a handler
  // that schedules new events cannot reuse it, and chunk addresses are
  // stable — no need to move the callable out first.
  n.fn();
  free_node(idx);
}

// ---- public API -------------------------------------------------------------

EventId EventEngine::schedule_at(SimTime at, EventFn fn) {
  thread_check_.check("EventEngine::schedule_at");
  if (at < now_) at = now_;
  const std::uint32_t idx = alloc_node();
  Node& n = node(idx);
  n.at = at;
  n.seq = next_seq_++;
  n.state = Node::kPending;
  n.fn = std::move(fn);
  ++live_;
  place(idx);
  return (static_cast<EventId>(idx) << 32) | n.gen;
}

EventId EventEngine::schedule_after(SimTime delay, EventFn fn) {
  if (delay < SimTime::zero()) delay = SimTime::zero();
  return schedule_at(now_ + delay, std::move(fn));
}

void EventEngine::cancel(EventId id) {
  thread_check_.check("EventEngine::cancel");
  const std::uint32_t idx = static_cast<std::uint32_t>(id >> 32);
  if (idx >= next_unused_) return;
  Node& n = node(idx);
  if (n.gen != static_cast<std::uint32_t>(id) || n.state != Node::kPending)
    return;
  n.state = Node::kCancelled;  // reaped lazily by its slot / heap
  n.fn.reset();                // release captures eagerly
  --live_;
}

bool EventEngine::step() {
  thread_check_.check("EventEngine::step");
  const std::uint32_t idx = peek(kNoLimit);
  if (idx == kNil) return false;
  execute(idx);
  return true;
}

std::size_t EventEngine::run() {
  std::size_t n = 0;
  while (step()) ++n;
  return n;
}

SimTime EventEngine::next_due(SimTime limit) {
  thread_check_.check("EventEngine::next_due");
  if (limit <= now_) return limit;
  // The same cursor clamp as run_until: peek never moves it backward.
  const std::uint32_t idx = peek(std::max(tick_of(limit), cursor_));
  return idx == kNil ? limit : std::min(node(idx).at, limit);
}

std::size_t EventEngine::run_until(SimTime t) {
  thread_check_.check("EventEngine::run_until");
  std::size_t n = 0;
  if (t >= now_) {
    // The cursor may already sit past tick(t) (a previous peek advanced it
    // toward a future event); clamp so it never moves backward.  Events at
    // ticks <= cursor_ all live in due_, so none are missed.
    const std::uint64_t limit_tick = std::max(tick_of(t), cursor_);
    for (;;) {
      const std::uint32_t idx = peek(limit_tick);
      if (idx == kNil || node(idx).at > t) break;
      execute(idx);
      ++n;
    }
  }
  if (now_ < t) now_ = t;
  return n;
}

}  // namespace poly::engine
