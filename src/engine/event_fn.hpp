// Small-buffer-optimized callback for scheduled events.
//
// Every scheduled event used to carry a std::function<void()>; the
// delivery closures of the engine transport (hub pointer + endpoint id +
// payload vector) exceed std::function's small-object buffer, so the
// steady-state loop paid one heap allocation and one free per message.
// EventFn is the minimal replacement: move-only, with enough inline
// storage for every closure the engine schedules, falling back to the
// heap only for oversized callables (none in-tree).
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace poly::engine {

/// Move-only type-erased `void()` callable with inline storage.
///
/// Ownership: EventFn owns its callable outright — inline captures are
/// destroyed in place, heap fallbacks are deleted — and the engine
/// destroys the callable right after execution (or on cancellation
/// reap), so a closure's captured resources (e.g. a pooled payload
/// vector) live exactly until the event runs or dies.  Inline-eligible
/// callables must be nothrow-move-constructible (moving an EventFn
/// relocates the capture); anything else goes to the heap.
class EventFn {
 public:
  /// Inline capacity: sized for the engine transport's delivery closure
  /// (hub pointer + a 4-byte endpoint id + a std::vector payload, 40
  /// bytes with padding) — the hot-path callable.  Bigger captures fall
  /// back to the heap; keeping the slab node small is worth more than
  /// inlining rare large closures.
  static constexpr std::size_t kInlineSize = 40;

  EventFn() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, EventFn> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  EventFn(F&& f) {  // NOLINT(google-explicit-constructor): function-like
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineSize &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      ops_ = &inline_ops<Fn>;
    } else {
      *reinterpret_cast<Fn**>(storage_) = new Fn(std::forward<F>(f));
      ops_ = &heap_ops<Fn>;
    }
  }

  EventFn(EventFn&& other) noexcept { move_from(other); }
  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;
  ~EventFn() { reset(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  /// Invokes the callable.  Precondition: non-empty.
  void operator()() { ops_->invoke(storage_); }

  /// Destroys the held callable (no-op when empty).
  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    void (*destroy)(void*);
    /// Moves the callable from `src` storage into `dst` storage and
    /// destroys the source (for inline storage; heap storage moves the
    /// pointer).
    void (*relocate)(void* src, void* dst);
  };

  template <typename Fn>
  static constexpr Ops inline_ops{
      [](void* s) { (*std::launder(reinterpret_cast<Fn*>(s)))(); },
      [](void* s) { std::launder(reinterpret_cast<Fn*>(s))->~Fn(); },
      [](void* src, void* dst) {
        Fn* f = std::launder(reinterpret_cast<Fn*>(src));
        ::new (dst) Fn(std::move(*f));
        f->~Fn();
      }};

  template <typename Fn>
  static constexpr Ops heap_ops{
      [](void* s) { (**reinterpret_cast<Fn**>(s))(); },
      [](void* s) { delete *reinterpret_cast<Fn**>(s); },
      [](void* src, void* dst) {
        *reinterpret_cast<Fn**>(dst) = *reinterpret_cast<Fn**>(src);
      }};

  void move_from(EventFn& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(other.storage_, storage_);
      other.ops_ = nullptr;
    }
  }

  const Ops* ops_ = nullptr;
  alignas(std::max_align_t) unsigned char storage_[kInlineSize];
};

}  // namespace poly::engine
