// Chunked in-place object arena.
//
// The event-driven fleets index per-node state by dense node ids, and the
// steady-state delivery loop touches a random node per message.  A vector<unique_ptr<T>> scatters every object across
// the heap — one extra dependent load and a likely cache miss per touch.
// ObjectSlab packs the objects themselves into large contiguous chunks:
// index i lives at a fixed address for the slab's lifetime (chunks never
// move, unlike vector<T> growth), neighbours in id order are neighbours
// in memory, and the indirection array holds one pointer per *chunk*
// instead of one per object.
//
// Grow-only by design: the fleets never remove nodes (a crashed node stays
// inspectable), so there is no erase and no free list to manage.
#pragma once

#include <cstddef>
#include <new>
#include <utility>
#include <vector>

#include "util/thread_annotations.hpp"

namespace poly::util {

/// Contiguous chunked storage for non-movable objects with stable
/// addresses and dense indices.  Not copyable; destroys elements in
/// reverse construction order.
template <typename T, std::size_t kChunkSize = 256>
class ObjectSlab {
  static_assert(kChunkSize > 0, "ObjectSlab chunk must hold objects");

 public:
  ObjectSlab() = default;
  ObjectSlab(const ObjectSlab&) = delete;
  ObjectSlab& operator=(const ObjectSlab&) = delete;
  ~ObjectSlab() { clear(); }

  /// Constructs a new element in place at index size() and returns it.
  /// The reference (and every earlier one) stays valid until clear() or
  /// destruction — chunks are never reallocated or moved.
  template <typename... Args>
  T& emplace_back(Args&&... args) {
    // Growth is single-threaded by contract (one fleet, one driving
    // thread); reads via operator[] are unchecked — they are safe from
    // any thread once construction is published.  The dtor/clear() path
    // is also unchecked: teardown after a join legitimately happens on a
    // different thread.
    thread_check_.check("ObjectSlab::emplace_back");
    if (size_ == chunks_.size() * kChunkSize) {
      chunks_.push_back(static_cast<T*>(::operator new(
          sizeof(T) * kChunkSize, std::align_val_t{alignof(T)})));
    }
    T* p = chunks_[size_ / kChunkSize] + (size_ % kChunkSize);
    ::new (static_cast<void*>(p)) T(std::forward<Args>(args)...);
    ++size_;
    return *p;
  }

  T& operator[](std::size_t i) noexcept {
    return chunks_[i / kChunkSize][i % kChunkSize];
  }
  const T& operator[](std::size_t i) const noexcept {
    return chunks_[i / kChunkSize][i % kChunkSize];
  }

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  /// Bytes held from the system: full chunks, occupied or not (the memory
  /// audit's object-storage line).
  std::size_t reserved_bytes() const noexcept {
    return chunks_.size() * kChunkSize * sizeof(T);
  }

  /// Destroys every element (reverse order) and releases the chunks.
  void clear() noexcept {
    while (size_ > 0) {
      --size_;
      (*this)[size_].~T();
    }
    for (T* chunk : chunks_)
      ::operator delete(chunk, std::align_val_t{alignof(T)});
    chunks_.clear();
  }

 private:
  std::vector<T*> chunks_;
  std::size_t size_ = 0;
  SingleThreadChecker thread_check_;
};

}  // namespace poly::util
