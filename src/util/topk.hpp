// Keep-smallest selection, used to pick gossip buffers.
//
// Every topology protocol picks its gossip buffer (tman::pick_closest in
// tman/ranked_view.hpp) from a candidate pool larger than the buffer, and
// only the kept prefix needs an order.  `keep_smallest_sorted` partitions
// with std::nth_element and sorts just the prefix.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

namespace poly::util {

/// Reduces `v` to its `keep` smallest elements under `cmp`, sorted
/// ascending.  Whenever `cmp` is a strict *total* order (every pair of
/// distinct elements compares unequal — e.g. a distance key with an id
/// tie-break over unique ids), the result is element-for-element identical
/// to `std::sort(v); v.resize(keep)`, in O(n + keep·log keep) instead of
/// O(n·log n).
template <typename T, typename Cmp>
void keep_smallest_sorted(std::vector<T>& v, std::size_t keep, Cmp cmp) {
  if (keep < v.size()) {
    std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(keep),
                     v.end(), cmp);
    v.resize(keep);
  }
  std::sort(v.begin(), v.end(), cmp);
}

}  // namespace poly::util
