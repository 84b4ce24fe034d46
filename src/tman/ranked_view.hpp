// Ranked T-Man views, kept ranked incrementally.
//
// A sync T-Man view is always ranked by (distance² to its owner's
// position, id), ascending.  Ids in a view are unique, so that key is a
// strict total order: the ranking of a set of descriptors is unique, and
// any correct update equals a full sort of the result.  The operations
// below exploit that.  A merge or a position refresh re-keys only the
// descriptors it changes or adds (a gossip merge adds at most m = 20 to a
// view of up to view_cap = 100), sorts those, and merges them back in
// place, back to front, into the untouched ranked rest.  Keys of the rest
// are computed lazily, only for the tail the new descriptors interleave
// with; no key is stored per entry.
//
// Capacity rule: a view grows to exactly the size it needs, never by
// doubling, so its capacity never exceeds the largest size it has held —
// at most the cap its merges truncate to.  Views dominate the heap of a
// sync simulation, so spare capacity (doubling growth, a cached key per
// entry, storage swapped with a shared buffer) shows directly in its peak
// memory.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "sim/node_id.hpp"
#include "space/metric_space.hpp"
#include "space/point.hpp"

namespace poly::tman {

/// A gossiped node descriptor: identity, advertised position, and the
/// position's version (higher = fresher).
struct Descriptor {
  sim::NodeId id = sim::kInvalidNode;
  space::Point pos;
  std::uint64_t version = 0;
};

/// The rank of one descriptor: distance² to the ranking target, then id.
/// `index` says where the descriptor is; it fills what would be padding.
struct RankKey {
  double key = 0.0;
  sim::NodeId id = sim::kInvalidNode;
  std::uint32_t index = 0;

  friend bool operator<(const RankKey& a, const RankKey& b) noexcept {
    if (a.key != b.key) return a.key < b.key;
    return a.id < b.id;
  }
};

/// Reusable staging for the ranked-view operations.  Each protocol object
/// owns one, so steady-state updates allocate nothing.
struct RankScratch {
  std::vector<Descriptor> fresh;  ///< descriptors re-keyed by the update
  std::vector<RankKey> keys;
};

/// Merges `incoming` into `view`, the ranked view of `owner` (at
/// `owner_pos`), and truncates it to `cap`.  Descriptors of `owner` are
/// skipped; a known id keeps the freshest version, and a duplicate id
/// inside `incoming` is compared against the copy already taken.  The
/// result equals appending the new ids, applying the newer versions,
/// fully re-sorting and truncating.
void merge_ranked(std::vector<Descriptor>& view,
                  std::span<const Descriptor> incoming, sim::NodeId owner,
                  const space::Point& owner_pos,
                  const space::MetricSpace& space, std::size_t cap,
                  RankScratch& scratch);

/// Position refresh of the ranked `view` of a node at `owner_pos`: every
/// entry whose version is older than `versions[id]` takes
/// `positions[id]` and that version, and the view is re-ranked.  Returns
/// the number of refreshed entries.
std::size_t refresh_ranked(std::vector<Descriptor>& view,
                           std::span<const space::Point> positions,
                           std::span<const std::uint64_t> versions,
                           const space::Point& owner_pos,
                           const space::MetricSpace& space,
                           RankScratch& scratch);

/// Full re-rank of `view` around `owner_pos`, for when the owner itself
/// moved and every key changed.
void rank_view(std::vector<Descriptor>& view, const space::Point& owner_pos,
               const space::MetricSpace& space, RankScratch& scratch);

}  // namespace poly::tman
