#include "tman/ranked_view.hpp"

#include <algorithm>
#include <limits>

namespace poly::tman {

namespace {

/// Merges `scratch.fresh` into the ranked `view` and keeps the first `cap`
/// entries.  Precondition: the fresh ids are unique and absent from `view`,
/// so (key, id) orders the union strictly.
void insert_fresh(std::vector<Descriptor>& view, const space::Point& owner_pos,
                  const space::MetricSpace& space, std::size_t cap,
                  RankScratch& scratch) {
  const auto& fresh = scratch.fresh;
  auto& keys = scratch.keys;
  keys.clear();
  for (std::uint32_t i = 0; i < fresh.size(); ++i)
    keys.push_back(
        RankKey{space.distance2(owner_pos, fresh[i].pos), fresh[i].id, i});
  std::sort(keys.begin(), keys.end());

  const std::size_t rest = view.size();
  const std::size_t n = std::min(cap, rest + keys.size());
  if (n > view.capacity()) view.reserve(n);  // grow exactly, never double
  if (n > rest) view.resize(n);

  // Back to front: `out` is the merged position of the larger of the two
  // tails' last elements.  It always lies past the unread rest, so the
  // merge needs no second buffer; positions from `n` on are dropped.  A
  // rest entry is keyed only when a fresh one is still left to compare
  // it with.
  std::size_t i = rest;
  std::size_t j = keys.size();
  std::size_t out = rest + keys.size();
  RankKey key_i;
  bool keyed_i = false;
  while (j > 0) {
    --out;
    const RankKey& key_j = keys[j - 1];
    bool rest_is_larger = false;
    if (i > 0) {
      if (!keyed_i) {
        key_i.key = space.distance2(owner_pos, view[i - 1].pos);
        key_i.id = view[i - 1].id;
        keyed_i = true;
      }
      rest_is_larger = key_j < key_i;
    }
    if (rest_is_larger) {
      if (out < n) view[out] = view[i - 1];
      --i;
      keyed_i = false;
    } else {
      if (out < n) view[out] = fresh[key_j.index];
      --j;
    }
  }
  if (view.size() > n) view.resize(n);
}

}  // namespace

void merge_ranked(std::vector<Descriptor>& view,
                  std::span<const Descriptor> incoming, sim::NodeId owner,
                  const space::Point& owner_pos,
                  const space::MetricSpace& space, std::size_t cap,
                  RankScratch& scratch) {
  auto& fresh = scratch.fresh;
  fresh.clear();
  // A descriptor that changes an entry moves it to `fresh`; the stale slot
  // is marked with kInvalidNode and compacted away below.  Every id is
  // thus in exactly one of `view` and `fresh`, and a duplicate inside
  // `incoming` meets the copy already taken.
  bool moved = false;
  for (const Descriptor& d : incoming) {
    if (d.id == owner) continue;
    auto by_id = [&](const Descriptor& v) { return v.id == d.id; };
    if (auto f = std::find_if(fresh.begin(), fresh.end(), by_id);
        f != fresh.end()) {
      if (d.version > f->version) *f = d;
      continue;
    }
    auto v = std::find_if(view.begin(), view.end(), by_id);
    if (v == view.end()) {
      fresh.push_back(d);
    } else if (d.version > v->version) {
      fresh.push_back(d);
      v->id = sim::kInvalidNode;
      moved = true;
    }
  }
  if (moved)
    view.erase(std::remove_if(view.begin(), view.end(),
                              [](const Descriptor& v) {
                                return v.id == sim::kInvalidNode;
                              }),
               view.end());
  insert_fresh(view, owner_pos, space, cap, scratch);
}

std::size_t refresh_ranked(std::vector<Descriptor>& view,
                           std::span<const space::Point> positions,
                           std::span<const std::uint64_t> versions,
                           const space::Point& owner_pos,
                           const space::MetricSpace& space,
                           RankScratch& scratch) {
  auto& fresh = scratch.fresh;
  fresh.clear();
  std::size_t kept = 0;
  for (const Descriptor& d : view) {
    if (versions[d.id] > d.version)
      fresh.push_back(Descriptor{d.id, positions[d.id], versions[d.id]});
    else
      view[kept++] = d;
  }
  if (fresh.empty()) return 0;
  view.resize(kept);
  insert_fresh(view, owner_pos, space,
               std::numeric_limits<std::size_t>::max(), scratch);
  return fresh.size();
}

void rank_view(std::vector<Descriptor>& view, const space::Point& owner_pos,
               const space::MetricSpace& space, RankScratch& scratch) {
  scratch.fresh.assign(view.begin(), view.end());
  view.clear();
  insert_fresh(view, owner_pos, space,
               std::numeric_limits<std::size_t>::max(), scratch);
}

}  // namespace poly::tman
