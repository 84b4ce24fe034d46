// Ranked topology views: the one implementation of view ranking, merging
// and gossip-buffer selection, shared by every topology protocol — sync
// T-Man (`tman::Descriptor`), Vicinity (`vicinity::VicinityEntry`) and the
// fleet's AsyncNode (`net::TmanEntry`).  Header-only, templated over the
// entry type (anything with `id`, `pos` and `version`; an `age` member is
// carried through merges) and the container (`std::vector` or an arena
// `util::ArenaVec`).
//
// A ranked view is ordered by (distance² to its owner's position, id),
// ascending.  Ids in a view are unique, so that key is a strict total
// order and any correct update equals a full sort of the result.  A merge
// or a position refresh re-keys only the entries it changes or adds, sorts
// those, and merges them back in place, back to front, into the untouched
// ranked rest, whose keys are computed lazily; no key is stored per entry.
// A std::vector view grows to exactly the size it needs, never by
// doubling (views dominate a sync simulation's heap); arena views are
// bound at their physical cap.  See docs/ARCHITECTURE.md, "Ranked-view
// invariant".
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <type_traits>
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

/// The id type of a view entry.
template <typename Entry>
using IdOf = decltype(Entry::id);

/// The rank of one entry: distance² to the ranking target, then id, then
/// `index`, where the entry is.  Ids in a view are unique, so only a
/// gossip buffer's candidates (a view and extras that may repeat its ids)
/// ever reach the index.
template <typename Id>
struct RankKey {
  double key = 0.0;
  Id id{};
  std::uint32_t index = 0;

  friend bool operator<(const RankKey& a, const RankKey& b) noexcept {
    if (a.key != b.key) return a.key < b.key;
    if (a.id != b.id) return a.id < b.id;
    return a.index < b.index;
  }
};

/// Reusable staging for the ranked-view operations.  Each protocol object
/// (or fleet scratch) owns one, so steady-state updates allocate nothing.
template <typename Entry>
struct RankScratch {
  std::vector<Entry> fresh;  ///< entries re-keyed by the update
  std::vector<RankKey<IdOf<Entry>>> keys;
  std::vector<std::uint32_t> moved;   ///< view slots merge_ranked vacated
  std::vector<std::uint32_t> picked;  ///< pick_closest's result
  std::size_t view_scanned = 0;  ///< view entries pick_closest last keyed
};

/// Age rule of an entry type without ages (sync T-Man).
struct NoAge {
  template <typename Entry>
  void operator()(Entry&, const Entry&) const noexcept {}
};

/// Forwarding rule that forwards every entry.
struct ForwardAll {
  template <typename Entry>
  bool operator()(const Entry&) const noexcept { return true; }
};

namespace detail {

/// `kept` takes `arriving`'s newer descriptor; its age, if it has one,
/// stays for the caller's age rule to set.
template <typename Entry>
void take_newer(Entry& kept, const Entry& arriving) {
  Entry newer = arriving;
  if constexpr (requires { kept.age; }) newer.age = kept.age;
  kept = newer;
}

/// Merges `scratch.fresh` into the ranked `view` and keeps the first `cap`
/// entries.  Precondition: the fresh ids are unique and absent from `view`,
/// so (key, id) orders the union strictly.
template <typename View, typename Entry>
void insert_fresh(View& view, const space::Point& owner_pos,
                  const space::MetricSpace& space, std::size_t cap,
                  RankScratch<Entry>& scratch) {
  const auto& fresh = scratch.fresh;
  auto& keys = scratch.keys;
  keys.clear();
  for (std::uint32_t i = 0; i < fresh.size(); ++i)
    keys.push_back({space.distance2(owner_pos, fresh[i].pos), fresh[i].id, i});
  std::sort(keys.begin(), keys.end());

  const std::size_t rest = view.size();
  const std::size_t n = std::min(cap, rest + keys.size());
  if constexpr (requires { view.reserve(n); })
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
  RankKey<IdOf<Entry>> key_i;
  bool keyed_i = false;
  while (j > 0) {
    --out;
    const auto& key_j = keys[j - 1];
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

}  // namespace detail

/// Full re-rank of `view` around `owner_pos`, for when the owner moved and
/// every key changed (or the view was filled out of order).
template <typename View, typename Entry>
void rank_view(View& view, const space::Point& owner_pos,
               const space::MetricSpace& space, RankScratch<Entry>& scratch) {
  scratch.fresh.assign(view.begin(), view.end());
  view.clear();
  detail::insert_fresh(view, owner_pos, space,
                       std::numeric_limits<std::size_t>::max(), scratch);
}

/// Merges `incoming` into `view`, the ranked view of `owner` (at
/// `owner_pos`), and truncates it to `cap`.  Entries of `owner` are
/// skipped.  A known id keeps the newer version; a new id enters with its
/// own age.  Either way `age_rule(kept, arriving)` then sets the kept
/// entry's age (every arrival calls it, whatever the versions).  A
/// duplicate id inside `incoming` meets the copy already taken.  The
/// result equals applying those updates, appending the new ids, fully
/// re-sorting and truncating — also when the ranked rest is already longer
/// than `cap`.  The cost is O(|incoming| · (|view| + |incoming|)): callers
/// bound what an untrusted peer can pass.
template <typename View, typename Entry, typename AgeRule = NoAge>
void merge_ranked(View& view,
                  std::type_identity_t<std::span<const Entry>> incoming,
                  IdOf<Entry> owner, const space::Point& owner_pos,
                  const space::MetricSpace& space, std::size_t cap,
                  RankScratch<Entry>& scratch, AgeRule age_rule = {}) {
  auto& fresh = scratch.fresh;
  auto& moved = scratch.moved;
  fresh.clear();
  moved.clear();
  // An entry whose position changes moves from `view` to `fresh`; its
  // stale slot stays until the one compaction pass after the loop.  Every
  // lookup checks `fresh` first, so each id resolves to exactly one live
  // copy, and a duplicate inside `incoming` finds the copy already taken.
  for (const Entry& d : incoming) {
    if (d.id == owner) continue;
    auto by_id = [&](const Entry& v) { return v.id == d.id; };
    if (auto f = std::find_if(fresh.begin(), fresh.end(), by_id);
        f != fresh.end()) {
      if (d.version > f->version) detail::take_newer(*f, d);
      age_rule(*f, d);
      continue;
    }
    auto v = std::find_if(view.begin(), view.end(), by_id);
    if (v == view.end()) {
      fresh.push_back(d);
      age_rule(fresh.back(), d);
    } else if (d.version > v->version) {
      fresh.push_back(*v);
      detail::take_newer(fresh.back(), d);
      age_rule(fresh.back(), d);
      moved.push_back(static_cast<std::uint32_t>(v - view.begin()));
    } else {
      age_rule(*v, d);  // same position: the rank holds
    }
  }
  if (!moved.empty()) {
    std::sort(moved.begin(), moved.end());
    std::size_t out = moved.front(), next = 0;
    for (std::size_t i = out; i < view.size(); ++i)
      if (next < moved.size() && moved[next] == i) ++next;
      else view[out++] = view[i];
    view.resize(out);
  }
  detail::insert_fresh(view, owner_pos, space, cap, scratch);
}

/// Position refresh of the ranked sync T-Man `view` of a node at
/// `owner_pos`: every entry whose version is older than `versions[id]`
/// takes `positions[id]` and that version, and the view is re-ranked.
/// Returns the number of refreshed entries.
inline std::size_t refresh_ranked(std::vector<Descriptor>& view,
                                  std::span<const space::Point> positions,
                                  std::span<const std::uint64_t> versions,
                                  const space::Point& owner_pos,
                                  const space::MetricSpace& space,
                                  RankScratch<Descriptor>& scratch) {
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
  detail::insert_fresh(view, owner_pos, space,
                       std::numeric_limits<std::size_t>::max(), scratch);
  return fresh.size();
}

/// Selects the gossip buffer `sender` sends to `receiver` (at
/// `receiver_pos`) from the candidates `view` ++ `extra`: keeps the
/// `msg + |extra|` smallest under the strict order (distance² to the
/// receiver, id, candidate index), so a view entry that `extra` repeats at
/// the same distance ranks first, and walks them in order, skipping the
/// receiver, ids already taken (the sender's own included) and entries
/// `forward` rejects, until `msg − 1` are taken; each protocol puts its
/// own descriptor first.  Returns their indices into view ++ extra, in rank
/// order, valid until `scratch`'s next use.
///
/// `ranked_around`, if not null, is the position `view` is ranked around
/// (ascending distance² to it, as `rank_view` leaves it).  It only lets the
/// view scan stop early; the result is the same without it.  Once the
/// prefix is full, an entry e with d(ranked_around, e) −
/// d(ranked_around, receiver) above the prefix's largest distance cannot
/// be kept, since d(receiver, e) is at least that difference (triangle
/// inequality), and neither can any later view entry, which lies at least
/// as far from `ranked_around`.  The scan tests this on each view entry
/// the full prefix rejects and stops at the first that passes.  Pass null
/// for a view that may be in a stale order.
template <typename View, typename Entry, typename Forward = ForwardAll>
std::span<const std::uint32_t> pick_closest(
    const View& view, std::type_identity_t<std::span<const Entry>> extra,
    IdOf<Entry> receiver, const space::Point& receiver_pos, IdOf<Entry> sender,
    const space::MetricSpace& space, std::size_t msg,
    RankScratch<Entry>& scratch, const space::Point* ranked_around,
    Forward forward = {}) {
  const std::size_t rest = view.size();
  auto entry = [&](std::uint32_t i) -> const Entry& {
    return i < rest ? view[i] : extra[i - rest];
  };
  auto& keys = scratch.keys;
  auto& picked = scratch.picked;
  keys.clear();
  picked.clear();
  scratch.view_scanned = 0;
  if (msg <= 1) return picked;  // room for the sender's own descriptor only

  // `keys` holds the `keep` smallest candidates offered so far, sorted.
  // Returns true when the prefix is full and its last key changed.
  const std::size_t keep = std::min(msg + extra.size(), rest + extra.size());
  auto offer = [&](const Entry& e, std::uint32_t i) {
    const RankKey<IdOf<Entry>> k{space.distance2(receiver_pos, e.pos), e.id, i};
    std::size_t hole = keys.size();
    if (hole < keep)
      keys.emplace_back();
    else if (k < keys.back())
      --hole;
    else
      return false;
    for (; hole > 0 && k < keys[hole - 1]; --hole) keys[hole] = keys[hole - 1];
    keys[hole] = k;
    return keys.size() == keep;
  };

  // The exit compares d²(ranked_around, e) with `exit_above`, the square
  // of (largest kept distance + d(ranked_around, receiver)), widened by a
  // relative and an absolute 1e-9 so that rounding cannot make it fire
  // where the exact bound would not.
  const double reach =
      ranked_around ? std::sqrt(space.distance2(*ranked_around, receiver_pos))
                    : 0.0;
  double exit_above = std::numeric_limits<double>::infinity();
  std::uint32_t i = 0;
  while (i < rest) {
    const Entry& e = view[i];
    if (offer(e, i++)) {
      if (ranked_around) {
        const double bound =
            (std::sqrt(keys.back().key) + reach) * (1.0 + 1e-9) + 1e-9;
        exit_above = bound * bound;
      }
    } else if (ranked_around && keys.size() == keep &&
               space.distance2(*ranked_around, e.pos) > exit_above) {
      break;
    }
  }
  scratch.view_scanned = i;
  for (std::uint32_t j = 0; j < extra.size(); ++j)
    offer(extra[j], static_cast<std::uint32_t>(rest + j));

  for (const auto& k : keys) {
    if (picked.size() + 1 >= msg) break;
    if (k.id == receiver || k.id == sender ||
        std::any_of(picked.begin(), picked.end(),
                    [&](std::uint32_t t) { return entry(t).id == k.id; }) ||
        !forward(entry(k.index)))
      continue;
    picked.push_back(k.index);
  }
  return picked;
}

}  // namespace poly::tman
