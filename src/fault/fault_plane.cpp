#include "fault/fault_plane.hpp"

#include <algorithm>

namespace poly::fault {

namespace {

std::vector<bool> make_member(const std::vector<std::uint32_t>& ids) {
  std::uint32_t hi = 0;
  for (std::uint32_t id : ids) hi = std::max(hi, id);
  std::vector<bool> member(ids.empty() ? 0 : hi + 1, false);
  for (std::uint32_t id : ids) member[id] = true;
  return member;
}

}  // namespace

RuleId FaultPlane::push_rule(Rule r) {
  RuleId id = static_cast<RuleId>(rules_.size());
  r.rng = stream(id);
  rules_.push_back(std::move(r));
  return id;
}

RuleId FaultPlane::add_partition(const std::vector<std::uint32_t>& side,
                                 SimTime from, SimTime until) {
  Rule r;
  r.kind = Rule::Kind::kPartition;
  r.from = from;
  r.until = until;
  r.member = make_member(side);
  return push_rule(std::move(r));
}

RuleId FaultPlane::add_blackhole(std::uint32_t src_node, std::uint32_t dst_node,
                                 SimTime from, SimTime until) {
  Rule r;
  r.kind = Rule::Kind::kBlackhole;
  r.from = from;
  r.until = until;
  r.src = src_node;
  r.dst = dst_node;
  return push_rule(std::move(r));
}

RuleId FaultPlane::add_degrade(const std::vector<std::uint32_t>& members,
                               Direction dir, double extra_drop,
                               SimTime jitter_max, SimTime from, SimTime until) {
  Rule r;
  r.kind = Rule::Kind::kDegrade;
  r.dir = dir;
  r.from = from;
  r.until = until;
  r.prob = extra_drop;
  r.jitter_max = jitter_max;
  r.member = make_member(members);
  if (jitter_max > SimTime{0}) ++jitter_rules_;
  return push_rule(std::move(r));
}

RuleId FaultPlane::add_corrupt(double p, SimTime from, SimTime until) {
  Rule r;
  r.kind = Rule::Kind::kCorrupt;
  r.from = from;
  r.until = until;
  r.prob = p;
  return push_rule(std::move(r));
}

RuleId FaultPlane::add_duplicate(double p, SimTime from, SimTime until) {
  Rule r;
  r.kind = Rule::Kind::kDuplicate;
  r.from = from;
  r.until = until;
  r.prob = p;
  return push_rule(std::move(r));
}

RuleId FaultPlane::add_reorder(double p, SimTime jitter_max, SimTime from,
                               SimTime until) {
  Rule r;
  r.kind = Rule::Kind::kReorder;
  r.from = from;
  r.until = until;
  r.prob = p;
  r.jitter_max = jitter_max;
  ++jitter_rules_;
  return push_rule(std::move(r));
}

void FaultPlane::heal(RuleId id, SimTime at) {
  if (id < rules_.size() && at < rules_[id].until) rules_[id].until = at;
}

FrameFate FaultPlane::fate(std::uint32_t from, std::uint32_t to,
                           std::size_t /*bytes*/, SimTime now) {
  FrameFate f;
  for (Rule& r : rules_) {
    if (now < r.from || now >= r.until) continue;
    switch (r.kind) {
      case Rule::Kind::kPartition:
        if (r.in_set(from) != r.in_set(to)) {
          ++counters_.frames_blackholed;
          f.blackholed = true;
          return f;
        }
        break;
      case Rule::Kind::kBlackhole:
        if (from == r.src && to == r.dst) {
          ++counters_.frames_blackholed;
          f.blackholed = true;
          return f;
        }
        break;
      case Rule::Kind::kDegrade: {
        const bool match = r.dir == Direction::kBoth
                               ? (r.in_set(from) || r.in_set(to))
                           : r.dir == Direction::kInto ? r.in_set(to)
                                                       : r.in_set(from);
        if (!match) break;
        if (r.prob > 0.0 && r.rng.bernoulli(r.prob)) {
          ++counters_.frames_blackholed;
          f.blackholed = true;
          return f;
        }
        if (r.jitter_max > SimTime{0})
          f.extra_latency +=
              SimTime{r.rng.uniform_i64(0, r.jitter_max.count())};
        break;
      }
      case Rule::Kind::kCorrupt:
        if (r.rng.bernoulli(r.prob)) {
          ++counters_.frames_corrupted;
          f.corrupt = true;
        }
        break;
      case Rule::Kind::kDuplicate:
        if (r.rng.bernoulli(r.prob)) {
          ++counters_.frames_duplicated;
          ++f.copies;
        }
        break;
      case Rule::Kind::kReorder:
        if (r.rng.bernoulli(r.prob)) {
          ++counters_.frames_reordered;
          f.reorder_latency +=
              SimTime{r.rng.uniform_i64(1, r.jitter_max.count())};
        }
        break;
    }
  }
  return f;
}

void FaultPlane::corrupt_payload(std::vector<std::uint8_t>& payload) {
  if (payload.empty()) return;
  const std::int64_t flips =
      corrupt_rng_.uniform_i64(1, std::min<std::int64_t>(4, payload.size()));
  for (std::int64_t i = 0; i < flips; ++i) {
    const std::size_t pos = corrupt_rng_.index(payload.size());
    // A zero mask would be a no-op "corruption"; 1..255 guarantees the
    // byte — and thus the frame — actually changes.
    payload[pos] ^=
        static_cast<std::uint8_t>(corrupt_rng_.uniform_i64(1, 255));
  }
}

}  // namespace poly::fault
