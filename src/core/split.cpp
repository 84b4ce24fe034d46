#include "core/split.hpp"

#include <stdexcept>

#include "space/diameter.hpp"
#include "space/medoid.hpp"

namespace poly::core {

std::string to_string(SplitKind kind) {
  switch (kind) {
    case SplitKind::kBasic: return "basic";
    case SplitKind::kPd: return "pd";
    case SplitKind::kMd: return "md";
    case SplitKind::kAdvanced: return "advanced";
  }
  return "unknown";
}

SplitKind split_kind_from_string(const std::string& name) {
  if (name == "basic") return SplitKind::kBasic;
  if (name == "pd") return SplitKind::kPd;
  if (name == "md") return SplitKind::kMd;
  if (name == "advanced") return SplitKind::kAdvanced;
  throw std::invalid_argument("unknown split kind: " + name);
}

SplitResult split_basic(std::span<const space::DataPoint> pool,
                        const space::Point& pos_p, const space::Point& pos_q,
                        const space::MetricSpace& space) {
  SplitResult out;
  for (const auto& x : pool) {
    // Algorithm 4: strict < goes to p, ties go to q.
    if (space.distance(x.pos, pos_p) < space.distance(x.pos, pos_q))
      out.for_p.push_back(x);
    else
      out.for_q.push_back(x);
  }
  return out;
}

namespace {

/// PD partition (Algorithm 5, lines 2-4): split `pool` along a diameter
/// (u, v); each point joins the closer endpoint, ties joining v.  Returns
/// false when the partition degenerates (all points coincide), in which
/// case callers fall back to the basic split.
bool pd_partition(std::span<const space::DataPoint> pool,
                  const space::MetricSpace& space, util::Rng& rng,
                  const SplitConfig& cfg, PointSet& side_u, PointSet& side_v) {
  const auto diam =
      space::diameter(pool, space, rng, cfg.diameter_exact_threshold);
  if (diam.distance <= 0.0) return false;  // all points coincide
  const space::Point& u = pool[diam.u].pos;
  const space::Point& v = pool[diam.v].pos;
  for (const auto& x : pool) {
    if (space.distance(x.pos, u) < space.distance(x.pos, v))
      side_u.push_back(x);
    else
      side_v.push_back(x);
  }
  // u itself is strictly closer to u, v ties toward v: both sides non-empty.
  return !side_u.empty() && !side_v.empty();
}

/// MD assignment (Algorithm 5, lines 5-13): orient two clusters onto (p, q)
/// so that the nodes move as little as possible.  Returns true when
/// (cluster_a → p, cluster_b → q) is the better orientation.  With an rng
/// the cluster medoids are threshold-routed (exact up to
/// space::kMedoidExactThreshold points, sampled/grid-assisted beyond);
/// without one they are exact.
bool md_orientation(const PointSet& cluster_a, const PointSet& cluster_b,
                    const space::Point& pos_p, const space::Point& pos_q,
                    const space::MetricSpace& space, util::Rng* rng) {
  const space::Point ma = rng ? space::medoid(cluster_a, space, *rng)
                              : space::medoid(cluster_a, space);
  const space::Point mb = rng ? space::medoid(cluster_b, space, *rng)
                              : space::medoid(cluster_b, space);
  const double d_ab =
      space.distance(ma, pos_p) + space.distance(mb, pos_q);
  const double d_ba =
      space.distance(mb, pos_p) + space.distance(ma, pos_q);
  return d_ab < d_ba;
}

}  // namespace

SplitResult split_advanced(std::span<const space::DataPoint> pool,
                           const space::Point& pos_p,
                           const space::Point& pos_q,
                           const space::MetricSpace& space, util::Rng& rng,
                           const SplitConfig& cfg) {
  if (pool.size() < 2) return split_basic(pool, pos_p, pos_q, space);
  PointSet side_u;
  PointSet side_v;
  if (!pd_partition(pool, space, rng, cfg, side_u, side_v))
    return split_basic(pool, pos_p, pos_q, space);
  if (md_orientation(side_u, side_v, pos_p, pos_q, space, &rng))
    return SplitResult{std::move(side_u), std::move(side_v)};
  return SplitResult{std::move(side_v), std::move(side_u)};
}

SplitResult split_pd(std::span<const space::DataPoint> pool,
                     const space::Point& pos_p, const space::Point& pos_q,
                     const space::MetricSpace& space, util::Rng& rng,
                     const SplitConfig& cfg) {
  if (pool.size() < 2) return split_basic(pool, pos_p, pos_q, space);
  PointSet side_u;
  PointSet side_v;
  if (!pd_partition(pool, space, rng, cfg, side_u, side_v))
    return split_basic(pool, pos_p, pos_q, space);
  // No MD: fixed orientation u→p, v→q.
  return SplitResult{std::move(side_u), std::move(side_v)};
}

namespace {

SplitResult split_md_impl(std::span<const space::DataPoint> pool,
                          const space::Point& pos_p,
                          const space::Point& pos_q,
                          const space::MetricSpace& space, util::Rng* rng) {
  SplitResult basic = split_basic(pool, pos_p, pos_q, space);
  if (basic.for_p.empty() || basic.for_q.empty()) return basic;
  if (md_orientation(basic.for_p, basic.for_q, pos_p, pos_q, space, rng))
    return basic;
  return SplitResult{std::move(basic.for_q), std::move(basic.for_p)};
}

}  // namespace

SplitResult split_md(std::span<const space::DataPoint> pool,
                     const space::Point& pos_p, const space::Point& pos_q,
                     const space::MetricSpace& space) {
  return split_md_impl(pool, pos_p, pos_q, space, nullptr);
}

SplitResult split_md(std::span<const space::DataPoint> pool,
                     const space::Point& pos_p, const space::Point& pos_q,
                     const space::MetricSpace& space, util::Rng& rng) {
  return split_md_impl(pool, pos_p, pos_q, space, &rng);
}

SplitResult split(SplitKind kind, std::span<const space::DataPoint> pool,
                  const space::Point& pos_p, const space::Point& pos_q,
                  const space::MetricSpace& space, util::Rng& rng,
                  const SplitConfig& cfg) {
  switch (kind) {
    case SplitKind::kBasic: return split_basic(pool, pos_p, pos_q, space);
    case SplitKind::kPd: return split_pd(pool, pos_p, pos_q, space, rng, cfg);
    case SplitKind::kMd:
      return split_md(pool, pos_p, pos_q, space, rng);
    case SplitKind::kAdvanced:
      return split_advanced(pool, pos_p, pos_q, space, rng, cfg);
  }
  throw std::invalid_argument("split: unknown kind");
}

}  // namespace poly::core
