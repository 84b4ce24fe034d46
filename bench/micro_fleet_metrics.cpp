// Post-catastrophe fleet-metrics microbench — the hot path of the paper's
// headline scenario ("kill 50% of the nodes, watch the shape survive").
//
// Right after a half-torus crash, metrics::homogeneity must resolve the
// nearest alive node for every *lost* data point.  The old implementation
// scanned all alive nodes per lost point — O(lost × alive), ~2.6G distance
// evaluations at 102,400 nodes — exactly when the metric is sampled every
// round.  The shared space::SpatialIndex answers each fallback in ~O(1)
// expected.  This bench times one homogeneity snapshot on the worst-case
// state (half the points lost) through the indexed path and through a
// linear reference identical to the old code, and reports the speedup.
//
//   micro_fleet_metrics                     # sweep to --max-nodes
//   micro_fleet_metrics --max-nodes 102400  # the 100k-node point
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <unordered_map>

#include "common.hpp"
#include "metrics/metrics.hpp"
#include "shape/grid_torus.hpp"

namespace {

/// One alive node of the snapshot: its position and its guests.
struct Host {
  poly::space::Point pos;
  std::vector<poly::space::DataPoint> guests;
};

/// The pre-SpatialIndex fleet homogeneity, verbatim: one id-index pass
/// over all guest sets, then a linear scan over *all alive nodes* for each
/// lost point — the O(lost × alive) hot spot the index removed.  Kept
/// here as the bench's reference only.
double homogeneity_linear_reference(
    const poly::space::MetricSpace& space,
    const std::vector<poly::space::DataPoint>& points,
    const std::vector<Host>& alive) {
  if (alive.empty()) return 0.0;
  std::unordered_map<poly::space::PointId, std::size_t> index;
  index.reserve(points.size());
  for (std::size_t i = 0; i < points.size(); ++i)
    index.emplace(points[i].id, i);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> best(points.size(), kInf);
  for (const auto& node : alive) {
    for (const auto& g : node.guests) {
      const auto it = index.find(g.id);
      if (it == index.end()) continue;
      const double d = space.distance(points[it->second].pos, node.pos);
      if (d < best[it->second]) best[it->second] = d;
    }
  }
  double sum = 0.0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    double d = best[i];
    if (!std::isfinite(d)) {
      d = kInf;
      for (const auto& node : alive)
        d = std::min(d, space.distance(points[i].pos, node.pos));
    }
    sum += d;
  }
  return sum / static_cast<double>(points.size());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace poly;
  const auto opt = bench::BenchOptions::parse(argc, argv, /*reps=*/3);
  std::printf(
      "Fleet-metrics snapshot after a 50%% crash: SpatialIndex vs linear "
      "fallback\n\n");

  util::Table table({"nodes", "alive", "lost", "homogeneity", "t_indexed_ms",
                     "t_linear_ms", "speedup"});
  for (std::size_t n : bench::sweep_sizes(opt)) {
    if (n < 1600) continue;  // too small to time meaningfully
    const auto dims = bench::grid_for(n);
    shape::GridTorusShape shape(dims.nx, dims.ny);
    const auto points = shape.generate();

    // Worst-case post-catastrophe state: the failure half is gone, every
    // survivor hosts exactly its own point — so half the points are lost
    // and take the nearest-alive fallback.
    std::vector<Host> alive;
    for (const auto& dp : points)
      if (!shape.in_failure_half(dp.pos)) alive.push_back({dp.pos, {dp}});
    const metrics::ForEachHost hosts = [&](const metrics::HostVisit& visit) {
      for (const Host& h : alive) visit(h.pos, h.guests);
    };

    double indexed = 0.0;
    double t_indexed = 0.0;
    for (std::size_t rep = 0; rep < opt.reps; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      indexed = metrics::homogeneity(shape.space(), points, hosts);
      t_indexed += std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
    }
    t_indexed /= static_cast<double>(opt.reps);

    // The quadratic reference is run once per size (it *is* the slow path
    // being measured; at 102k nodes one evaluation takes tens of seconds).
    const auto t1 = std::chrono::steady_clock::now();
    const double linear =
        homogeneity_linear_reference(shape.space(), points, alive);
    const double t_linear = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - t1)
                                .count();

    if (indexed != linear) {
      std::fprintf(stderr,
                   "MISMATCH at %zu nodes: indexed=%.17g linear=%.17g\n", n,
                   indexed, linear);
      return 1;
    }

    table.add_row({std::to_string(n), std::to_string(alive.size()),
                   std::to_string(points.size() - alive.size()),
                   util::fmt(indexed, 3), util::fmt(t_indexed, 3),
                   util::fmt(t_linear, 3),
                   util::fmt(t_indexed > 0 ? t_linear / t_indexed : 0.0, 1)});
    std::printf("  done: %zu nodes (indexed %.2fms, linear %.2fms)\n", n,
                t_indexed, t_linear);
  }

  std::puts("");
  bench::emit(table, opt, "micro_fleet_metrics");
  std::puts(
      "\nExpected: identical homogeneity values; speedup growing with N "
      "(≥5× well before the 100k-node point).");
  return 0;
}
