// Micro-benchmarks of the protocol's hot primitives (google-benchmark):
// distance evaluation, medoid, diameter (exact vs sampled), the SPLIT
// variants, point-set merges and gossip-buffer selection.  These quantify
// the per-exchange costs described in docs/ARCHITECTURE.md.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "core/point_set.hpp"
#include "core/split.hpp"
#include "space/diameter.hpp"
#include "space/euclidean.hpp"
#include "space/medoid.hpp"
#include "space/torus.hpp"
#include "tman/ranked_view.hpp"
#include "util/rng.hpp"

namespace {

using poly::core::PointSet;
using poly::space::DataPoint;
using poly::space::Point;
using poly::space::TorusSpace;
using poly::util::Rng;

PointSet random_points(std::size_t n, Rng& rng, double extent = 40.0) {
  PointSet pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    pts.push_back({i, Point(rng.uniform_real(0, extent),
                            rng.uniform_real(0, extent))});
  return pts;
}

void BM_TorusDistance(benchmark::State& state) {
  TorusSpace t(80.0, 40.0);
  Rng rng(1);
  const auto pts = random_points(1024, rng);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& a = pts[i % pts.size()];
    const auto& b = pts[(i * 7 + 3) % pts.size()];
    benchmark::DoNotOptimize(t.distance(a.pos, b.pos));
    ++i;
  }
}
BENCHMARK(BM_TorusDistance);

void BM_Medoid(benchmark::State& state) {
  TorusSpace t(80.0, 40.0);
  Rng rng(2);
  const auto pts = random_points(static_cast<std::size_t>(state.range(0)), rng);
  for (auto _ : state)
    benchmark::DoNotOptimize(poly::space::medoid(pts, t));
}
BENCHMARK(BM_Medoid)->Arg(4)->Arg(16)->Arg(64);

void BM_ExactDiameter(benchmark::State& state) {
  TorusSpace t(80.0, 40.0);
  Rng rng(3);
  const auto pts = random_points(static_cast<std::size_t>(state.range(0)), rng);
  for (auto _ : state)
    benchmark::DoNotOptimize(poly::space::exact_diameter(pts, t));
}
BENCHMARK(BM_ExactDiameter)->Arg(8)->Arg(30)->Arg(100);

void BM_SampledDiameter(benchmark::State& state) {
  TorusSpace t(80.0, 40.0);
  Rng rng(4);
  const auto pts = random_points(static_cast<std::size_t>(state.range(0)), rng);
  for (auto _ : state)
    benchmark::DoNotOptimize(poly::space::sampled_diameter(pts, t, rng));
}
BENCHMARK(BM_SampledDiameter)->Arg(100)->Arg(1000);

void BM_Split(benchmark::State& state) {
  TorusSpace t(80.0, 40.0);
  Rng rng(5);
  const auto kind = static_cast<poly::core::SplitKind>(state.range(0));
  const auto pts = random_points(static_cast<std::size_t>(state.range(1)), rng);
  const Point pos_p(10.0, 10.0);
  const Point pos_q(30.0, 30.0);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        poly::core::split(kind, pts, pos_p, pos_q, t, rng));
}
BENCHMARK(BM_Split)
    ->Args({static_cast<long>(poly::core::SplitKind::kBasic), 16})
    ->Args({static_cast<long>(poly::core::SplitKind::kAdvanced), 16})
    ->Args({static_cast<long>(poly::core::SplitKind::kBasic), 64})
    ->Args({static_cast<long>(poly::core::SplitKind::kAdvanced), 64});

void BM_UnionById(benchmark::State& state) {
  Rng rng(6);
  const auto n = static_cast<std::size_t>(state.range(0));
  auto a = random_points(n, rng);
  auto b = random_points(n, rng);
  // Overlap half the ids to exercise dedup.
  for (std::size_t i = 0; i < n / 2; ++i) b[i].id = a[i].id;
  poly::core::normalize(a);
  poly::core::normalize(b);
  for (auto _ : state)
    benchmark::DoNotOptimize(poly::core::union_by_id(a, b));
}
BENCHMARK(BM_UnionById)->Arg(8)->Arg(64);

// One converged sync T-Man buffer pick on the 80x40 torus (§IV-A): the
// sender's ranked view holds its 100 closest nodes, the RPS adds 5 random
// candidates, the receiver is one of the ψ = 5 closest view entries, and
// m = 20.  Arg 1 passes the sender's position, so the view scan may stop
// early; arg 0 keys the whole view.  `view_scanned` is the mean number of
// view entries keyed per pick.
void BM_PickClosest(benchmark::State& state) {
  using poly::tman::Descriptor;
  TorusSpace t(80.0, 40.0);
  Rng rng(7);
  auto node = [](std::uint32_t id) {
    return Descriptor{id, Point(id % 80, id / 80), 1};
  };
  struct Case {
    Descriptor sender, receiver;
    std::vector<Descriptor> view, extra;
  };
  std::vector<Case> cases(64);
  poly::tman::RankScratch<Descriptor> scratch;
  for (Case& c : cases) {
    c.sender = node(static_cast<std::uint32_t>(rng.index(3200)));
    for (std::uint32_t id = 0; id < 3200; ++id)
      if (id != c.sender.id) c.view.push_back(node(id));
    poly::tman::rank_view(c.view, c.sender.pos, t, scratch);
    c.view.resize(100);
    c.receiver = c.view[rng.index(5)];
    while (c.extra.size() < 5) {
      const auto id = static_cast<std::uint32_t>(rng.index(3200));
      if (id != c.sender.id && id != c.receiver.id) c.extra.push_back(node(id));
    }
  }
  const bool ranked_around = state.range(0) != 0;
  std::size_t picks = 0, scanned = 0;
  for (auto _ : state) {
    const Case& c = cases[picks++ % cases.size()];
    benchmark::DoNotOptimize(
        poly::tman::pick_closest(c.view, c.extra, c.receiver.id,
                                 c.receiver.pos, c.sender.id, t, 20, scratch,
                                 ranked_around ? &c.sender.pos : nullptr)
            .size());
    scanned += scratch.view_scanned;
  }
  state.counters["view_scanned"] =
      static_cast<double>(scanned) / static_cast<double>(picks);
}
BENCHMARK(BM_PickClosest)->Arg(0)->Arg(1);

}  // namespace
