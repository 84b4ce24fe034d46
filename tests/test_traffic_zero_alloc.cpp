// Zero-steady-state-allocation proof for the traffic plane.
//
// The request path promises the same arena discipline as the per-node
// view storage (tests/test_arena_views.cpp): after warm-up — request-slot
// pool at its high-water mark, engine event storage settled — a steady
// open-loop workload performs *zero* heap allocations per request.  Slots
// recycle through RequestTable's free list, hop events capture
// [this, slot] inside EventFn's small-buffer storage, and the latency
// histograms are fixed arrays.
//
// A full EventCluster is NOT allocation-free at steady state — guest
// migration builds temporary point sets in the protocol handlers — so a
// raw zero assertion would measure the protocol, not the traffic plane.
// Instead this test leans on the plane's determinism contract (the
// protocol trajectory is bit-identical with traffic on or off, pinned by
// test_trajectory_pin): two same-seed fleets, one silent and one serving
// 64 requests/round, must allocate *exactly the same* number of times
// over the measured window — every extra allocation would be the traffic
// plane's, and there must be none.
//
// The counter overrides global operator new/delete, so this test stays in
// its own binary (the build gives every tests/*.cpp its own binary).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "engine/event_cluster.hpp"
#include "shape/grid_torus.hpp"
#include "traffic/workload.hpp"

// ---- counting allocator -----------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};

void* counted_alloc(std::size_t n, std::size_t align) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  void* p = align > alignof(std::max_align_t)
                ? std::aligned_alloc(align, (n + align - 1) / align * align)
                : std::malloc(n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n, 1); }
void* operator new[](std::size_t n) { return counted_alloc(n, 1); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
// The aligned forms too: their memory came from aligned_alloc above.
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace poly;

constexpr std::size_t kWarmupRounds = 40;
constexpr std::size_t kMeasuredRounds = 20;
constexpr std::size_t kRate = 64;

/// Builds a seed-1 8x6 fleet, optionally serving kRate requests/round,
/// warms it up, and returns the allocation count of the measured window.
std::uint64_t measured_allocs(bool with_traffic,
                              engine::EventCluster** out_fleet) {
  shape::GridTorusShape shape(8, 6);
  engine::EventClusterConfig cfg;  // defaults: 2 ms reliable links
  auto* fleet =
      new engine::EventCluster(shape.space_ptr(), shape.generate(), cfg,
                               /*seed=*/1);
  *out_fleet = fleet;
  if (with_traffic) {
    traffic::TrafficConfig tcfg;
    tcfg.rate_per_round = kRate;
    tcfg.mix = traffic::Mix::kMixed;
    fleet->start_traffic(tcfg);
  }
  // Warmup: protocol views fill, the request-slot pool and the engine's
  // event/wheel storage reach their high-water marks.
  fleet->run_rounds(kWarmupRounds);

  const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  fleet->run_rounds(kMeasuredRounds);
  return g_alloc_count.load(std::memory_order_relaxed) - before;
}

TEST(TrafficZeroAlloc, SteadyWorkloadAllocatesNothing) {
  engine::EventCluster* silent_fleet = nullptr;
  engine::EventCluster* serving_fleet = nullptr;
  const std::uint64_t silent = measured_allocs(false, &silent_fleet);
  const std::uint64_t serving = measured_allocs(true, &serving_fleet);

  EXPECT_EQ(serving, silent)
      << (serving - silent) << " extra heap allocations in "
      << kMeasuredRounds << " steady traffic rounds at " << kRate
      << " requests/round — the request path must not allocate";

  // Sanity: the workload actually ran through the window, and the two
  // protocol trajectories really were twins (same events would diverge
  // immediately if traffic perturbed the fleet).
  const traffic::TrafficPlane* plane = serving_fleet->traffic_plane();
  ASSERT_NE(plane, nullptr);
  EXPECT_GE(plane->totals().launched,
            (kWarmupRounds + kMeasuredRounds) * kRate);
  EXPECT_GT(plane->totals().completed, 0u);
  EXPECT_GT(plane->high_water(), 0u);
  EXPECT_EQ(silent_fleet->hub().frames_sent(),
            serving_fleet->hub().frames_sent());

  delete silent_fleet;
  delete serving_fleet;
}

}  // namespace
