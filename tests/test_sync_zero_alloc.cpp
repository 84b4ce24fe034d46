// Steady-state allocation count of the sync gossip stack.
//
// The paper's sync simulator (scenario::Simulation) runs one RPS shuffle
// and one T-Man exchange per alive node per round.  Both protocols stage
// their buffers in scratch they own, and a T-Man view grows to exactly
// the size it needs and keeps that capacity.  Once T-Man has converged
// its views stop growing (gossip partners send ids the view already
// knows), so a protocol round allocates once: the shuffled activation
// order returned by Network::shuffled_alive_ids.  This test counts
// operator new around each protocol's round() at 800 and 3,200 nodes; the
// count must not grow with the node count.
//
// The counter overrides global operator new/delete, so this test stays in
// its own binary (the build gives every tests/*.cpp its own binary).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>

#include "scenario/simulation.hpp"
#include "shape/grid_torus.hpp"

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

constexpr std::size_t kWarmupRounds = 30;
constexpr std::size_t kMeasuredRounds = 5;

struct RoundAllocs {
  std::uint64_t rps = 0;   ///< most allocations of one RPS round
  std::uint64_t tman = 0;  ///< most allocations of one T-Man round
};

std::uint64_t allocs_of(const auto& fn) {
  const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  fn();
  return g_alloc_count.load(std::memory_order_relaxed) - before;
}

/// Runs the paper's stack (Polystyrene over T-Man over RPS) on an nx×ny
/// torus for kWarmupRounds, then measures each protocol round of
/// kMeasuredRounds full rounds.
RoundAllocs measure(unsigned nx, unsigned ny) {
  const shape::GridTorusShape shape(nx, ny);
  scenario::Simulation sim(shape, {});
  sim.run_rounds(kWarmupRounds);

  RoundAllocs worst;
  for (std::size_t r = 0; r < kMeasuredRounds; ++r) {
    worst.rps = std::max(worst.rps, allocs_of([&] { sim.rps().round(); }));
    worst.tman =
        std::max(worst.tman, allocs_of([&] { sim.topology().round(); }));
    sim.polystyrene()->round();
    sim.network().advance_round();
  }
  // The gossip really ran: both channels billed traffic in the last round.
  const std::size_t last = sim.network().round() - 1;
  EXPECT_GT(sim.network().traffic().total(last, sim::Channel::kRps), 0.0);
  EXPECT_GT(sim.network().traffic().total(last, sim::Channel::kTman), 0.0);
  // Exact growth: no view holds more capacity than the cap.
  const std::size_t cap = sim.tman().config().view_cap;
  for (sim::NodeId id = 0; id < sim.network().num_total(); ++id)
    EXPECT_LE(sim.tman().view(id).capacity(), cap) << "node " << id;
  return worst;
}

TEST(SyncZeroAlloc, GossipRoundsAllocateOnlyTheActivationOrder) {
  for (const auto& [nx, ny] : {std::pair{40u, 20u}, std::pair{80u, 40u}}) {
    const RoundAllocs worst = measure(nx, ny);
    EXPECT_LE(worst.rps, 1u) << nx * ny << " nodes: RpsProtocol::round";
    EXPECT_LE(worst.tman, 1u) << nx * ny << " nodes: TmanProtocol::round";
  }
}

}  // namespace
