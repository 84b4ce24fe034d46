// Figure 7a — "Memory overhead (data points per node)".
//
// Average number of stored data points (guests + ghosts) per alive node
// through the three-phase scenario.  Expected shape (paper §IV-B):
//   * K+1 points per node in steady state (one guest + K ghost copies);
//   * a transient spike right after the crash — freshly reactivated ghosts
//     are eagerly re-replicated before the redundant copies deduplicate;
//   * ≈ 2(K+1) per node once stabilized post-crash (half the nodes host the
//     same point population), e.g. 17.73 at round 40 for K = 8;
//   * back toward K+1 after re-injection; T-Man flat at 1.
// The companion table (fig07a_bytes) grounds the same overhead claim in
// bytes rather than point counts: an engine-driven fleet's state memory
// from exact allocator counters — the view arena, the node slab, the
// heap-backed guest/ghost state, and the transport hub — itemized and
// divided per node.  Deterministic for a given seed.
#include <cstdio>
#include <string>

#include "common.hpp"
#include "engine/event_cluster.hpp"
#include "shape/grid_torus.hpp"

namespace {

/// Converged-fleet memory audit at `n` nodes (paper defaults, K = 8).
void add_bytes_rows(poly::util::Table& table, std::size_t n,
                    std::uint64_t seed) {
  using namespace poly;
  const auto dims = bench::grid_for(n);
  shape::GridTorusShape shape(dims.nx, dims.ny);
  engine::EventClusterConfig cfg;
  cfg.node.replication = 8;
  engine::EventCluster fleet(shape.space_ptr(), shape.generate(), cfg, seed);
  fleet.run_rounds(20);  // converge: views full, ghosts placed
  const auto m = fleet.memory_breakdown();
  table.add_row({std::to_string(n), std::to_string(m.arena_used),
                 std::to_string(m.arena_reserved),
                 std::to_string(m.node_objects), std::to_string(m.state_heap),
                 std::to_string(m.hub_bytes), std::to_string(m.total()),
                 std::to_string(fleet.mem_bytes_per_node())});
  std::printf("  %zu nodes: %zu B/node (arena %zu, slab %zu, state %zu, "
              "hub %zu)\n",
              n, fleet.mem_bytes_per_node(), m.arena_reserved, m.node_objects,
              m.state_heap, m.hub_bytes);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace poly;
  const auto opt = bench::BenchOptions::parse(argc, argv, /*reps=*/5);
  std::printf("Fig. 7a: data points per node vs rounds (80x40 torus, %zu "
              "reps, seed %llu)\n\n",
              opt.reps, static_cast<unsigned long long>(opt.seed));

  const auto r = bench::run_paper_scenario(opt);
  bench::emit(r.series_table("points_per_node"), opt, "fig07a");

  std::puts("\nKey paper values: K+1 pre-crash; spike at r=20; ≈ 17.73 for "
            "K8 at round 40; TMan flat at 1.");

  std::printf("\nState memory per node, engine fleet, K = 8 (exact "
              "counters):\n");
  util::Table bytes({"nodes", "arena_used", "arena_reserved", "node_objects",
                     "state_heap", "hub_bytes", "total_bytes",
                     "bytes_per_node"});
  for (std::size_t n = 800; n <= std::min<std::size_t>(opt.max_nodes, 12800);
       n *= 4)
    add_bytes_rows(bytes, n, opt.seed);
  std::puts("");
  bench::emit(bytes, opt, "fig07a_bytes");
  return 0;
}
