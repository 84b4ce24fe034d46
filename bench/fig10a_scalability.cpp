// Figure 10a — "Reshaping time vs network size, K ∈ {2, 4, 8}, splitting
// with SPLIT_ADVANCED".
//
// Networks from 100 to 51,200 nodes (torus doubling one axis at a time),
// half the torus crashed after convergence, reshaping time measured as in
// Table II.  Expected shape (paper §IV-C): near-logarithmic growth in N,
// ordered K2 < K4 < K8, with K = 8 at 51,200 nodes around 14.08 ± 0.11
// rounds.
//
// Default repetitions shrink for the large sizes (see common.hpp) so the
// sweep stays affordable; POLY_BENCH_MAX_NODES / POLY_BENCH_REPS override.
#include <cstdio>

#include "common.hpp"

int main(int argc, char** argv) {
  using namespace poly;
  const auto opt = bench::BenchOptions::parse(argc, argv, /*reps=*/6);
  std::printf("Fig. 10a: reshaping time vs network size (SPLIT_ADVANCED, "
              "seed %llu)\n\n",
              static_cast<unsigned long long>(opt.seed));

  util::Table table({"nodes", "grid", "K=2", "K=4", "K=8", "reps"});
  for (std::size_t n : bench::sweep_sizes(opt)) {
    const auto dims = bench::grid_for(n);
    const std::size_t reps = bench::reps_for_size(opt, n);

    std::vector<std::string> row{std::to_string(n),
                                 std::to_string(dims.nx) + "x" +
                                     std::to_string(dims.ny)};
    for (std::size_t k : {2ul, 4ul, 8ul}) {
      // Larger networks need a little longer to converge before the crash;
      // the failure window is generous enough for every K.
      auto program = bench::crash_repair_program(n, 25, 60, opt);
      program.reps = reps;
      program.options.config.poly.replication = k;
      row.push_back(bench::reshaping_cell(scenario::run_program(program)));
    }
    row.push_back(std::to_string(reps));
    table.add_row(std::move(row));
    std::printf("  done: %zu nodes\n", n);
  }

  std::puts("");
  bench::emit(table, opt, "fig10a");
  std::puts("\nPaper: ~logarithmic growth; 14.08 ± 0.11 rounds at 51,200 "
            "nodes for K=8.");
  return 0;
}
