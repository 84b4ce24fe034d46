// Figure 10b — "Impact of the split function, K = 4".
//
// Reshaping time vs network size for the SPLIT variants.  The paper plots
// Split_Basic / Split_MD / Split_Advanced (MD+PD) and reports (§IV-C) that
// at 51,200 nodes the diameter heuristic alone cuts reshaping time ÷2.76
// and the full combination ÷2.90 (down to 10 rounds for K = 4).  We sweep
// all four factored variants — BASIC, PD-only, MD-only, ADVANCED — so both
// heuristics' contributions are visible separately.
//
// Note: SPLIT_BASIC reshapes very slowly at scale (that is the point of the
// figure); runs that have not reshaped when the failure window closes are
// reported as DNF with the window length as a lower bound.
#include <cstdio>

#include "common.hpp"
#include "core/split.hpp"

int main(int argc, char** argv) {
  using namespace poly;
  auto opt = bench::BenchOptions::parse(argc, argv, /*reps=*/4);
  std::printf("Fig. 10b: reshaping time vs split function (K=4, seed "
              "%llu)\n\n",
              static_cast<unsigned long long>(opt.seed));

  using core::SplitKind;
  const std::pair<SplitKind, const char*> variants[] = {
      {SplitKind::kBasic, "Split_Basic"},
      {SplitKind::kMd, "Split_MD"},
      {SplitKind::kPd, "Split_PD"},
      {SplitKind::kAdvanced, "Split_Advanced"},
  };

  std::vector<std::string> headers{"nodes", "grid"};
  for (const auto& [kind, name] : variants) headers.emplace_back(name);
  headers.emplace_back("reps");
  util::Table table(std::move(headers));

  for (std::size_t n : bench::sweep_sizes(opt)) {
    const auto dims = bench::grid_for(n);
    const std::size_t reps = bench::reps_for_size(opt, n);

    std::vector<std::string> row{std::to_string(n),
                                 std::to_string(dims.nx) + "x" +
                                     std::to_string(dims.ny)};
    for (const auto& [kind, name] : variants) {
      // Basic needs a long window at scale (paper: ~29 rounds at 51,200).
      auto program = bench::crash_repair_program(n, 25, 80, opt);
      program.reps = reps;
      program.options.config.poly.split_kind = kind;
      row.push_back(
          bench::reshaping_cell(scenario::run_program(program), "DNF>80"));
    }
    row.push_back(std::to_string(reps));
    table.add_row(std::move(row));
    std::printf("  done: %zu nodes\n", n);
  }

  std::puts("");
  bench::emit(table, opt, "fig10b");
  std::puts("\nPaper (51,200 nodes, K=4): Advanced ≈ 10 rounds, ÷2.90 vs "
            "Basic; PD alone ÷2.76.");
  return 0;
}
