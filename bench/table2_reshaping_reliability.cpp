// Table II — "Reshaping time and reliability, 40 × 80 torus, averaged on 25
// experiments, confidence interval at 95%".
//
//   K   Reshaping time (rounds)   Reliability (%)
//   2   5.00 ± 0.000              87.73 ± 0.18
//   4   6.96 ± 0.083              96.88 ± 0.10
//   8   9.08 ± 0.114              99.80 ± 0.03
//
// Thin wrapper over the scenario compiler: each K row runs
// scenarios/table2_k{2,4,8}.poly (converge 20 / crash half / repair 40)
// through the program runner (seeds base+0 … base+R-1, Student-t 95%
// CIs).  Reshaping time = rounds after the half-torus crash until
// homogeneity drops below H¹⁶⁰⁰ = √2/2; reliability = fraction of the
// 3,200 original data points that survive.  The expected trade-off: higher
// K is more reliable (§III-D analytic column) but reshapes more slowly —
// more redundant copies must be deduplicated by migration.
#include <cstdio>

#include "common.hpp"
#include "core/polystyrene.hpp"
#include "scenario/program.hpp"

int main(int argc, char** argv) {
  using namespace poly;
  const auto opt = bench::BenchOptions::parse(argc, argv, /*reps=*/10);
  std::printf("Table II: reshaping time & reliability (80x40 torus, %zu "
              "reps, seed %llu; paper used 25 reps)\n\n",
              opt.reps, static_cast<unsigned long long>(opt.seed));

  util::Table table({"K", "Reshaping time (rounds)", "Reliability (%)",
                     "Analytic reliability (%)", "Paper reshaping",
                     "Paper reliability"});

  const char* paper_reshaping[] = {"5.00 ± 0.000", "6.96 ± 0.083",
                                   "9.08 ± 0.114"};
  const char* paper_reliability[] = {"87.73 ± 0.18", "96.88 ± 0.10",
                                     "99.80 ± 0.03"};
  const std::size_t ks[] = {2, 4, 8};

  for (int i = 0; i < 3; ++i) {
    auto program = scenario::load_program(
        std::string(POLY_SCENARIO_DIR) + "/table2_k" +
        std::to_string(ks[i]) + ".poly");
    program.options.config.seed = opt.seed;
    program.reps = opt.reps;

    const auto result = scenario::run_program(program);
    table.add_row(
        {std::to_string(ks[i]),
         result.reshaping_ci().str(3) +
             (result.never_reshaped()
                  ? " (" + std::to_string(result.never_reshaped()) +
                        " runs never reshaped)"
                  : ""),
         bench::reliability_pct_cell(result),
         util::fmt(core::PolystyreneLayer::analytic_survival(ks[i], 0.5) *
                       100.0,
                   2),
         paper_reshaping[i], paper_reliability[i]});
  }

  bench::emit(table, opt, "table2");
  std::puts("\nExpected shape: reshaping grows with K (dedup cost), "
            "reliability tracks the analytic 1 - 0.5^(K+1).");
  return 0;
}
