// Ablation (the paper's modularity claim, §II-C) — topology substrate.
//
// "Polystyrene … comes in the form of an add-on layer that can be plugged
// into any decentralized topology construction algorithm."  This bench runs
// the identical three-phase catastrophe on two substrates — T-Man (the
// paper's choice, reference [1]) and Vicinity (reference [2]) — and reports
// reshaping time, reliability, and post-repair quality for both.  The
// Polystyrene layer is byte-for-byte the same code in both columns.
#include <cstdio>

#include "common.hpp"

int main(int argc, char** argv) {
  using namespace poly;
  const auto opt = bench::BenchOptions::parse(argc, argv, /*reps=*/5);
  std::printf("Ablation: topology substrate (80x40 torus, K=4, %zu reps)\n\n",
              opt.reps);

  util::Table table({"substrate", "reshaping (rounds)", "reliability (%)",
                     "homogeneity@r45", "proximity@r45"});

  for (auto substrate : {scenario::Substrate::kTman,
                         scenario::Substrate::kVicinity}) {
    auto program = bench::crash_repair_program(3200, 20, 40, opt);
    program.options.config.substrate = substrate;

    const auto result = scenario::run_program(program);
    table.add_row(
        {substrate == scenario::Substrate::kTman ? "T-Man" : "Vicinity",
         bench::reshaping_cell(result), bench::reliability_pct_cell(result),
         util::fmt(result.series("homogeneity").row(45).mean, 3),
         util::fmt(result.series("proximity").row(45).mean, 3)});
  }

  bench::emit(table, opt, "abl_substrate");
  std::puts("\nExpected: comparable recovery on both substrates — the "
            "Polystyrene layer is substrate-agnostic (paper §II-C).");
  return 0;
}
