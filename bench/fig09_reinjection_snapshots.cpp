// Figure 9 — "Effect of the reinjection at r = 125": (a) T-Man, (b)
// Polystyrene.
//
// Thin wrapper over the scenario compiler: the two timelines live in
// scenarios/fig09_tman.poly and scenarios/fig09_poly.poly (converge 20 /
// crash half / run 80 / grow crashed / snapshot at 125 / run to 199).
// Expected contrast (paper §IV-B): T-Man leaves two interleaved
// half-density grids — the surviving half at double density, the crashed
// half covered only by fresh nodes — with homogeneity stuck at ≈ 0.35;
// Polystyrene re-homogenizes everything, homogeneity ≈ 0.035 by round 199
// (10× lower).
#include <cstdio>

#include "common.hpp"
#include "scenario/program.hpp"

namespace {

const poly::scenario::Measurement& at_round(
    const poly::scenario::ProgramResult& result, std::size_t round) {
  for (const auto& m : result.first().rounds)
    if (m.round == round) return m;
  std::fprintf(stderr, "fig09: round %zu missing from the series\n", round);
  std::exit(1);
}

void run_config(const char* name, const char* file,
                const poly::bench::BenchOptions& opt,
                poly::util::Table& table) {
  using namespace poly;
  auto program = scenario::load_program(std::string(POLY_SCENARIO_DIR) +
                                        "/" + file);
  program.options.config.seed = opt.seed;
  program.reps = opt.reps;

  const auto result = scenario::run_program(program);
  std::printf("\n=== Fig. 9%s: %s at round 125 ===\n",
              program.options.config.polystyrene ? "b" : "a", name);
  scenario::print_events(result, opt.csv_dir);

  // The figure's round 125 is the 125th completed round (id 124); the run
  // ends at round 199 (id 198).
  const auto& r125 = at_round(result, 124);
  const auto& r199 = at_round(result, 198);
  table.add_row({name, util::fmt(r125["homogeneity"], 3),
                 util::fmt(r199["homogeneity"], 3),
                 util::fmt(r199["proximity"], 3)});
}

}  // namespace

int main(int argc, char** argv) {
  using namespace poly;
  const auto opt = bench::BenchOptions::parse(argc, argv, /*reps=*/1);

  util::Table table({"config", "homogeneity@125", "homogeneity@199",
                     "proximity@199"});
  run_config("TMan", "fig09_tman.poly", opt, table);
  run_config("Polystyrene_K4", "fig09_poly.poly", opt, table);

  std::puts("");
  bench::emit(table, opt, "fig09");
  std::puts("\nPaper: TMan homogeneity stuck at ≈ 0.35 (two interleaved "
            "grids); Polystyrene ≈ 0.035 at round 199.");
  return 0;
}
