// Figure 8 — "Repair with Polystyrene (K=4)": snapshots of the overlay as
// the repair progresses, (a) repair started (r = 22), (b) repair completed
// (r = 28).
//
// Thin wrapper over the scenario compiler: the timeline lives in
// scenarios/fig08_repair.poly and runs through the same program runner as
// `poly_scenario` (a CTest golden test pins the maps and metric values to
// the pre-port output, bit for bit).  The paper shows scatter plots; we
// render node-density maps of the torus (a uniform map = healthy shape)
// plus the homogeneity trace, and can dump node positions as CSV
// (--csv DIR) for external plotting.
#include <cstdio>

#include "common.hpp"
#include "scenario/program.hpp"

int main(int argc, char** argv) {
  using namespace poly;
  const auto opt = bench::BenchOptions::parse(argc, argv, /*reps=*/1);

  auto program = scenario::load_program(std::string(POLY_SCENARIO_DIR) +
                                        "/fig08_repair.poly");
  program.options.config.seed = opt.seed;
  program.reps = opt.reps;

  const auto result = scenario::run_program(program);
  scenario::print_events(result, opt.csv_dir);

  std::puts("");
  bench::emit(scenario::series_table_for(result), opt, "fig08_trace");
  std::puts("\nPaper: homogeneity 0.61 ± 0.003 at round 28 for K=4; the "
            "density map should be uniform again by then.");
  return 0;
}
