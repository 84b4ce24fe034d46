// poly_scenario — compile and run a declarative scenario program.
//
// One driver replaces the per-experiment main(): the catastrophe timeline
// lives in a checked-in `scenarios/*.poly` file, and this binary runs it
// under any engine mode, emitting the same table / CSV / BENCH_*.json
// outputs as the bench binaries.  Examples:
//
//   # the paper's Fig. 8 repair snapshots
//   poly_scenario scenarios/fig08_repair.poly
//
//   # the same timeline on the deterministic event engine, another seed
//   poly_scenario scenarios/fig08_repair.poly --engine events --seed 7
//
//   # CI smoke: 1 repetition, stages capped at 10 rounds
//   poly_scenario scenarios/zonal_crash.poly --smoke
//
// Determinism: a fixed (file, seed, engine) triple reproduces the same
// trajectory bit for bit under sync and events modes.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <optional>
#include <string>

#include "scenario/program.hpp"
#include "util/bench_io.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace poly;
  std::string file;
  std::string engine;
  std::string shape;
  std::uint64_t seed = 1;
  std::uint64_t reps = 1;
  std::uint64_t every = 1;
  std::optional<std::string> csv_dir;
  std::string json_dir = ".";
  bool smoke = false;

  util::cli::Parser cli(
      "poly_scenario",
      "Compiles a scenario program (.poly) and runs it under any engine.");
  cli.positional("FILE", &file, "scenario program to run");
  cli.flag("engine", &engine,
           "override the program's engine: sync|events|live");
  cli.flag("shape", &shape,
           "override the program's shape (grid:WxH, ring:N, cube:XxYxZ) — "
           "e.g. a small grid for CI smoke runs of large scenarios");
  cli.flag("seed", &seed, "override the program's base RNG seed",
           "POLY_BENCH_SEED");
  cli.flag("reps", &reps, "override the program's repetition count",
           "POLY_BENCH_REPS");
  cli.flag("every", &every, "override the initial measurement cadence");
  cli.flag("csv", &csv_dir,
           "also write the series CSV and snapshot positions there",
           "POLY_BENCH_CSV");
  cli.flag("json", &json_dir,
           "directory for the BENCH_<name>.json record; empty disables",
           "POLY_BENCH_JSON");
  cli.flag("smoke", &smoke,
           "smoke mode: stages capped at 10 rounds, 1 repetition "
           "unless --reps is given");
  cli.parse_or_exit(argc, argv);

  scenario::ScenarioProgram program;
  try {
    program = scenario::load_program(file);
  } catch (const scenario::ProgramError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }

  if (cli.was_set("engine")) {
    const auto mode = scenario::engine_mode_from_string(engine);
    if (!mode) {
      std::fprintf(stderr,
                   "unknown engine '%s' (want sync, events, or live)\n",
                   engine.c_str());
      return 2;
    }
    program.options.engine = *mode;
  }
  if (cli.was_set("shape")) {
    std::string err;
    if (!poly::shape::make_shape(shape, &err)) {
      std::fprintf(stderr, "%s\n", err.c_str());
      return 2;
    }
    program.shape_spec = shape;
  }
  if (cli.was_set("seed")) program.options.config.seed = seed;
  if (cli.was_set("reps")) program.reps = reps == 0 ? 1 : reps;
  if (cli.was_set("every")) program.measure_every = every == 0 ? 1 : every;
  if (smoke) {
    // An explicit --reps wins: smoke-sized stages with a real repetition
    // pool is how CI exercises the multithreaded rep workers cheaply.
    if (!cli.was_set("reps")) program.reps = 1;
    // Round-consuming stages only: a fault's heal bound or stall span sets
    // the injected fault, not the cost.
    for (auto& s : program.timeline)
      if (s.verb->timed) s.rounds = std::min<std::size_t>(s.rounds, 10);
    // Expect thresholds are tuned against full-length runs; a capped
    // timeline would trip them spuriously.
    if (!program.expects.empty()) {
      std::printf("# smoke: dropping %zu expect assertion(s)\n",
                  program.expects.size());
      program.expects.clear();
    }
  }

  scenario::ProgramResult result;
  try {
    result = scenario::run_program(program);
  } catch (const scenario::ProgramError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", file.c_str(), e.what());
    return 2;
  }

  const auto& p = result.program;
  const auto& config = p.options.config;
  std::printf(
      "# scenario=%s engine=%s shape=%s seed=%llu reps=%zu rounds=%zu "
      "k=%zu split=%s substrate=%s polystyrene=%s\n",
      p.name.c_str(), scenario::to_string(p.options.engine),
      p.shape_spec.c_str(),
      static_cast<unsigned long long>(config.seed), p.reps,
      p.total_rounds(), config.poly.replication,
      core::to_string(config.poly.split_kind).c_str(),
      config.substrate == scenario::Substrate::kVicinity ? "vicinity"
                                                         : "tman",
      config.polystyrene ? "on" : "off");

  scenario::print_events(result, csv_dir);

  bench::BenchOptions io;
  io.reps = p.reps;
  io.seed = config.seed;
  io.csv_dir = csv_dir;
  io.json_dir = json_dir;
  std::puts("");
  bench::emit(scenario::series_table_for(result), io, p.name);

  const auto& first = result.first();
  std::printf("\ncrashed=%zu injected=%zu", first.crashed, first.injected);
  if (first.recovered > 0) std::printf(" recovered=%zu", first.recovered);
  if (!std::isnan(first.reference_h_after_crash)) {
    const auto reshaping = result.reshaping_ci();
    std::printf(" reshaping=%s",
                reshaping.n > 0 ? reshaping.str(2).c_str() : "never");
    if (result.never_reshaped() > 0)
      std::printf(" (%zu/%zu runs never reshaped)", result.never_reshaped(),
                  result.runs.size());
  }
  std::printf(" reliability=%s\n", result.reliability_ci().str(4).c_str());

  if (!first.rounds.empty()) {
    const auto& last = first.rounds.back();
    std::printf("final: round=%zu", last.round);
    for (const auto& row : scenario::metric_table())
      if (row.measures(p.options.engine))
        std::printf(" %s=%s", row.name, row.cell(last[row]).c_str());
    std::puts("");
  }
  return 0;
}
