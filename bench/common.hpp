// Shared plumbing for the paper-reproduction bench binaries.
//
// Every bench accepts the same knobs, via CLI flags or environment:
//
//   --reps N / POLY_BENCH_REPS          repetitions per configuration
//                                       (paper: 25; defaults are smaller so
//                                       a full `for b in bench/*` sweep
//                                       finishes in minutes)
//   --max-nodes N / POLY_BENCH_MAX_NODES  cap for the scalability sweeps
//   --seed N / POLY_BENCH_SEED          base RNG seed
//   --csv DIR / POLY_BENCH_CSV          also write gnuplot-ready CSVs there
//   --json DIR / POLY_BENCH_JSON        directory for BENCH_<name>.json
//                                       records (default "."; empty
//                                       disables)
//
// Flag parsing, `--help`, and the BENCH_<name>.json emit path live in the
// library (`util/bench_io.hpp`, namespace poly::bench) so the scenario
// driver shares them; this header adds only the bench-side helpers (sweep
// grids, the scenario programs the benches run, table cells).  Benches
// that replay a catastrophe timeline run it through scenario::run_program,
// so repetitions, series aggregation and the reshaping/reliability
// outcomes have one definition.
#pragma once

#include <algorithm>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "scenario/program.hpp"
#include "util/bench_io.hpp"
#include "util/table.hpp"

namespace poly::bench {

/// Grid dimensions for a target node count: the paper scales its torus by
/// doubling one axis at a time (40×80 → … → 160×320), keeping a 1:2 aspect
/// where possible.  Returns {nx, ny} with nx*ny == n for the standard sweep
/// sizes (powers of two times 100).
struct GridDims {
  unsigned nx;
  unsigned ny;
};
inline GridDims grid_for(std::size_t n) {
  // 100→10×10, 200→20×10, 400→20×20, 800→40×20, 1600→40×40, 3200→80×40,
  // 6400→80×80, 12800→160×80, 25600→160×160, 51200→320×160,
  // 102400→320×320, 204800→640×320, …: the doubling continues past the
  // paper's 51,200-node ceiling so --max-nodes 102400 sweeps the event
  // engine's 100k-node point.
  unsigned nx = 10;
  unsigned ny = 10;
  std::size_t cur = 100;
  bool grow_x = true;
  // The axis-count guard doubles as an overflow guard for `cur`: nx/ny
  // wrap (unsigned) long before cur does, so stop doubling once an axis
  // would exceed what a shape can address.
  while (cur < n && nx <= (1u << 30) && ny <= (1u << 30)) {
    if (grow_x) nx *= 2; else ny *= 2;
    grow_x = !grow_x;
    cur *= 2;
  }
  return {nx, ny};
}

/// The standard scalability sweep (paper Fig. 10 x-axis), capped by opt.
/// `--max-nodes` is honored as given: the old hard 51,200 ceiling silently
/// truncated requests like `--max-nodes 102400` even though grid_for and
/// the event engine handle those sizes.
inline std::vector<std::size_t> sweep_sizes(const BenchOptions& opt) {
  std::vector<std::size_t> sizes;
  for (std::size_t n = 100; n <= opt.max_nodes; n *= 2) {
    sizes.push_back(n);
    // Guard the doubling against wrap-around: --max-nodes -1 parses to
    // SIZE_MAX, and 100·2^62 ≡ 0 (mod 2^64) would loop forever.
    if (n > std::numeric_limits<std::size_t>::max() / 2) break;
  }
  return sizes;
}

/// Repetition count scaled down for large networks so the default sweep
/// stays affordable; `--reps` sets the budget for the small sizes.
inline std::size_t reps_for_size(const BenchOptions& opt, std::size_t nodes) {
  if (nodes >= 51200) return std::max<std::size_t>(1, opt.reps / 3);
  if (nodes >= 12800) return std::max<std::size_t>(1, opt.reps / 2);
  return opt.reps;
}

/// A timeline (one stage per line) on the grid_for(nodes) torus, with seed
/// and repetitions from `opt`; callers tune `options.config` before
/// running it.
inline scenario::ScenarioProgram grid_program(std::size_t nodes,
                                              const std::string& timeline,
                                              const BenchOptions& opt) {
  const auto dims = grid_for(nodes);
  auto p = scenario::parse_program("shape grid:" + std::to_string(dims.nx) +
                                   "x" + std::to_string(dims.ny) + "\n" +
                                   timeline);
  p.options.config.seed = opt.seed;
  p.reps = opt.reps;
  return p;
}

/// The paper's crash-and-repair timeline: converge for `converge` rounds,
/// crash the failure half, repair for `repair` rounds (no re-injection).
inline scenario::ScenarioProgram crash_repair_program(
    std::size_t nodes, std::size_t converge, std::size_t repair,
    const BenchOptions& opt) {
  return grid_program(nodes,
                      "run " + std::to_string(converge) +
                          "\ncrash half\nrun " + std::to_string(repair) +
                          "\n",
                      opt);
}

/// The mean reshaping time, or `dnf` when no repetition reshaped.
inline std::string reshaping_mean_cell(const scenario::ProgramResult& r,
                                       const char* dnf) {
  return r.never_reshaped() < r.runs.size()
             ? util::fmt(r.reshaping_ci().mean, 2)
             : std::string(dnf);
}

/// "mean ± ci" reshaping time over the runs that reshaped, followed by
/// " (N <dnf>)" when N runs never did.
inline std::string reshaping_cell(const scenario::ProgramResult& r,
                                  const char* dnf = "DNF") {
  auto cell = r.reshaping_ci().str(2);
  if (r.never_reshaped() > 0)
    cell += " (" + std::to_string(r.never_reshaped()) + " " + dnf + ")";
  return cell;
}

/// "mean ± ci" reliability, in percent.
inline std::string reliability_pct_cell(const scenario::ProgramResult& r) {
  const auto rel = r.reliability_ci();
  return util::MeanCi{rel.mean * 100.0, rel.ci95 * 100.0, rel.n}.str(2);
}

/// The four configurations of the paper's Figs. 6 and 7: Polystyrene with
/// K ∈ {8, 4, 2} and bare T-Man, each through
/// scenarios/paper_three_phase.poly (converge 20 / crash half / repair 80
/// / re-inject / run 100 on the 80×40 torus).
struct PaperScenarioResults {
  scenario::ProgramResult poly_k8;
  scenario::ProgramResult poly_k4;
  scenario::ProgramResult poly_k2;
  scenario::ProgramResult tman;

  /// The per-round series table the paper's figures plot: one row per
  /// round, one "mean ± ci" column per configuration.
  util::Table series_table(std::string_view metric) const {
    const std::pair<const char*, const scenario::ProgramResult*> columns[] = {
        {"Polystyrene_K8", &poly_k8},
        {"Polystyrene_K4", &poly_k4},
        {"Polystyrene_K2", &poly_k2},
        {"TMan", &tman},
    };
    std::vector<std::string> headers{"round"};
    std::vector<util::SeriesAggregator> series;
    std::size_t rounds = 0;
    for (const auto& [name, result] : columns) {
      headers.emplace_back(name);
      series.push_back(result->series(metric));
      rounds = std::max(rounds, series.back().rounds());
    }
    util::Table table(std::move(headers));
    for (std::size_t round = 0; round < rounds; ++round) {
      std::vector<std::string> row{std::to_string(round)};
      for (const auto& s : series) row.push_back(s.row(round).str(3));
      table.add_row(std::move(row));
    }
    return table;
  }
};

inline PaperScenarioResults run_paper_scenario(const BenchOptions& opt) {
  auto program = scenario::load_program(std::string(POLY_SCENARIO_DIR) +
                                        "/paper_three_phase.poly");
  program.options.config.seed = opt.seed;
  program.reps = opt.reps;
  auto run_k = [&](std::size_t k) {
    auto p = program;
    p.options.config.poly.replication = k;
    return scenario::run_program(p);
  };
  auto tman = program;
  tman.options.config.polystyrene = false;
  return {run_k(8), run_k(4), run_k(2), scenario::run_program(tman)};
}

}  // namespace poly::bench
