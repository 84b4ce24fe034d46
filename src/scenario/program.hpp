// The scenario compiler: declarative catastrophe timelines.
//
// A scenario file (`scenarios/*.poly`) is a flat, line-oriented program: a
// header declaring the cluster (shape, engine mode, seed, repetitions,
// protocol knobs) followed by a staged timeline of the events the paper's
// evaluation is built from — run, crash (half / fraction / zone / explicit
// ids), grow, churn, flash-crowd, morph, migrate, snapshot:
//
//   name fig08_repair
//   shape grid:80x40
//   engine sync
//   k 4
//
//   run 20
//   crash half
//   snapshot catastrophe
//   run 10
//
// The language is two tables in program.cpp — timeline verbs (one row per
// verb form, `verb_table()`) and header directives — plus the metric table
// (`metric_table()`, runtime.hpp) that `expect` names; parsing,
// serializing, per-engine validation, round accounting and execution all
// read their rows.  `parse_program` compiles the text into a
// `ScenarioProgram`, rejecting malformed input with file:line diagnostics
// (unknown stage, crash fraction out of (0,1], morph to a shape that does
// not fit the torus, …) — never silently defaulting.  `run_program`
// executes the timeline on a cluster built through `make_cluster`, once
// per repetition (seed, seed+1, …), and aggregates per-round series and the
// paper's two scalar outcomes (reshaping time, reliability) across
// repetitions.
//
// Determinism contract: a fixed (file, seed, engine) pair replays the same
// trajectory bit for bit, and live replays events' trajectory.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "fault/fault_plane.hpp"
#include "scenario/runtime.hpp"
#include "traffic/workload.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace poly::scenario {

/// Parse/validation failure with file:line provenance.  `line() == 0`
/// means the error concerns the file as a whole (e.g. a missing required
/// header directive).
class ProgramError : public std::runtime_error {
 public:
  ProgramError(const std::string& file, int line, const std::string& msg);

  const std::string& file() const noexcept { return file_; }
  int line() const noexcept { return line_; }

 private:
  std::string file_;
  int line_;
};

/// An axis-aligned rectangle of original data-point positions,
/// [x0, x1) × [y0, y1): the region a zone verb (crash, partition, degrade,
/// stall) acts on.
struct Zone {
  double x0 = 0.0, y0 = 0.0, x1 = 0.0, y1 = 0.0;

  bool contains(const space::Point& p) const noexcept {
    return p.x() >= x0 && p.x() < x1 && p.y() >= y0 && p.y() < y1;
  }
  bool operator==(const Zone&) const = default;
};

struct Stage;
/// The state of one running timeline (program.cpp) that verbs execute on.
struct Execution;

/// One verb form of the timeline language: a row of the verb table.
/// Parsing, serializing, per-engine validation, round accounting and
/// execution all read the row, so a verb is added or changed in one place.
struct Verb {
  /// Literal words, choices (`in|out|both`) and typed slots (`<rounds>`),
  /// e.g. "crash frac <fraction>".  The first word is the verb; rows that
  /// share it are told apart by their second word.
  const char* grammar;
  /// Bit `1 << EngineMode` for each engine it runs under: the only record
  /// of it.  validate_for_mode rejects any other engine before round 1,
  /// so `exec` may call an engine-only API directly.
  unsigned engines;
  bool timed;        ///< its <rounds> slot counts executed timeline rounds
  void (*exec)(Execution&, const Stage&);
  /// A parse-time rule beyond the slots' own checks, given the stages
  /// before it: returns the diagnostic, or nullptr when the stage is fine.
  const char* (*check)(const Stage&, std::span<const Stage> earlier) =
      nullptr;
};

/// Every verb form, one row each, in the order docs/SCENARIOS.md lists them.
std::span<const Verb> verb_table() noexcept;

/// One timeline stage: its verb row, its source line, and the values its
/// grammar's slots filled (fields the row has no slot for stay default).
struct Stage {
  const Verb* verb = nullptr;
  int line = 0;  ///< 1-based source line, for diagnostics

  std::size_t rounds = 0;  ///< <rounds>, or <heal> (0 = never heals)
  std::size_t count = 0;   ///< <nodes> / <rate>
  double frac = 0.0;       ///< <fraction> / <percent> / <probability>
  double drop = 0.0;       ///< <drop>: extra link drop rate
  double jitter_ms = 0.0;  ///< <ms>: jitter cap
  double dx = 0.0, dy = 0.0;  ///< <offset>: per round (drift) / total
  Zone zone;                  ///< <zone>
  std::vector<std::size_t> ids;                  ///< <ids>
  fault::Direction dir = fault::Direction::kBoth;  ///< in|out|both
  traffic::Mix mix = traffic::Mix::kMixed;         ///< get|put|mixed
  std::string shape_spec;  ///< <shape>: morph target
  std::string label;       ///< [label]: snapshot label

  bool operator==(const Stage&) const = default;
};

/// A self-check: `expect <metric> <op> <value> @ <round|end>` — evaluated
/// after `round` completed rounds (or at run end), against the repetition's
/// own trajectory.  A failed expectation aborts the run with a file:line
/// ProgramError, which the drivers turn into a nonzero exit — any scenario
/// with expects is a self-checking test.
struct Expect {
  enum class Op { kLt, kLe, kGt, kGe, kEq, kNe };
  int line = 0;
  std::string metric;
  Op op = Op::kLt;
  double value = 0.0;
  std::size_t round = 0;  ///< completed-rounds trigger (unused when at_end)
  bool at_end = false;
};

/// A compiled scenario: resolved header plus the stage timeline.
struct ScenarioProgram {
  std::string file;        ///< source path ("<memory>" for inline text)
  std::string name;        ///< header `name`, defaults to the file stem
  std::string shape_spec;  ///< required header `shape`
  ScenarioOptions options;
  std::size_t reps = 1;
  std::size_t measure_every = 1;  ///< initial sampling cadence
  std::vector<Stage> timeline;
  /// Self-check assertions, position-independent (triggered by round).
  std::vector<Expect> expects;

  /// Source line of a header directive (0 when it was defaulted) — lets
  /// mode validation point at the offending line.
  int line_of(const std::string& directive) const;
  std::vector<std::pair<std::string, int>> directive_lines;

  /// Total rounds the timeline executes.
  std::size_t total_rounds() const noexcept;
};

/// Compiles scenario text.  Throws ProgramError on malformed input.
ScenarioProgram parse_program(const std::string& text,
                              const std::string& filename = "<memory>");

/// Reads and compiles a scenario file.  Throws ProgramError (line 0) when
/// the file cannot be read.
ScenarioProgram load_program(const std::string& path);

/// Canonical textual form; `parse_program(serialize(p))` round-trips.
std::string serialize(const ScenarioProgram& p);

/// Checks the timeline is executable under `mode` (morph/migrate and the
/// sync-only header knobs need sync; the fault, recovery and traffic verbs
/// and the fleet's metrics need events or live).  Throws ProgramError.
void validate_for_mode(const ScenarioProgram& p, EngineMode mode);

/// A timeline event that fired during a run: a note (crash, grow, churn
/// start, …) or a snapshot (with summary line, density map and positions).
struct ProgramEvent {
  std::size_t round = 0;  ///< rounds completed when the event fired
  bool is_snapshot = false;
  std::string text;     ///< note text / snapshot label
  std::string summary;  ///< snapshot only
  std::string map;      ///< snapshot only
  std::vector<space::Point> positions;  ///< snapshot only, for CSV dumps
};

/// Outcome of one repetition.
struct ProgramRun {
  std::vector<Measurement> rounds;  ///< measured rounds, in order
  std::vector<ProgramEvent> events;
  /// Rounds from the first crash until homogeneity < the post-crash
  /// reference H (the crash round counts as round 1); NaN when never
  /// reached.  Sampled at the measure cadence, and only until the first
  /// later stage that injects nodes (grow, flash-crowd, churn): fresh
  /// nodes pull homogeneity under an H computed for the survivors alone.
  double reshaping_rounds = std::numeric_limits<double>::quiet_NaN();
  /// Fraction of original data points still hosted at the end of the run.
  double reliability = std::numeric_limits<double>::quiet_NaN();
  double reference_h_after_crash =
      std::numeric_limits<double>::quiet_NaN();
  std::size_t crashed = 0;   ///< total nodes crashed by crash/churn stages
  std::size_t injected = 0;  ///< total nodes injected by grow/churn/flash
  std::size_t recovered = 0;  ///< crashed nodes rejoined by recover stages
  std::size_t rounds_total = 0;
};

/// Executes the timeline once on a fresh cluster built from `options`.
/// The program must already be valid for `options.engine` and `shape`.
ProgramRun run_program_once(const shape::Shape& shape,
                            const ScenarioProgram& p,
                            const ScenarioOptions& options);

/// Every repetition's outcome, with the aggregates the paper reports.
struct ProgramResult {
  ScenarioProgram program;       ///< the program as run (after overrides)
  std::vector<ProgramRun> runs;  ///< repetition i ran at seed base+i

  /// Repetition 0: its events, snapshots and series are what drivers print.
  const ProgramRun& first() const { return runs.front(); }

  /// Every round some repetition measured, ascending.  Repetitions that
  /// end on `drain` stop at different rounds, so this can outgrow any one
  /// repetition's measurements.
  std::vector<std::size_t> measured_rounds() const;

  /// One metric across repetitions, e.g. `series("msg_tman")`; row r is
  /// mean ± ci95 at round measured_rounds()[r], over the repetitions that
  /// measured that round.  Throws std::invalid_argument on an unknown name.
  util::SeriesAggregator series(std::string_view metric) const;

  /// Mean ± 95% CI of the reshaping time over repetitions that reshaped.
  util::MeanCi reshaping_ci() const;
  util::MeanCi reliability_ci() const;
  /// Repetitions that never reached the post-crash reference H.
  std::size_t never_reshaped() const;
};

/// Builds the shape, validates the program for its engine mode and that
/// shape (morph targets must fit the torus that actually runs), and runs
/// `reps` repetitions (seed, seed+1, …) in parallel threads.  Throws
/// ProgramError on an invalid program.
ProgramResult run_program(const ScenarioProgram& p);

/// Prints repetition 0's timeline events to stdout — `## round N: …`
/// notes, and for snapshots the summary line plus density map.  When
/// `csv_dir` is set, snapshot positions are also written to
/// `<csv_dir>/<name>_<label>_r<round>.csv` (x,y per line).
void print_events(const ProgramResult& result,
                  const std::optional<std::string>& csv_dir = {});

/// The per-round series table for a result: after `round`, one column per
/// metric-table row the engine measures, headed by the row's name.  One
/// row per round of measured_rounds(); beyond one repetition every cell is
/// `mean ± ci95` over the repetitions that measured its round.
util::Table series_table_for(const ProgramResult& r);

}  // namespace poly::scenario
