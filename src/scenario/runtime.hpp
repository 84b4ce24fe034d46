// One run API over the three execution engines.
//
// `make_cluster` is the single factory for every driver: it takes a target
// shape plus `ScenarioOptions`, validates the combination (the fleet
// engines run the full Polystyrene-on-T-Man stack; substrate/fd/baseline
// and the deeper protocol knobs are sync-only), and returns a `Runtime`.
// The runtime carries the scenario verbs every engine implements — run a
// round, crash (region / random / explicit ids), inject — and hands out
// the engine itself for the rest: `sim()` for the morph verbs, `fleet()`
// for the fault, recovery and traffic planes, and both to the readers of
// the metric table (`measure`).  Which verb runs
// under which engine is decided by the scenario compiler's tables
// (`scenario/program.hpp`), not here.
//
// The scenario compiler, the `poly_scenario` CLI and the bench binaries
// all build fleets through this API, so a scenario written once runs under
// any engine mode it is valid for:
//
//   auto rt = make_cluster(shape, {.engine = EngineMode::kEvents});
//   rt->run_round();
//   rt->crash_region([&](const space::Point& p) {
//     return shape.in_failure_half(p);
//   });
//
// Determinism contract: a fixed (shape, options, call sequence) replays the
// same trajectory bit for bit in every mode; live replays events' exactly,
// at wall-clock speed.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "scenario/simulation.hpp"
#include "shape/shape.hpp"
#include "util/stats.hpp"

namespace poly::engine {
class EventCluster;
}  // namespace poly::engine

namespace poly::traffic {
class TrafficPlane;
}  // namespace poly::traffic

namespace poly::scenario {

/// Execution engine selector — the typed replacement for the stringly
/// "sync"/"events"/"live" dispatch.
enum class EngineMode {
  kSync,    ///< lock-step round simulator (the paper's evaluation)
  kEvents,  ///< the AsyncNode fleet on the event engine's virtual clock
  kLive,    ///< the same fleet paced by the wall clock
};

/// Parses "sync" / "events" / "live"; nullopt on anything else.
std::optional<EngineMode> engine_mode_from_string(std::string_view s);
const char* to_string(EngineMode mode) noexcept;

/// The unified cluster setup knobs, shared by every driver: the engine and
/// the full sync-stack configuration.  The fleet engines read only `seed`,
/// `poly.replication` and `poly.split_kind`; `make_cluster` rejects any
/// other field away from its default under them instead of silently
/// ignoring it.
struct ScenarioOptions {
  EngineMode engine = EngineMode::kSync;
  SimulationConfig config;
};

/// One scenario metric: a row of the metric table (runtime.cpp).  `expect`,
/// the series table, its CSV and BENCH JSON record and poly_scenario's
/// closing line all iterate the table, so a metric has one name in each
/// and is added by adding one row.
struct Metric {
  const char* name;
  int precision;  ///< digits printed after the point; 0 prints a count
  // How each engine reads the metric; nullptr where it does not.  A reader
  // only reads: it draws no randomness and changes no engine state.
  double (*sync)(const Simulation&) = nullptr;
  double (*fleet)(const engine::EventCluster&, const shape::Shape&) = nullptr;
  /// The fleet's traffic plane, which the first `traffic` verb creates:
  /// the metric reads as not produced (NaN) before it.
  double (*traffic)(const traffic::TrafficPlane&) = nullptr;

  /// Bit `1 << EngineMode` for each engine that measures it.
  unsigned engines() const noexcept;
  bool measures(EngineMode mode) const noexcept {
    return (engines() >> static_cast<unsigned>(mode) & 1u) != 0;
  }
  /// The print rule: `precision` digits, `mean ± ci95` across
  /// repetitions, and `-` for a value the engine has not produced (NaN).
  std::string cell(double value) const;
  std::string cell(const util::MeanCi& value) const;
};

/// Every metric, one row each, in the order outputs print them.
std::span<const Metric> metric_table() noexcept;
/// The row named `name`, or nullptr.
const Metric* find_metric(std::string_view name) noexcept;

/// One measured round: every row's value, in metric-table order; NaN
/// where the engine does not measure the row or has not produced it yet.
struct Measurement {
  std::size_t round = 0;  ///< completed-round id: 0 for the first round
  std::vector<double> values;

  /// `row` is an element of metric_table(), not a copy.
  double operator[](const Metric& row) const {
    return values[static_cast<std::size_t>(&row - metric_table().data())];
  }
  /// Throws std::invalid_argument when no row is named `name`.
  double operator[](std::string_view name) const;
};

/// A running cluster under one engine mode: the verbs every engine
/// implements, plus the engine itself for the verbs only one has.
class Runtime {
 public:
  Runtime() = default;
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;
  virtual ~Runtime() = default;

  virtual void run_round() = 0;
  /// Completed rounds so far: the number of run_round calls.
  virtual std::size_t rounds_run() const noexcept = 0;

  virtual std::size_t alive_count() const = 0;

  /// Crashes every node whose *original* point satisfies `pred`.
  virtual std::size_t crash_region(
      const std::function<bool(const space::Point&)>& pred) = 0;
  /// Crashes `count` alive nodes chosen uniformly.
  virtual std::size_t crash_random(std::size_t count) = 0;
  /// Crashes the listed node ids; already-dead / out-of-range ids are
  /// skipped.  Returns the number actually crashed.
  virtual std::size_t crash_ids(std::span<const std::size_t> ids) = 0;

  /// Injects `count` fresh data-point-less nodes on the shape's parallel
  /// reinjection grid.  Returns the number injected.
  virtual std::size_t inject(std::size_t count) = 0;

  /// Current advertised position of every alive node (density maps).
  virtual std::vector<space::Point> alive_positions() const = 0;

  /// The sync simulator (morph verbs); nullptr under the fleet engines.
  virtual Simulation* sim() noexcept { return nullptr; }
  /// The AsyncNode fleet (fault, recovery and traffic verbs); nullptr
  /// under sync.
  virtual engine::EventCluster* fleet() noexcept { return nullptr; }
};

/// Builds a cluster of `options.engine` mode over `shape`.  Throws
/// std::invalid_argument when the options are invalid for the mode (e.g.
/// `substrate vicinity` under events).  The shape must outlive the
/// runtime.
std::unique_ptr<Runtime> make_cluster(const shape::Shape& shape,
                                      const ScenarioOptions& options);

/// Reads every metric row under the runtime's engine, now.  `shape` is
/// the one the runtime was made for.
Measurement measure(Runtime& rt, const shape::Shape& shape);

}  // namespace poly::scenario
