// One run API over the three execution engines.
//
// `make_cluster` is the single factory for every driver: it takes a target
// shape plus `ScenarioOptions`, validates the combination (the fleet
// engines run the full Polystyrene-on-T-Man stack; substrate/fd/baseline
// and the deeper protocol knobs are sync-only), and returns a `Runtime`.
// The runtime carries the scenario verbs every engine implements — run a
// round, crash (region / random / explicit ids), inject, measure — and
// hands out the engine itself for the rest: `sim()` for the morph verbs,
// `fleet()` for the fault, recovery and traffic planes.  Which verb runs
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

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "scenario/simulation.hpp"
#include "shape/shape.hpp"

namespace poly::engine {
class EventCluster;
}  // namespace poly::engine

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

/// Metrics measured after a completed round.  Fields an engine mode cannot
/// measure keep their defaults: NaN, or 0 for the event hub's counters;
/// `round` counts completed rounds, starting at 0 for the first.
struct RoundMetrics {
  static constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

  std::size_t round = 0;
  std::size_t alive = 0;
  double homogeneity = 0.0;
  double reference_h = 0.0;    ///< H for the current alive count
  double proximity = 0.0;
  double points_per_node = kNaN;  ///< sync only
  double reliability = 0.0;       ///< original data points still hosted
  double msg_paper = kNaN;        ///< T-Man+backup+migration; sync only
  double msg_tman = kNaN;
  double msg_backup = kNaN;
  double msg_migration = kNaN;
  double msg_rps = kNaN;
  std::uint64_t frames = 0;      ///< cumulative hub frames (fleet modes)
  // Fault-plane counters (fleet modes; 0 under sync and on clean runs).
  // All cumulative since construction — docs/FAULTS.md gives semantics.
  std::uint64_t frames_rejected = 0;    ///< decode-boundary rejects
  std::uint64_t frames_blackholed = 0;  ///< partition/blackhole/degrade loss
  std::uint64_t frames_duplicated = 0;
  std::uint64_t frames_corrupted = 0;
  std::uint64_t frames_reordered = 0;
  std::uint64_t stall_rounds = 0;       ///< node-ticks frozen by stalls
  std::uint64_t recoveries = 0;         ///< crashed nodes rejoined
  // Traffic-plane counters (fleet modes, cumulative since the first
  // `traffic` verb; 0 / NaN before that and under sync — see
  // docs/TRAFFIC.md for the workload model and histogram error bounds).
  std::uint64_t requests = 0;            ///< completed get/put requests
  std::uint64_t requests_failed = 0;     ///< failed (dead end / crash / hops)
  std::uint64_t requests_inflight = 0;   ///< currently routing
  double success_rate = kNaN;            ///< completed / (completed+failed)
  double p50_latency_ms = kNaN;          ///< request-latency percentiles …
  double p99_latency_ms = kNaN;          ///< … (log-bucketed, ≤3.125% high)
  double p999_latency_ms = kNaN;
  double mean_hops = kNaN;               ///< over completed requests
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

  virtual RoundMetrics measure() const = 0;
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

}  // namespace poly::scenario
