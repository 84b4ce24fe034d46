// One run API over the three execution engines.
//
// `make_cluster` is the single factory for every driver: it takes a target
// shape plus `ScenarioOptions`, validates the combination (the fleet
// engines run the full Polystyrene-on-T-Man stack; substrate/fd/baseline
// and the deeper protocol knobs are sync-only), and returns a `Runtime`
// that exposes the common scenario verbs — run a round, crash (half /
// region / random / explicit ids), inject, morph, measure — uniformly.
//
// The scenario compiler (`scenario/program.hpp`), the `poly_scenario`
// driver and the bench binaries all build fleets through this API, so a
// scenario written once runs under any engine mode it is valid for:
//
//   auto rt = make_cluster(shape, {.engine = EngineMode::kEvents});
//   rt->run_round();
//   rt->crash_half();
//
// Determinism contract: a fixed (shape, options, call sequence) replays the
// same trajectory bit for bit in sync and events modes (live mode runs real
// threads and is not reproducible).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "scenario/simulation.hpp"
#include "shape/shape.hpp"

namespace poly::scenario {

/// Execution engine selector — the typed replacement for the stringly
/// "sync"/"events"/"live" dispatch.
enum class EngineMode {
  kSync,    ///< lock-step round simulator (the paper's evaluation)
  kEvents,  ///< live protocol on the deterministic event engine
  kLive,    ///< live protocol on real threads (small shapes only)
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
/// measure are NaN (frames: 0 outside events mode); `round` counts
/// completed rounds, starting at 0 for the first.
struct RoundMetrics {
  std::size_t round = 0;
  std::size_t alive = 0;
  double homogeneity = 0.0;
  double reference_h = 0.0;    ///< H for the current alive count
  double proximity = 0.0;
  double points_per_node = 0.0;  ///< NaN outside sync mode
  double reliability = 0.0;      ///< original data points still hosted
  double msg_paper = 0.0;        ///< T-Man+backup+migration; NaN non-sync
  double msg_tman = 0.0;
  double msg_backup = 0.0;
  double msg_migration = 0.0;
  double msg_rps = 0.0;
  std::uint64_t frames = 0;      ///< cumulative hub frames (events mode)
  // Fault-plane counters (events mode; 0 elsewhere and on clean runs).
  // All cumulative since construction — docs/FAULTS.md gives semantics.
  std::uint64_t frames_rejected = 0;    ///< decode-boundary rejects
  std::uint64_t frames_blackholed = 0;  ///< partition/blackhole/degrade loss
  std::uint64_t frames_duplicated = 0;
  std::uint64_t frames_corrupted = 0;
  std::uint64_t frames_reordered = 0;
  std::uint64_t stall_rounds = 0;       ///< node-ticks frozen by stalls
  std::uint64_t recoveries = 0;         ///< crashed nodes rejoined
  // Traffic-plane counters (events mode, cumulative since the first
  // `traffic` verb; 0 / NaN before that and in other modes — see
  // docs/TRAFFIC.md for the workload model and histogram error bounds).
  std::uint64_t requests = 0;            ///< completed get/put requests
  std::uint64_t requests_failed = 0;     ///< failed (dead end / crash / hops)
  std::uint64_t requests_inflight = 0;   ///< currently routing
  double success_rate = 0.0;             ///< completed / (completed+failed)
  double p50_latency_ms = 0.0;           ///< request-latency percentiles …
  double p99_latency_ms = 0.0;           ///< … (log-bucketed, ≤3.125% high)
  double p999_latency_ms = 0.0;
  double mean_hops = 0.0;                ///< over completed requests
};

/// Traffic-mix selector for the `traffic` scenario verb (the scenario-level
/// mirror of traffic::Mix — keeps traffic headers out of every driver).
/// Enumerators follow the verb's `get|put|mixed` alternatives.
enum class TrafficMix { kGet, kPut, kMixed };

/// Traffic directions for link degradation, relative to the degraded set
/// (the scenario-level mirror of fault::Direction — keeps fault headers
/// out of every driver).
/// Enumerators follow the `degrade` verb's `in|out|both` alternatives.
enum class LinkDirection { kInto, kOutOf, kBoth };

/// A running cluster under one engine mode, driven through scenario verbs.
class Runtime {
 public:
  virtual ~Runtime() = default;

  virtual EngineMode mode() const noexcept = 0;
  virtual const shape::Shape& target_shape() const noexcept = 0;

  virtual void run_round() = 0;
  /// Completed rounds so far (== next measure().round + 1 ... i.e. the
  /// count of run_round calls).
  virtual std::size_t rounds_run() const noexcept = 0;

  virtual std::size_t alive_count() const = 0;

  /// Crashes the shape's failure half (every node whose *original* point
  /// satisfies Shape::in_failure_half).  Returns the number crashed.
  virtual std::size_t crash_half() = 0;
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

  /// Shape morphing (drift / migration / reshaping) — sync mode only.
  virtual void morph(
      const std::function<space::Point(const space::Point&)>& transform);

  // ---- fault plane (events mode only; the defaults throw) ---------------
  // Scheduled chaos verbs (docs/FAULTS.md): faults install now and heal
  // after `heal_rounds` rounds (0 = never).  Region predicates test
  // *original* data-point positions, like crash_region.

  /// Partitions the region from the rest of the fleet; returns its size.
  virtual std::size_t partition_region(
      const std::function<bool(const space::Point&)>& pred,
      std::size_t heal_rounds);
  /// Gray links on the region's traffic (`dir`-filtered): `extra_drop`
  /// loss plus up to `jitter_ms` extra latency.  Returns the region size.
  virtual std::size_t degrade_region(
      const std::function<bool(const space::Point&)>& pred, LinkDirection dir,
      double extra_drop, double jitter_ms, std::size_t heal_rounds);
  /// Corrupts each in-flight frame with probability `p`.
  virtual void corrupt_frames(double p, std::size_t heal_rounds);
  /// Duplicates each in-flight frame with probability `p`.
  virtual void duplicate_frames(double p, std::size_t heal_rounds);
  /// Reorders (FIFO-breaking delay up to `jitter_ms`) with probability `p`.
  virtual void reorder_frames(double p, double jitter_ms,
                              std::size_t heal_rounds);
  /// Freezes the region's timers for `rounds` rounds (GC-pause model);
  /// returns the number of nodes stalled.
  virtual std::size_t stall_region(
      const std::function<bool(const space::Point&)>& pred,
      std::size_t rounds);
  /// Stalls `count` alive nodes chosen uniformly.
  virtual std::size_t stall_random(std::size_t count, std::size_t rounds);
  /// Rejoins every crashed node (stale views intact); returns the count.
  virtual std::size_t recover_all();
  /// Rejoins `count` crashed nodes chosen uniformly.
  virtual std::size_t recover_random(std::size_t count);
  /// Rejoins the listed node ids; not-crashed ids are skipped.
  virtual std::size_t recover_ids(std::span<const std::size_t> ids);

  // ---- traffic plane (events mode only; the defaults throw) --------------
  // Open-loop get/put workload over the live views (docs/TRAFFIC.md).

  /// Starts (or retunes) the workload: `rate` requests per round of `mix`.
  virtual void start_traffic(std::size_t rate, TrafficMix mix);
  /// Stops injecting; in-flight requests drain as rounds run.
  virtual void stop_traffic();
  /// Requests currently routing (0 when traffic was never started).
  virtual std::size_t traffic_inflight() const;

  virtual RoundMetrics measure() const = 0;
  /// Current advertised position of every alive node (density maps).
  virtual std::vector<space::Point> alive_positions() const = 0;

  /// The sync-mode façade, for snapshot/positions-CSV helpers that need
  /// the full Simulation; nullptr under the fleet engines.
  virtual Simulation* sim() noexcept { return nullptr; }
};

/// Builds a cluster of `options.engine` mode over `shape`.  Throws
/// std::invalid_argument when the options are invalid for the mode (e.g.
/// `substrate vicinity` under events, a >512-node shape under live).  The
/// shape must outlive the runtime.
std::unique_ptr<Runtime> make_cluster(const shape::Shape& shape,
                                      const ScenarioOptions& options);

}  // namespace poly::scenario
