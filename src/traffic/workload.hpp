// Open-loop get/put request workload over an engine-driven fleet.
//
// The traffic plane answers the paper's implicit service question: while
// Polystyrene reshapes the fleet through crashes and recoveries, can the
// overlay still *serve*?  Each round it injects a configurable number of
// requests (arrival instants uniform within the round — open loop, the
// workload never waits for the fleet), and every request greedy-routes
// over the live T-Man views: at each node it asks closest_view_member()
// for the *alive* neighbour nearest the key (a dead candidate models as
// an RPC timeout the sender skips) and hops there after one link
// latency.  The request succeeds as soon as it stands within
// `success_radius` of the key.  Advertised positions can be stale, so
// actual progress — not the advertised distance — is the termination
// authority: every arrival that fails to shrink the best actual distance
// seen (Request::closest) spends one unit of `detour_budget`, and an
// exhausted budget fails the request.  On fresh views this is plain
// greedy descent (every hop improves, budget never spent); on stale or
// half-crashed views it explores past false minima yet provably
// terminates within `detour_budget` hops of the last real progress.
//
// Determinism contract (docs/TRAFFIC.md): the plane is seeded from the
// cluster seed without consuming an engine split and draws from its own
// three RNG streams (arrivals, placement, link latency), sends no hub
// frames, and never touches protocol state beyond read-locked view
// snapshots — so the fleet's protocol trajectory is bit-identical with
// the traffic plane on or off (pinned by tests/test_trajectory_pin.cpp).
//
// Steady-state allocation: zero.  Requests live in a slab/pool-backed
// RequestTable, hop events capture [this, slot] (inline in EventFn's
// SBO), and counters/histograms are fixed storage — enforced by the
// counting-operator-new test (tests/test_traffic_zero_alloc.cpp).
#pragma once

#include <chrono>
#include <cstdint>

#include "traffic/request_table.hpp"
#include "util/latency_histogram.hpp"
#include "util/rng.hpp"

namespace poly::engine {
class EventCluster;
}

namespace poly::traffic {

/// Request-kind mix of the workload.  Enumerators follow the `traffic`
/// verb's `get|put|mixed` alternatives.
enum class Mix : std::uint8_t { kGet, kPut, kMixed };

/// Workload shape.  `rate_per_round` requests arrive per virtual tick
/// period, at instants uniform within the round.
struct TrafficConfig {
  std::size_t rate_per_round = 0;
  Mix mix = Mix::kMixed;
  /// Requests exceeding this hop budget fail (hard backstop; the detour
  /// budget terminates wandering requests far earlier).
  std::size_t max_hops = 512;
  /// Consecutive hops a request may take without improving its best
  /// actual distance to the key before it fails.  Fresh-view descent
  /// never spends any; the budget prices exploring past stale entries,
  /// which is what keeps mid-catastrophe success high (half-crashed
  /// fleets route through transiently stale views).
  std::uint32_t detour_budget = 16;
  /// A request succeeds when it reaches a node within this distance of
  /// the key.  The default 2.0 (grid spacings) covers the densest packing
  /// a 50%-crashed fleet sustains: survivors spread to ~sqrt(2) spacing,
  /// so a perfectly-routed request still ends ~1.4 from the key.
  double success_radius = 2.0;
};

/// Monotone workload counters plus the latency distribution.  `hops_total`
/// sums over completed requests only (mean hops = hops_total / completed);
/// `gets` and `puts` split the completed requests by kind.
struct TrafficCounters {
  std::uint64_t launched = 0;
  std::uint64_t completed = 0;
  std::uint64_t gets = 0;
  std::uint64_t puts = 0;
  std::uint64_t failed = 0;
  std::uint64_t hops_total = 0;
  util::LatencyHistogram latency;

  void clear() noexcept {
    launched = completed = gets = puts = failed = hops_total = 0;
    latency.clear();
  }
};

/// The workload driver: owned by an EventCluster, runs entirely on its
/// engine.  Construct once, then start()/stop() as the scenario demands.
class TrafficPlane {
 public:
  TrafficPlane(engine::EventCluster& fleet, std::uint64_t seed);

  /// Starts (or retunes, when already running) the arrival process with
  /// `cfg`.  A zero rate is equivalent to stop().
  void start(const TrafficConfig& cfg);

  /// Stops injecting new requests.  In-flight requests keep routing to
  /// completion as the engine runs — drain by stepping rounds until
  /// in_flight() reaches zero.
  void stop();

  bool active() const noexcept { return active_; }
  std::size_t in_flight() const noexcept { return table_.in_flight(); }
  /// Peak concurrent in-flight requests (== request-slot pool size).
  std::size_t high_water() const noexcept { return table_.high_water(); }
  const TrafficConfig& config() const noexcept { return cfg_; }

  /// Counters since construction (never reset).
  const TrafficCounters& totals() const noexcept { return totals_; }

  /// Returns the counters accumulated since the previous take_interval()
  /// call and resets the interval — per-phase bench rows.
  TrafficCounters take_interval();

 private:
  /// Injects one round's arrivals and re-arms itself one period out.
  void inject_round();
  /// Launches one request arriving `offset` into the current round;
  /// returns the slot, or kInvalidSlot when the fleet is empty.
  std::uint32_t launch(std::chrono::nanoseconds offset);
  /// One routing step of the request in `slot`.
  void step(std::uint32_t slot);
  void finish(std::uint32_t slot, bool ok);
  std::chrono::nanoseconds hop_latency();

  engine::EventCluster& fleet_;
  TrafficConfig cfg_{};
  bool active_ = false;
  /// True while the self-rescheduling inject_round event is pending; the
  /// event un-arms itself when it fires inactive, so stop()/start()
  /// within one round neither skips nor double-injects a round.
  bool armed_ = false;
  // Three independent streams, so e.g. a placement-draw count change
  // (alive-set size) never perturbs arrival instants or link latencies.
  util::Rng arrivals_rng_;
  util::Rng placement_rng_;
  util::Rng latency_rng_;
  RequestTable table_;
  TrafficCounters totals_;
  TrafficCounters interval_;
};

}  // namespace poly::traffic
