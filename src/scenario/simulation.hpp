// Simulation — the high-level façade tying the whole stack together.
//
// This is the main entry point of the library: given a target Shape and a
// configuration, it wires up Network → RPS → T-Man → (optionally)
// Polystyrene exactly as in the paper's evaluation (Fig. 3), and exposes
// round execution, failure/re-injection events, and the paper's metrics.
//
//   GridTorusShape shape(80, 40);
//   Simulation sim(shape, {});            // Polystyrene over T-Man over RPS
//   sim.run_rounds(20);                   // Phase 1: converge
//   sim.crash_failure_half();             // Phase 2: catastrophe
//   sim.run_rounds(10);
//   assert(sim.homogeneity() < sim.reference_homogeneity());
//
// Set `config.polystyrene = false` for the bare T-Man baseline the paper
// compares against.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/polystyrene.hpp"
#include "metrics/metrics.hpp"
#include "rps/rps.hpp"
#include "shape/shape.hpp"
#include "sim/failure_detector.hpp"
#include "sim/network.hpp"
#include "tman/tman.hpp"
#include "topo/topology.hpp"
#include "vicinity/vicinity.hpp"

namespace poly::scenario {

/// Which topology-construction protocol Polystyrene runs on.  The paper
/// evaluates on T-Man; Vicinity demonstrates the "plugs into any topology
/// construction algorithm" claim (§II-C).
enum class Substrate { kTman, kVicinity };

/// Full-stack configuration.  Defaults reproduce §IV-A.
struct SimulationConfig {
  std::uint64_t seed = 1;
  /// false = bare topology-construction baseline (nodes never move, one
  /// implicit data point each — the paper's comparison configuration).
  bool polystyrene = true;

  Substrate substrate = Substrate::kTman;
  rps::RpsConfig rps{};
  tman::TmanConfig tman{};
  vicinity::VicinityConfig vicinity{};
  core::PolyConfig poly{};

  /// Failure detection: 0/0 = perfect detector (the paper's evaluation);
  /// otherwise a DelayedFailureDetector with this latency and
  /// false-positive rate (ablations).
  std::uint64_t fd_delay_rounds = 0;
  double fd_false_positive_rate = 0.0;

  bool operator==(const SimulationConfig&) const = default;
};

/// One fully wired simulated deployment.
class Simulation {
 public:
  /// Builds the stack: one node per data point of `shape`, RPS views
  /// bootstrapped, T-Man views seeded.  The shape must outlive the
  /// simulation.
  Simulation(const shape::Shape& shape, SimulationConfig config);

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  // ---- execution ---------------------------------------------------------

  /// One full round: RPS shuffle → T-Man exchanges → Polystyrene
  /// (recovery, backup, migration) → round clock tick.
  void run_round();
  void run_rounds(std::size_t n);

  /// Crashes every node whose *original* position lies in the shape's
  /// failure half (§IV-A Phase 2).  Returns the number crashed.
  std::size_t crash_failure_half();

  /// Crashes `count` random nodes (uncorrelated churn).
  std::size_t crash_random(std::size_t count);

  /// Injects `count` fresh nodes: no data point, position seeded on the
  /// shape's parallel offset grid, RPS/T-Man views bootstrapped (§IV-A
  /// Phase 3).  Returns their ids.
  std::vector<sim::NodeId> reinject(std::size_t count);

  /// Moves the *target shape itself*: applies `transform` to every data
  /// point in the system (guests, ghosts, and the reference points the
  /// metrics track).  Implements the paper's evolving-shape extension
  /// (footnote 1); the overlay re-projects and follows.  Only meaningful
  /// with Polystyrene enabled.
  void morph_shape(
      const std::function<space::Point(const space::Point&)>& transform);

  // ---- metrics (paper §IV-A) ---------------------------------------------

  double homogeneity() const;
  double proximity(std::size_t k = 4) const;
  double avg_points_per_node() const;
  double reliability() const;
  /// H = reference homogeneity for the *current* number of alive nodes.
  double reference_homogeneity() const;
  /// Paper-accounted message cost per node for completed round `r`
  /// (T-Man + backup + migration; RPS excluded as in §IV-A).
  double message_cost_per_node(std::size_t r) const;

  // ---- access ------------------------------------------------------------

  const shape::Shape& target_shape() const noexcept { return shape_; }
  const space::MetricSpace& metric_space() const noexcept { return space_; }
  sim::Network& network() noexcept { return net_; }
  const sim::Network& network() const noexcept { return net_; }
  rps::RpsProtocol& rps() noexcept { return rps_; }

  /// The active topology-construction layer (T-Man or Vicinity).
  topo::TopologyConstruction& topology() noexcept { return *topo_; }
  const topo::TopologyConstruction& topology() const noexcept {
    return *topo_;
  }

  /// The concrete T-Man layer; throws std::logic_error when the simulation
  /// was configured with a different substrate.
  tman::TmanProtocol& tman();
  const tman::TmanProtocol& tman() const;
  /// Null when running the bare T-Man baseline.
  core::PolystyreneLayer* polystyrene() noexcept { return poly_.get(); }
  const core::PolystyreneLayer* polystyrene() const noexcept {
    return poly_.get();
  }
  const sim::FailureDetector& failure_detector() const noexcept {
    return *fd_;
  }
  const std::vector<space::DataPoint>& initial_points() const noexcept {
    return initial_points_;
  }
  const SimulationConfig& config() const noexcept { return config_; }

  /// Current virtual position of a node (the topology layer's advertised
  /// position).
  const space::Point& position(sim::NodeId id) const {
    return topo_->position(id);
  }

 private:
  /// Visits every alive node, in alive_ids() order.
  metrics::ForEachHost hosts() const;

  const shape::Shape& shape_;
  SimulationConfig config_;
  const space::MetricSpace& space_;
  std::vector<space::DataPoint> initial_points_;

  sim::Network net_;
  std::unique_ptr<sim::FailureDetector> fd_;
  rps::RpsProtocol rps_;
  std::unique_ptr<tman::TmanProtocol> tman_;
  std::unique_ptr<vicinity::VicinityProtocol> vicinity_;
  topo::TopologyConstruction* topo_ = nullptr;  // the active substrate
  std::unique_ptr<core::PolystyreneLayer> poly_;

  /// Bare-T-Man runs: per-node single own data point (initial nodes host
  /// their original point; re-injected nodes host nothing measurable).
  std::vector<std::optional<space::DataPoint>> own_point_;
};

}  // namespace poly::scenario
