#include "scenario/runtime.hpp"

#include <stdexcept>

#include "engine/event_cluster.hpp"
#include "sim/traffic.hpp"
#include "traffic/workload.hpp"

namespace poly::scenario {

namespace {

/// The protocol knobs the fleet engines read; make_cluster rejects the
/// rest of a SimulationConfig under them.
net::AsyncConfig node_config(const SimulationConfig& in) {
  net::AsyncConfig cfg;
  cfg.replication = in.poly.replication;
  cfg.split_kind = in.poly.split_kind;
  return cfg;
}

class SyncRuntime final : public Runtime {
 public:
  SyncRuntime(const shape::Shape& shape, const SimulationConfig& config)
      : sim_(shape, config) {}

  void run_round() override { sim_.run_round(); }
  std::size_t rounds_run() const noexcept override {
    return sim_.network().round();
  }
  std::size_t alive_count() const override {
    return sim_.network().num_alive();
  }

  std::size_t crash_region(
      const std::function<bool(const space::Point&)>& pred) override {
    return sim_.network().crash_region(pred);
  }
  std::size_t crash_random(std::size_t count) override {
    return sim_.crash_random(count);
  }
  std::size_t crash_ids(std::span<const std::size_t> ids) override {
    std::size_t crashed = 0;
    auto& net = sim_.network();
    for (std::size_t id : ids) {
      if (id < net.num_total() && net.alive(id)) {
        net.crash(id);
        ++crashed;
      }
    }
    return crashed;
  }
  std::size_t inject(std::size_t count) override {
    return sim_.reinject(count).size();
  }

  RoundMetrics measure() const override {
    RoundMetrics m;
    const auto& net = sim_.network();
    m.round = net.round() > 0 ? net.round() - 1 : 0;  // last completed
    m.alive = net.num_alive();
    m.homogeneity = sim_.homogeneity();
    m.reference_h = sim_.reference_homogeneity();
    m.proximity = sim_.proximity();
    m.points_per_node = sim_.avg_points_per_node();
    m.reliability = sim_.reliability();
    if (net.round() > 0) {
      const auto& traffic = net.traffic();
      m.msg_tman = traffic.per_node(m.round, sim::Channel::kTman);
      m.msg_backup = traffic.per_node(m.round, sim::Channel::kBackup);
      m.msg_migration = traffic.per_node(m.round, sim::Channel::kMigration);
      m.msg_rps = traffic.per_node(m.round, sim::Channel::kRps);
      m.msg_paper = m.msg_tman + m.msg_backup + m.msg_migration;
    }
    return m;
  }
  std::vector<space::Point> alive_positions() const override {
    std::vector<space::Point> out;
    for (sim::NodeId n : sim_.network().alive_ids())
      out.push_back(sim_.position(n));
    return out;
  }

  Simulation* sim() noexcept override { return &sim_; }

 private:
  Simulation sim_;
};

/// The AsyncNode fleet, under events (virtual clock) or live (the same
/// run paced by the wall clock).
class EventsRuntime final : public Runtime {
 public:
  EventsRuntime(const shape::Shape& shape, const SimulationConfig& config,
                engine::Drive drive)
      : shape_(shape),
        cluster_(shape.space_ptr(), shape.generate(),
                 engine::EventClusterConfig{.node = node_config(config),
                                            .drive = drive},
                 config.seed) {}

  void run_round() override {
    cluster_.run_rounds(1);
    ++rounds_;
  }
  std::size_t rounds_run() const noexcept override { return rounds_; }
  std::size_t alive_count() const override { return cluster_.alive_count(); }

  std::size_t crash_region(
      const std::function<bool(const space::Point&)>& pred) override {
    return cluster_.crash_region(pred);
  }
  std::size_t crash_random(std::size_t count) override {
    return cluster_.crash_random(count);
  }
  std::size_t crash_ids(std::span<const std::size_t> ids) override {
    std::size_t crashed = 0;
    for (std::size_t id : ids) crashed += cluster_.crash_node(id) ? 1 : 0;
    return crashed;
  }
  std::size_t inject(std::size_t count) override {
    const auto positions = shape_.reinjection_positions(count);
    for (const auto& pos : positions) cluster_.inject(pos);
    return positions.size();
  }

  RoundMetrics measure() const override {
    RoundMetrics m;
    m.round = rounds_ > 0 ? rounds_ - 1 : 0;
    m.alive = cluster_.alive_count();
    m.homogeneity = cluster_.homogeneity();
    m.reference_h = shape_.reference_homogeneity(m.alive);
    m.proximity = cluster_.proximity();
    m.reliability = cluster_.reliability();
    m.frames = cluster_.hub().frames_sent();
    m.frames_rejected = cluster_.frames_rejected();
    const auto& fc = cluster_.fault_counters();
    m.frames_blackholed = fc.frames_blackholed;
    m.frames_duplicated = fc.frames_duplicated;
    m.frames_corrupted = fc.frames_corrupted;
    m.frames_reordered = fc.frames_reordered;
    m.stall_rounds = fc.stall_rounds;
    m.recoveries = fc.recoveries;
    if (const traffic::TrafficPlane* tp = cluster_.traffic_plane()) {
      const traffic::TrafficCounters& t = tp->totals();
      m.requests = t.completed;
      m.requests_failed = t.failed;
      m.requests_inflight = tp->in_flight();
      const std::uint64_t settled = t.completed + t.failed;
      if (settled != 0)
        m.success_rate = static_cast<double>(t.completed) /
                         static_cast<double>(settled);
      m.p50_latency_ms = t.latency.quantile_ms(0.5);
      m.p99_latency_ms = t.latency.quantile_ms(0.99);
      m.p999_latency_ms = t.latency.quantile_ms(0.999);
      if (t.completed != 0)
        m.mean_hops = static_cast<double>(t.hops_total) /
                      static_cast<double>(t.completed);
    }
    return m;
  }
  std::vector<space::Point> alive_positions() const override {
    return cluster_.alive_positions();
  }

  engine::EventCluster* fleet() noexcept override { return &cluster_; }

 private:
  const shape::Shape& shape_;
  engine::EventCluster cluster_;
  std::size_t rounds_ = 0;
};

}  // namespace

std::optional<EngineMode> engine_mode_from_string(std::string_view s) {
  if (s == "sync") return EngineMode::kSync;
  if (s == "events") return EngineMode::kEvents;
  if (s == "live") return EngineMode::kLive;
  return std::nullopt;
}

const char* to_string(EngineMode mode) noexcept {
  switch (mode) {
    case EngineMode::kSync: return "sync";
    case EngineMode::kEvents: return "events";
    case EngineMode::kLive: return "live";
  }
  return "unknown";
}

std::unique_ptr<Runtime> make_cluster(const shape::Shape& shape,
                                      const ScenarioOptions& options) {
  const SimulationConfig& config = options.config;
  if (options.engine != EngineMode::kSync) {
    // The fleet engines run the full Polystyrene-on-T-Man AsyncNode stack
    // with its own failure detection and protocol parameters; reject
    // sync-only knobs (polystyrene off, vicinity, fd-*, the sub-protocol
    // configs) loudly instead of silently ignoring them.
    SimulationConfig read;
    read.seed = config.seed;
    read.poly.replication = config.poly.replication;
    read.poly.split_kind = config.poly.split_kind;
    if (config != read)
      throw std::invalid_argument(
          std::string("engine ") + to_string(options.engine) +
          " reads only seed, k and split from the config; every other "
          "SimulationConfig knob needs engine sync");
  }
  switch (options.engine) {
    case EngineMode::kSync:
      return std::make_unique<SyncRuntime>(shape, config);
    case EngineMode::kEvents:
      return std::make_unique<EventsRuntime>(shape, config,
                                             engine::Drive::kVirtual);
    case EngineMode::kLive:
      return std::make_unique<EventsRuntime>(shape, config,
                                             engine::Drive::kWallClock);
  }
  throw std::invalid_argument("unknown engine mode");
}

}  // namespace poly::scenario
