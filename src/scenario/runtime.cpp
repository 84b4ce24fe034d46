#include "scenario/runtime.hpp"

#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>

#include "engine/event_cluster.hpp"
#include "sim/traffic.hpp"
#include "traffic/workload.hpp"
#include "util/table.hpp"

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

  std::vector<space::Point> alive_positions() const override {
    return cluster_.alive_positions();
  }

  engine::EventCluster* fleet() noexcept override { return &cluster_; }

 private:
  const shape::Shape& shape_;
  engine::EventCluster cluster_;
  std::size_t rounds_ = 0;
};

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
using sim::Channel;

double count(std::uint64_t n) { return static_cast<double>(n); }

/// num / den; NaN while den is 0.
double ratio(std::uint64_t num, std::uint64_t den) {
  return den != 0 ? count(num) / count(den) : kNaN;
}

/// The last completed round's per-node message cost on `channel`, in the
/// paper's units (§IV-A); NaN before the first round.
double per_node(const Simulation& s, Channel channel) {
  const sim::Network& net = s.network();
  return net.round() > 0 ? net.traffic().per_node(net.round() - 1, channel)
                         : kNaN;
}

// The metric table: name, printed digits, then the sync, fleet and
// traffic-plane readers (nullptr: not measured there).  docs/SCENARIOS.md
// says what each row measures.
const Metric kMetrics[] = {
    {"alive", 0, [](auto& s) { return count(s.network().num_alive()); },
     [](auto& f, auto&) { return count(f.alive_count()); }},
    {"homogeneity", 3, [](auto& s) { return s.homogeneity(); },
     [](auto& f, auto&) { return f.homogeneity(); }},
    {"reference_h", 3, [](auto& s) { return s.reference_homogeneity(); },
     [](auto& f, auto& shape) {
       return shape.reference_homogeneity(f.alive_count());
     }},
    {"proximity", 3, [](auto& s) { return s.proximity(); },
     [](auto& f, auto&) { return f.proximity(); }},
    {"reliability", 3, [](auto& s) { return s.reliability(); },
     [](auto& f, auto&) { return f.reliability(); }},
    {"points_per_node", 2, [](auto& s) { return s.avg_points_per_node(); }},
    {"msg_paper", 1,
     [](auto& s) {
       return per_node(s, Channel::kTman) + per_node(s, Channel::kBackup) +
              per_node(s, Channel::kMigration);
     }},
    {"msg_tman", 1, [](auto& s) { return per_node(s, Channel::kTman); }},
    {"msg_backup", 1, [](auto& s) { return per_node(s, Channel::kBackup); }},
    {"msg_migration", 1,
     [](auto& s) { return per_node(s, Channel::kMigration); }},
    {"msg_rps", 1, [](auto& s) { return per_node(s, Channel::kRps); }},
    {"frames", 0, nullptr,
     [](auto& f, auto&) { return count(f.hub().frames_sent()); }},
    {"frames_rejected", 0, nullptr,
     [](auto& f, auto&) { return count(f.frames_rejected()); }},
    {"frames_blackholed", 0, nullptr,
     [](auto& f, auto&) {
       return count(f.fault_counters().frames_blackholed);
     }},
    {"frames_duplicated", 0, nullptr,
     [](auto& f, auto&) {
       return count(f.fault_counters().frames_duplicated);
     }},
    {"frames_corrupted", 0, nullptr,
     [](auto& f, auto&) { return count(f.fault_counters().frames_corrupted); }},
    {"frames_reordered", 0, nullptr,
     [](auto& f, auto&) { return count(f.fault_counters().frames_reordered); }},
    {"stall_rounds", 0, nullptr,
     [](auto& f, auto&) { return count(f.fault_counters().stall_rounds); }},
    {"recoveries", 0, nullptr,
     [](auto& f, auto&) { return count(f.fault_counters().recoveries); }},
    {"requests", 0, nullptr, nullptr,
     [](auto& t) { return count(t.totals().completed); }},
    {"requests_get", 0, nullptr, nullptr,
     [](auto& t) { return count(t.totals().gets); }},
    {"requests_put", 0, nullptr, nullptr,
     [](auto& t) { return count(t.totals().puts); }},
    {"requests_failed", 0, nullptr, nullptr,
     [](auto& t) { return count(t.totals().failed); }},
    {"requests_inflight", 0, nullptr, nullptr,
     [](auto& t) { return count(t.in_flight()); }},
    {"success_rate", 4, nullptr, nullptr,
     [](auto& t) {
       const auto& n = t.totals();
       return ratio(n.completed, n.completed + n.failed);
     }},
    {"p50_latency_ms", 2, nullptr, nullptr,
     [](auto& t) { return t.totals().latency.quantile_ms(0.5); }},
    {"p99_latency_ms", 2, nullptr, nullptr,
     [](auto& t) { return t.totals().latency.quantile_ms(0.99); }},
    {"p999_latency_ms", 2, nullptr, nullptr,
     [](auto& t) { return t.totals().latency.quantile_ms(0.999); }},
    {"mean_hops", 1, nullptr, nullptr,
     [](auto& t) {
       return ratio(t.totals().hops_total, t.totals().completed);
     }},
};

}  // namespace

unsigned Metric::engines() const noexcept {
  const auto bit = [](EngineMode m) { return 1u << static_cast<unsigned>(m); };
  return (sync != nullptr ? bit(EngineMode::kSync) : 0u) |
         (fleet != nullptr || traffic != nullptr
              ? bit(EngineMode::kEvents) | bit(EngineMode::kLive)
              : 0u);
}

std::string Metric::cell(double value) const {
  return std::isnan(value) ? "-" : util::fmt(value, precision);
}

std::string Metric::cell(const util::MeanCi& value) const {
  return std::isnan(value.mean) ? "-" : value.str(precision);
}

std::span<const Metric> metric_table() noexcept { return kMetrics; }

const Metric* find_metric(std::string_view name) noexcept {
  for (const Metric& row : kMetrics)
    if (name == row.name) return &row;
  return nullptr;
}

double Measurement::operator[](std::string_view name) const {
  const Metric* row = find_metric(name);
  if (row == nullptr)
    throw std::invalid_argument("unknown metric '" + std::string(name) + "'");
  return (*this)[*row];
}

Measurement measure(Runtime& rt, const shape::Shape& shape) {
  const Simulation* sim = rt.sim();
  const engine::EventCluster* fleet = rt.fleet();
  const traffic::TrafficPlane* plane =
      fleet != nullptr ? fleet->traffic_plane() : nullptr;
  Measurement m{rt.rounds_run() > 0 ? rt.rounds_run() - 1 : 0, {}};
  for (const Metric& row : kMetrics)
    m.values.push_back(sim && row.sync         ? row.sync(*sim)
                       : fleet && row.fleet     ? row.fleet(*fleet, shape)
                       : plane && row.traffic   ? row.traffic(*plane)
                                                : kNaN);
  return m;
}

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
