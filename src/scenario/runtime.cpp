#include "scenario/runtime.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <thread>

#include "engine/event_cluster.hpp"
#include "net/runtime.hpp"
#include "sim/traffic.hpp"
#include "traffic/workload.hpp"

namespace poly::scenario {

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

class SyncRuntime final : public Runtime {
 public:
  SyncRuntime(const shape::Shape& shape, const SimulationConfig& config)
      : shape_(shape), sim_(shape, config) {}

  EngineMode mode() const noexcept override { return EngineMode::kSync; }
  const shape::Shape& target_shape() const noexcept override {
    return shape_;
  }

  void run_round() override { sim_.run_round(); }
  std::size_t rounds_run() const noexcept override {
    return sim_.network().round();
  }
  std::size_t alive_count() const override {
    return sim_.network().num_alive();
  }

  std::size_t crash_half() override { return sim_.crash_failure_half(); }
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

  void morph(const std::function<space::Point(const space::Point&)>&
                 transform) override {
    sim_.morph_shape(transform);
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
    m.success_rate = m.p50_latency_ms = m.p99_latency_ms = m.p999_latency_ms =
        m.mean_hops = kNaN;
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
  const shape::Shape& shape_;
  Simulation sim_;
};

class EventsRuntime final : public Runtime {
 public:
  EventsRuntime(const shape::Shape& shape, const SimulationConfig& config)
      : shape_(shape),
        fleet_(shape.space_ptr(), shape.generate(), to_config(config),
               config.seed) {}

  EngineMode mode() const noexcept override { return EngineMode::kEvents; }
  const shape::Shape& target_shape() const noexcept override {
    return shape_;
  }

  void run_round() override {
    fleet_.run_rounds(1);
    ++rounds_;
  }
  std::size_t rounds_run() const noexcept override { return rounds_; }
  std::size_t alive_count() const override { return fleet_.alive_count(); }

  std::size_t crash_half() override {
    return fleet_.crash_region(
        [this](const space::Point& p) { return shape_.in_failure_half(p); });
  }
  std::size_t crash_region(
      const std::function<bool(const space::Point&)>& pred) override {
    return fleet_.crash_region(pred);
  }
  std::size_t crash_random(std::size_t count) override {
    return fleet_.crash_random(count);
  }
  std::size_t crash_ids(std::span<const std::size_t> ids) override {
    std::size_t crashed = 0;
    for (std::size_t id : ids) crashed += fleet_.crash_node(id) ? 1 : 0;
    return crashed;
  }
  std::size_t inject(std::size_t count) override {
    const auto positions = shape_.reinjection_positions(count);
    for (const auto& pos : positions) fleet_.inject(pos);
    return positions.size();
  }

  std::size_t partition_region(
      const std::function<bool(const space::Point&)>& pred,
      std::size_t heal_rounds) override {
    return fleet_.partition_region(pred, heal_rounds);
  }
  std::size_t degrade_region(
      const std::function<bool(const space::Point&)>& pred, LinkDirection dir,
      double extra_drop, double jitter_ms, std::size_t heal_rounds) override {
    return fleet_.degrade_region(pred, to_fault_dir(dir), extra_drop,
                                 to_simtime_ms(jitter_ms), heal_rounds);
  }
  void corrupt_frames(double p, std::size_t heal_rounds) override {
    fleet_.corrupt_frames(p, heal_rounds);
  }
  void duplicate_frames(double p, std::size_t heal_rounds) override {
    fleet_.duplicate_frames(p, heal_rounds);
  }
  void reorder_frames(double p, double jitter_ms,
                      std::size_t heal_rounds) override {
    fleet_.reorder_frames(p, to_simtime_ms(jitter_ms), heal_rounds);
  }
  std::size_t stall_region(
      const std::function<bool(const space::Point&)>& pred,
      std::size_t rounds) override {
    return fleet_.stall_region(pred, rounds);
  }
  std::size_t stall_random(std::size_t count, std::size_t rounds) override {
    return fleet_.stall_random(count, rounds);
  }
  std::size_t recover_all() override { return fleet_.recover_all(); }
  std::size_t recover_random(std::size_t count) override {
    return fleet_.recover_random(count);
  }
  std::size_t recover_ids(std::span<const std::size_t> ids) override {
    std::size_t n = 0;
    for (std::size_t id : ids) n += fleet_.recover_node(id) ? 1 : 0;
    return n;
  }

  void start_traffic(std::size_t rate, TrafficMix mix) override {
    traffic::TrafficConfig cfg;
    cfg.rate_per_round = rate;
    cfg.mix = to_traffic_mix(mix);
    fleet_.start_traffic(cfg);
  }
  void stop_traffic() override { fleet_.stop_traffic(); }
  std::size_t traffic_inflight() const override {
    return fleet_.traffic_inflight();
  }

  RoundMetrics measure() const override {
    RoundMetrics m;
    m.round = rounds_ > 0 ? rounds_ - 1 : 0;
    m.alive = fleet_.alive_count();
    m.homogeneity = fleet_.homogeneity();
    m.reference_h = shape_.reference_homogeneity(m.alive);
    m.proximity = fleet_.proximity();
    m.points_per_node = kNaN;
    m.reliability = fleet_.reliability();
    m.msg_paper = m.msg_tman = m.msg_backup = m.msg_migration = m.msg_rps =
        kNaN;
    m.frames = fleet_.hub().frames_sent();
    m.frames_rejected = fleet_.frames_rejected();
    const auto& fc = fleet_.fault_counters();
    m.frames_blackholed = fc.frames_blackholed;
    m.frames_duplicated = fc.frames_duplicated;
    m.frames_corrupted = fc.frames_corrupted;
    m.frames_reordered = fc.frames_reordered;
    m.stall_rounds = fc.stall_rounds;
    m.recoveries = fc.recoveries;
    if (const traffic::TrafficPlane* tp = fleet_.traffic_plane()) {
      const traffic::TrafficCounters& t = tp->totals();
      m.requests = t.completed;
      m.requests_failed = t.failed;
      m.requests_inflight = tp->in_flight();
      const std::uint64_t settled = t.completed + t.failed;
      m.success_rate = settled == 0 ? kNaN
                                    : static_cast<double>(t.completed) /
                                          static_cast<double>(settled);
      m.p50_latency_ms = t.latency.quantile_ms(0.5);
      m.p99_latency_ms = t.latency.quantile_ms(0.99);
      m.p999_latency_ms = t.latency.quantile_ms(0.999);
      m.mean_hops = t.completed == 0
                        ? kNaN
                        : static_cast<double>(t.hops_total) /
                              static_cast<double>(t.completed);
    } else {
      m.success_rate = m.p50_latency_ms = m.p99_latency_ms =
          m.p999_latency_ms = m.mean_hops = kNaN;
    }
    return m;
  }
  std::vector<space::Point> alive_positions() const override {
    return fleet_.alive_positions();
  }

  engine::EventCluster& fleet() noexcept { return fleet_; }

 private:
  static engine::EventClusterConfig to_config(const SimulationConfig& in) {
    engine::EventClusterConfig cfg;
    cfg.node.replication = in.poly.replication;
    cfg.node.split_kind = in.poly.split_kind;
    return cfg;
  }
  static fault::Direction to_fault_dir(LinkDirection dir) noexcept {
    switch (dir) {
      case LinkDirection::kInto: return fault::Direction::kInto;
      case LinkDirection::kOutOf: return fault::Direction::kOutOf;
      case LinkDirection::kBoth: break;
    }
    return fault::Direction::kBoth;
  }
  static engine::SimTime to_simtime_ms(double ms) {
    return std::chrono::duration_cast<engine::SimTime>(
        std::chrono::duration<double, std::milli>(ms));
  }
  static traffic::Mix to_traffic_mix(TrafficMix mix) noexcept {
    switch (mix) {
      case TrafficMix::kGet: return traffic::Mix::kGet;
      case TrafficMix::kPut: return traffic::Mix::kPut;
      case TrafficMix::kMixed: break;
    }
    return traffic::Mix::kMixed;
  }

  const shape::Shape& shape_;
  engine::EventCluster fleet_;
  std::size_t rounds_ = 0;
};

class LiveRuntime final : public Runtime {
 public:
  LiveRuntime(const shape::Shape& shape, const SimulationConfig& config)
      : shape_(shape),
        cfg_(to_config(config)),
        fleet_(shape.space_ptr(), shape.generate(), cfg_, config.seed) {
    fleet_.start();
  }
  ~LiveRuntime() override { fleet_.stop(); }

  EngineMode mode() const noexcept override { return EngineMode::kLive; }
  const shape::Shape& target_shape() const noexcept override {
    return shape_;
  }

  void run_round() override {
    std::this_thread::sleep_for(cfg_.tick);  // one wall-clock "round"
    ++rounds_;
  }
  std::size_t rounds_run() const noexcept override { return rounds_; }
  std::size_t alive_count() const override { return fleet_.alive_count(); }

  std::size_t crash_half() override {
    return fleet_.crash_region(
        [this](const space::Point& p) { return shape_.in_failure_half(p); });
  }
  std::size_t crash_region(
      const std::function<bool(const space::Point&)>& pred) override {
    return fleet_.crash_region(pred);
  }
  std::size_t crash_random(std::size_t) override {
    throw std::logic_error(
        "crash frac: live mode has no deterministic cluster RNG; use "
        "crash half/zone/ids or --engine sync|events");
  }
  std::size_t crash_ids(std::span<const std::size_t> ids) override {
    std::size_t crashed = 0;
    for (std::size_t id : ids) crashed += fleet_.crash_node(id) ? 1 : 0;
    return crashed;
  }
  std::size_t inject(std::size_t count) override {
    const auto positions = shape_.reinjection_positions(count);
    for (const auto& pos : positions) fleet_.inject(pos);
    return positions.size();
  }

  RoundMetrics measure() const override {
    RoundMetrics m;
    m.round = rounds_ > 0 ? rounds_ - 1 : 0;
    m.alive = fleet_.alive_count();
    m.homogeneity = fleet_.homogeneity();
    m.reference_h = shape_.reference_homogeneity(m.alive);
    m.proximity = fleet_.proximity();
    m.points_per_node = kNaN;
    m.reliability = fleet_.reliability();
    m.msg_paper = m.msg_tman = m.msg_backup = m.msg_migration = m.msg_rps =
        kNaN;
    m.success_rate = m.p50_latency_ms = m.p99_latency_ms = m.p999_latency_ms =
        m.mean_hops = kNaN;
    return m;
  }
  std::vector<space::Point> alive_positions() const override {
    return fleet_.alive_positions();
  }

 private:
  static net::AsyncConfig to_config(const SimulationConfig& in) {
    net::AsyncConfig cfg;
    cfg.replication = in.poly.replication;
    cfg.split_kind = in.poly.split_kind;
    return cfg;
  }

  const shape::Shape& shape_;
  net::AsyncConfig cfg_;
  net::LiveCluster fleet_;
  std::size_t rounds_ = 0;
};

/// Thread-per-node live fleets stop being practical past this size.
constexpr std::size_t kLiveMaxNodes = 512;

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

void Runtime::morph(
    const std::function<space::Point(const space::Point&)>&) {
  throw std::logic_error(std::string("morph/migrate stages need --engine "
                                     "sync; this cluster runs ") +
                         to_string(mode()));
}

namespace {
[[noreturn]] void no_faults(const Runtime& rt) {
  throw std::logic_error(
      std::string("fault/recover verbs need --engine events; this cluster "
                  "runs ") +
      to_string(rt.mode()));
}
}  // namespace

std::size_t Runtime::partition_region(
    const std::function<bool(const space::Point&)>&, std::size_t) {
  no_faults(*this);
}
std::size_t Runtime::degrade_region(
    const std::function<bool(const space::Point&)>&, LinkDirection, double,
    double, std::size_t) {
  no_faults(*this);
}
void Runtime::corrupt_frames(double, std::size_t) { no_faults(*this); }
void Runtime::duplicate_frames(double, std::size_t) { no_faults(*this); }
void Runtime::reorder_frames(double, double, std::size_t) {
  no_faults(*this);
}
std::size_t Runtime::stall_region(
    const std::function<bool(const space::Point&)>&, std::size_t) {
  no_faults(*this);
}
std::size_t Runtime::stall_random(std::size_t, std::size_t) {
  no_faults(*this);
}
std::size_t Runtime::recover_all() { no_faults(*this); }
std::size_t Runtime::recover_random(std::size_t) { no_faults(*this); }
std::size_t Runtime::recover_ids(std::span<const std::size_t>) {
  no_faults(*this);
}

namespace {
[[noreturn]] void no_traffic(const Runtime& rt) {
  throw std::logic_error(
      std::string("traffic verbs need --engine events; this cluster runs ") +
      to_string(rt.mode()));
}
}  // namespace

void Runtime::start_traffic(std::size_t, TrafficMix) { no_traffic(*this); }
void Runtime::stop_traffic() { no_traffic(*this); }
std::size_t Runtime::traffic_inflight() const { no_traffic(*this); }

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
      return std::make_unique<EventsRuntime>(shape, config);
    case EngineMode::kLive:
      if (shape.size() > kLiveMaxNodes)
        throw std::invalid_argument(
            "engine live is thread-per-node; " +
            std::to_string(shape.size()) +
            " nodes is too many (use engine events, or a shape of <= " +
            std::to_string(kLiveMaxNodes) + " nodes)");
      return std::make_unique<LiveRuntime>(shape, config);
  }
  throw std::invalid_argument("unknown engine mode");
}

}  // namespace poly::scenario
