#include "scenario/simulation.hpp"

#include <stdexcept>

namespace poly::scenario {

namespace {

std::unique_ptr<sim::FailureDetector> make_fd(const sim::Network& net,
                                              const SimulationConfig& cfg) {
  if (cfg.fd_delay_rounds == 0 && cfg.fd_false_positive_rate == 0.0)
    return std::make_unique<sim::PerfectFailureDetector>(net);
  return std::make_unique<sim::DelayedFailureDetector>(
      net, cfg.fd_delay_rounds, cfg.fd_false_positive_rate);
}

}  // namespace

Simulation::Simulation(const shape::Shape& shape, SimulationConfig config)
    : shape_(shape),
      config_(config),
      space_(shape.space()),
      initial_points_(shape.generate(0)),
      net_(config.seed),
      fd_(make_fd(net_, config)),
      rps_(net_, config.rps) {
  switch (config_.substrate) {
    case Substrate::kTman:
      tman_ = std::make_unique<tman::TmanProtocol>(net_, space_, rps_, *fd_,
                                                   config_.tman);
      topo_ = tman_.get();
      break;
    case Substrate::kVicinity:
      vicinity_ = std::make_unique<vicinity::VicinityProtocol>(
          net_, space_, rps_, *fd_, config_.vicinity);
      topo_ = vicinity_.get();
      break;
  }

  if (config_.polystyrene) {
    poly_ = std::make_unique<core::PolystyreneLayer>(net_, space_, rps_,
                                                     *topo_, *fd_,
                                                     config_.poly);
  }

  // One node per original data point (paper §III-A: each node starts with
  // its own position as its single guest).
  own_point_.reserve(initial_points_.size());
  for (const auto& dp : initial_points_) {
    const sim::NodeId id = net_.add_node(dp.pos);
    rps_.on_node_added(id);
    topo_->on_node_added(id, dp.pos);
    if (poly_) poly_->on_node_added(id, dp);
    own_point_.push_back(dp);
  }

  rps_.bootstrap_all();
  for (sim::NodeId id = 0; id < net_.num_total(); ++id)
    topo_->bootstrap_node(id);
}

tman::TmanProtocol& Simulation::tman() {
  if (!tman_) throw std::logic_error("Simulation: substrate is not T-Man");
  return *tman_;
}

const tman::TmanProtocol& Simulation::tman() const {
  if (!tman_) throw std::logic_error("Simulation: substrate is not T-Man");
  return *tman_;
}

void Simulation::run_round() {
  rps_.round();
  topo_->round();
  if (poly_) poly_->round();
  net_.advance_round();
}

void Simulation::run_rounds(std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) run_round();
}

std::size_t Simulation::crash_failure_half() {
  return net_.crash_region(
      [this](const space::Point& p) { return shape_.in_failure_half(p); });
}

std::size_t Simulation::crash_random(std::size_t count) {
  return net_.crash_random(count);
}

std::vector<sim::NodeId> Simulation::reinject(std::size_t count) {
  const auto positions = shape_.reinjection_positions(count);
  std::vector<sim::NodeId> ids;
  ids.reserve(positions.size());
  space::PointId next_own_id = initial_points_.size() + own_point_.size();
  for (const auto& pos : positions) {
    const sim::NodeId id = net_.add_node(pos);
    rps_.on_node_added(id);
    rps_.bootstrap_node(id);
    topo_->on_node_added(id, pos);
    topo_->bootstrap_node(id);
    if (poly_) {
      // Fresh Polystyrene nodes carry no data point; they acquire guests
      // through migration (paper §IV-A Phase 3).
      poly_->on_node_added(id, std::nullopt);
      own_point_.push_back(std::nullopt);
    } else {
      // Bare T-Man: a node's "data point" is simply its own position.  The
      // id is outside the initial range so it never enters homogeneity or
      // reliability (those track the *initial* shape), but it counts as
      // one stored point.
      own_point_.push_back(space::DataPoint{next_own_id++, pos});
    }
    ids.push_back(id);
  }
  return ids;
}

void Simulation::morph_shape(
    const std::function<space::Point(const space::Point&)>& transform) {
  for (auto& dp : initial_points_)
    dp.pos = space_.normalize(transform(dp.pos));
  if (poly_) {
    poly_->transform_points(transform);
  } else {
    // Baseline runs: each node's own point (and position) moves with it.
    for (sim::NodeId id = 0; id < net_.num_total(); ++id) {
      auto& slot = own_point_[id];
      if (!slot) continue;
      slot->pos = space_.normalize(transform(slot->pos));
      if (net_.alive(id)) topo_->set_position(id, slot->pos);
    }
  }
}

metrics::ForEachHost Simulation::hosts() const {
  return [this](const metrics::HostVisit& visit) {
    for (sim::NodeId n : net_.alive_ids()) {
      if (poly_) {
        visit(topo_->position(n), poly_->guests(n));
      } else {
        const auto& own = own_point_[n];
        visit(topo_->position(n),
              own ? std::span<const space::DataPoint>(&*own, 1)
                  : std::span<const space::DataPoint>());
      }
    }
  };
}

double Simulation::homogeneity() const {
  return metrics::homogeneity(space_, initial_points_, hosts());
}

double Simulation::proximity(std::size_t k) const {
  return metrics::proximity(net_, space_, *topo_, k);
}

double Simulation::avg_points_per_node() const {
  if (poly_) {
    const auto* poly = poly_.get();
    return metrics::avg_points_per_node(net_, [poly](sim::NodeId n) {
      const auto s = poly->storage(n);
      return s.guests + s.ghost_points;
    });
  }
  // Bare T-Man: exactly one data point per node (its own position).
  return metrics::avg_points_per_node(net_,
                                      [](sim::NodeId) { return std::size_t{1}; });
}

double Simulation::reliability() const {
  return metrics::reliability(initial_points_, hosts());
}

double Simulation::reference_homogeneity() const {
  return shape_.reference_homogeneity(net_.num_alive());
}

double Simulation::message_cost_per_node(std::size_t r) const {
  return net_.traffic().per_node_paper_total(r);
}

}  // namespace poly::scenario
