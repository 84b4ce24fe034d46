#include "net/live_cluster.hpp"

#include <algorithm>
#include <chrono>

#include "net/inproc_transport.hpp"
#include "net/tcp_transport.hpp"

namespace poly::net {

namespace {

std::chrono::steady_clock::time_point wall_clock() {
  // DETLINT-ALLOW(nondet-source): the live fleet runs on real time by
  // design; deterministic runs use engine::EventCluster's virtual clock
  return std::chrono::steady_clock::now();
}

}  // namespace

LiveCluster::LiveCluster(std::shared_ptr<const space::MetricSpace> space,
                         const std::vector<space::DataPoint>& points,
                         AsyncConfig config, std::uint64_t seed, bool use_tcp)
    : space_(std::move(space)),
      points_(points),
      cfg_(config),
      seed_(seed),
      use_tcp_(use_tcp) {
  if (!use_tcp_) hub_ = InProcHub::create();
  util::Rng rng(seed);

  auto make_transport = [&](std::size_t i) -> std::unique_ptr<Transport> {
    if (use_tcp_) return std::make_unique<TcpTransport>();
    return hub_->make_endpoint("node-" + std::to_string(i));
  };

  for (std::size_t i = 0; i < points_.size(); ++i) {
    nodes_.push_back(std::make_unique<AsyncNode>(
        static_cast<LiveNodeId>(i), space_, make_transport(i), points_[i],
        cfg_, rng.split().next_u64(), wall_clock));
    crashed_.push_back(false);
  }
  tickers_.resize(nodes_.size());
  {
    util::MutexLock lk(tick_mu_);
    stop_.resize(nodes_.size(), false);
  }
  // Bootstrap: every node learns a random sample of contacts.
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    std::vector<Seed> seeds;
    for (std::size_t j :
         rng.sample_indices(nodes_.size(),
                            std::min(cfg_.rps_view, nodes_.size())))
      if (j != i)
        seeds.push_back(Seed{static_cast<LiveNodeId>(j),
                             nodes_[j]->address()});
    nodes_[i]->bootstrap(seeds);
  }
}

LiveCluster::~LiveCluster() { stop(); }

void LiveCluster::start() {
  for (std::size_t i = 0; i < nodes_.size(); ++i)
    if (!crashed_[i]) start_ticker(i);
}

void LiveCluster::stop() {
  {
    util::MutexLock lk(tick_mu_);
    std::fill(stop_.begin(), stop_.end(), true);
  }
  tick_cv_.notify_all();
  for (std::thread& t : tickers_)
    if (t.joinable()) t.join();
}

void LiveCluster::start_ticker(std::size_t idx) {
  if (tickers_[idx].joinable()) return;
  {
    util::MutexLock lk(tick_mu_);
    stop_[idx] = false;
  }
  AsyncNode* node = nodes_[idx].get();
  tickers_[idx] = std::thread([this, idx, node] { run_ticker(idx, *node); });
}

void LiveCluster::stop_ticker(std::size_t idx) {
  if (!tickers_[idx].joinable()) return;
  {
    util::MutexLock lk(tick_mu_);
    stop_[idx] = true;
  }
  tick_cv_.notify_all();
  tickers_[idx].join();
}

void LiveCluster::run_ticker(std::size_t idx, AsyncNode& node) {
  for (;;) {
    {
      util::MutexLock lk(tick_mu_);
      if (tick_cv_.wait_for(tick_mu_, cfg_.tick,
                            [this, idx]() REQUIRES(tick_mu_) {
                              return static_cast<bool>(stop_[idx]);
                            }))
        return;
    }
    // Tick outside tick_mu_: stop requests must not wait for a tick.
    node.tick();
  }
}

void LiveCluster::crash(std::size_t idx) {
  stop_ticker(idx);
  nodes_[idx]->crash();
  crashed_[idx] = true;
}

std::size_t LiveCluster::crash_region(
    const std::function<bool(const space::Point&)>& pred) {
  std::size_t crashed = 0;
  for (std::size_t i = 0; i < points_.size(); ++i) {
    if (!crashed_[i] && pred(points_[i].pos)) {
      crash(i);
      ++crashed;
    }
  }
  return crashed;
}

bool LiveCluster::crash_node(std::size_t idx) {
  if (idx >= nodes_.size() || crashed_[idx]) return false;
  crash(idx);
  return true;
}

std::vector<space::Point> LiveCluster::alive_positions() const {
  std::vector<space::Point> out;
  for (std::size_t i = 0; i < nodes_.size(); ++i)
    if (!crashed_[i]) out.push_back(nodes_[i]->position());
  return out;
}

std::size_t LiveCluster::inject(const space::Point& pos) {
  util::Rng rng(seed_ ^ (0x9e37u + nodes_.size()));
  const auto idx = nodes_.size();
  std::unique_ptr<Transport> transport =
      use_tcp_ ? std::unique_ptr<Transport>(std::make_unique<TcpTransport>())
               : std::unique_ptr<Transport>(
                     hub_->make_endpoint("node-" + std::to_string(idx)));
  auto node = std::make_unique<AsyncNode>(
      static_cast<LiveNodeId>(idx), space_, std::move(transport),
      std::nullopt, cfg_, rng.next_u64(), wall_clock);
  // A fresh node starts at its assigned position until migration hands it
  // guests; seed it from the alive population.
  std::vector<Seed> seeds;
  for (std::size_t j = 0; j < nodes_.size() && seeds.size() < cfg_.rps_view;
       ++j)
    if (!crashed_[j])
      seeds.push_back(Seed{static_cast<LiveNodeId>(j), nodes_[j]->address()});
  node->bootstrap(seeds);
  nodes_.push_back(std::move(node));
  crashed_.push_back(false);
  tickers_.emplace_back();
  {
    util::MutexLock lk(tick_mu_);
    stop_.push_back(false);
  }
  points_.push_back({space::kInvalidPointId, pos});
  start_ticker(idx);
  return idx;
}

metrics::ForEachHost LiveCluster::hosts() const {
  return [this](const metrics::HostVisit& visit) {
    for (std::size_t i = 0; i < nodes_.size(); ++i)
      if (!crashed_[i]) nodes_[i]->visit_hosting(visit);
  };
}

double LiveCluster::homogeneity() const {
  return metrics::homogeneity(*space_, points_, hosts());
}

double LiveCluster::reliability() const {
  return metrics::reliability(points_, hosts());
}

double LiveCluster::proximity(std::size_t k) const {
  return metrics::proximity(*space_, alive_positions(), k);
}

std::size_t LiveCluster::alive_count() const {
  std::size_t n = 0;
  for (bool c : crashed_) n += c ? 0 : 1;
  return n;
}

}  // namespace poly::net
