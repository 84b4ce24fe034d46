// Thread-per-node live fleet: AsyncNodes over an in-process hub or real
// TCP sockets, each ticked by its own thread on the wall clock.
//
// The cluster is the only record of which nodes tick and which are alive:
// one ticker thread per alive node calls AsyncNode::tick() once per
// AsyncConfig::tick period, and a crash joins that thread before it shuts
// the node's transport.  Used by tests, the live_async example and the
// scenario driver's `--engine live`.
#pragma once

#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "metrics/metrics.hpp"
#include "net/runtime.hpp"
#include "space/metric_space.hpp"
#include "space/point.hpp"
#include "util/thread_annotations.hpp"

namespace poly::net {

/// A fleet of in-process (or TCP) nodes; start() launches their tickers.
class LiveCluster {
 public:
  /// One node per data point; each knows a random sample of rps_view
  /// others.
  LiveCluster(std::shared_ptr<const space::MetricSpace> space,
              const std::vector<space::DataPoint>& points,
              AsyncConfig config, std::uint64_t seed, bool use_tcp = false);
  ~LiveCluster();

  LiveCluster(const LiveCluster&) = delete;
  LiveCluster& operator=(const LiveCluster&) = delete;

  /// Starts a ticker thread for every alive node that has none.
  void start();
  /// Stops and joins every ticker; node state stays inspectable.
  void stop();

  std::size_t size() const { return nodes_.size(); }
  AsyncNode& node(std::size_t i) { return *nodes_[i]; }

  /// Crash-stops every node whose *original* data point satisfies pred.
  std::size_t crash_region(
      const std::function<bool(const space::Point&)>& pred);

  /// Crash-stops node `idx`; returns false when out of range or already
  /// crashed (scenario programs crash explicit id lists).
  bool crash_node(std::size_t idx);

  /// Injects a fresh node (no data point) at `pos`, bootstrapped from the
  /// alive nodes, and starts its ticker; returns its index.
  std::size_t inject(const space::Point& pos);

  /// Current advertised position of every alive node, in id order
  /// (snapshot density maps).
  std::vector<space::Point> alive_positions() const;

  /// metrics::homogeneity over the alive nodes.
  double homogeneity() const;

  /// metrics::reliability over the alive nodes.
  double reliability() const;

  /// Geometric proximity (SpatialIndex k-NN over alive node positions).
  double proximity(std::size_t k = 4) const;

  std::size_t alive_count() const;

 private:
  /// Visits every alive node, in id order.
  metrics::ForEachHost hosts() const;
  void crash(std::size_t idx);
  void start_ticker(std::size_t idx);
  void stop_ticker(std::size_t idx);
  /// Ticks `node` every cfg_.tick until stop_[idx] is set.
  void run_ticker(std::size_t idx, AsyncNode& node);

  std::shared_ptr<const space::MetricSpace> space_;
  std::vector<space::DataPoint> points_;
  AsyncConfig cfg_;
  std::uint64_t seed_;
  bool use_tcp_;
  std::shared_ptr<class InProcHub> hub_;
  std::vector<std::unique_ptr<AsyncNode>> nodes_;
  std::vector<bool> crashed_;
  util::Mutex tick_mu_;
  util::CondVar tick_cv_;
  /// Stop requests, one per node; each ticker waits on tick_cv_ for its
  /// own between ticks.
  std::vector<bool> stop_ GUARDED_BY(tick_mu_);
  /// tickers_[i] ticks nodes_[i]; not joinable while the node does not
  /// tick.  Touched by the controlling thread only.
  std::vector<std::thread> tickers_;
};

}  // namespace poly::net
