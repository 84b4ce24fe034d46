// Failure detectors (paper §III-A: "We also assume nodes have access to a
// (possibly imperfect) failure detector").
//
// The evaluation uses prompt detection; we provide that as
// PerfectFailureDetector and an imperfect variant with detection latency and
// (optionally) false positives, used by the abl_fd_latency ablation bench to
// quantify how much the paper's results depend on detection quality.
#pragma once

#include <cstdint>
#include <optional>

#include "sim/network.hpp"
#include "sim/node_id.hpp"

namespace poly::sim {

/// Abstract failure detector: `suspects(observer, target)` answers whether
/// `observer` currently believes `target` has crashed.
class FailureDetector {
 public:
  virtual ~FailureDetector() = default;

  /// True iff `observer` suspects `target` to have failed at the network's
  /// current round.  Implementations must be side-effect free.
  virtual bool suspects(NodeId observer, NodeId target) const = 0;

  /// A value that changes whenever the set of suspected nodes can grow, so
  /// a caller that pruned under one epoch need not prune again until it
  /// moves.  A detector may report one only if its verdicts are the same
  /// for every observer and never suspect an alive node; any other
  /// returns nullopt and its callers ask every time.
  virtual std::optional<std::uint64_t> epoch() const { return std::nullopt; }
};

/// Oracle detector: suspects exactly the crashed nodes, immediately.
class PerfectFailureDetector final : public FailureDetector {
 public:
  explicit PerfectFailureDetector(const Network& net) : net_(net) {}
  bool suspects(NodeId /*observer*/, NodeId target) const override {
    return !net_.alive(target);
  }
  /// Moves on every crash.
  std::optional<std::uint64_t> epoch() const override {
    return net_.num_crashed();
  }

 private:
  const Network& net_;
};

/// Imperfect detector:
///  * a crash is detected only `delay_rounds` rounds after it happened
///    (heartbeat timeout model);
///  * while a target is alive, each (observer, target, round) query falsely
///    suspects it with probability `false_positive_rate` (deterministic:
///    derived by hashing, so repeated queries in a round agree and the
///    simulation stays reproducible).
class DelayedFailureDetector final : public FailureDetector {
 public:
  DelayedFailureDetector(const Network& net, std::uint64_t delay_rounds,
                         double false_positive_rate = 0.0,
                         std::uint64_t salt = 0x5bd1e995u);

  bool suspects(NodeId observer, NodeId target) const override;
  /// Moves on every crash and every round (a crash becomes visible some
  /// rounds later).  With false positives, verdicts depend on the
  /// observer: nullopt.
  std::optional<std::uint64_t> epoch() const override;

  std::uint64_t delay_rounds() const noexcept { return delay_; }
  double false_positive_rate() const noexcept { return fp_rate_; }

 private:
  const Network& net_;
  std::uint64_t delay_;
  double fp_rate_;
  std::uint64_t salt_;
};

}  // namespace poly::sim
