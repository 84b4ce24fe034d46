#include "sim/failure_detector.hpp"

namespace poly::sim {

DelayedFailureDetector::DelayedFailureDetector(const Network& net,
                                               std::uint64_t delay_rounds,
                                               double false_positive_rate,
                                               std::uint64_t salt)
    : net_(net),
      delay_(delay_rounds),
      fp_rate_(false_positive_rate),
      salt_(salt) {}

std::optional<std::uint64_t> DelayedFailureDetector::epoch() const {
  if (fp_rate_ > 0.0) return std::nullopt;
  // Both terms only grow, so their sum moves whenever either does.
  return net_.num_crashed() + net_.round();
}

bool DelayedFailureDetector::suspects(NodeId observer, NodeId target) const {
  if (!net_.alive(target)) {
    // Heartbeat model: the crash becomes visible after `delay_` rounds.
    return net_.round() >= net_.crash_round(target) + delay_;
  }
  if (fp_rate_ <= 0.0) return false;
  // Deterministic per-(observer, target, round) pseudo-random draw, so the
  // verdict is stable within a round and reproducible across runs.
  std::uint64_t h = salt_;
  auto mix = [&h](std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
  };
  mix(observer);
  mix(target);
  mix(net_.round());
  const double u =
      static_cast<double>(h >> 11) * 0x1.0p-53;  // uniform in [0,1)
  return u < fp_rate_;
}

}  // namespace poly::sim
