// The link model of the event-driven transport.
//
// A LinkModel decides, per frame, how long delivery takes and whether the
// frame is lost in flight: latency uniform in [lo, hi], and an independent
// per-frame drop rate.  Draws come from the hub's RNG, split off the
// engine seed, so a link's behaviour is deterministic given that seed.  A
// link with lo == hi and no drop rate draws nothing: the default {0, 0, 0}
// delivers at the sending instant, and {d, d, 0} after a fixed d.  The
// Transport contract promises per-pair FIFO; EngineHub enforces it by
// clamping delivery times whenever the link admits reordering
// (may_reorder()).
#pragma once

#include <stdexcept>

#include "engine/event_engine.hpp"
#include "util/rng.hpp"

namespace poly::engine {

/// Per-frame latency / loss of an EngineHub.
class LinkModel {
 public:
  /// The zero link: every frame delivered at the current instant (events
  /// still fire after already-queued same-timestamp events, FIFO).
  LinkModel() = default;

  /// Latency uniform in [lo, hi]; each frame lost with `drop_rate`.
  LinkModel(SimTime lo, SimTime hi, double drop_rate = 0.0)
      : lo_(lo), hi_(hi), drop_rate_(drop_rate) {
    if (lo_ > hi_) throw std::invalid_argument("LinkModel: lo > hi");
    if (drop_rate_ < 0.0 || drop_rate_ >= 1.0)
      throw std::invalid_argument("LinkModel: drop rate outside [0, 1)");
  }

  /// One frame's delivery latency.
  SimTime latency(util::Rng& rng) const {
    if (lo_ == hi_) return lo_;
    return SimTime{rng.uniform_i64(lo_.count(), hi_.count())};
  }

  /// True to lose the frame in flight.  The live protocol tolerates loss
  /// (a lost exchange at worst duplicates points, which migration dedups),
  /// but a lossy link does break the Transport reliability promise — use
  /// it deliberately, for degraded-network scenarios.
  bool drop(util::Rng& rng) const {
    return drop_rate_ > 0.0 && rng.bernoulli(drop_rate_);
  }

  /// True when two frames on the same sender→receiver pair can be drawn
  /// latencies that would invert their order (random jitter).
  bool may_reorder() const noexcept { return lo_ != hi_; }

 private:
  SimTime lo_{};
  SimTime hi_{};
  double drop_rate_ = 0.0;
};

}  // namespace poly::engine
