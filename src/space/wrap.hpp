// Per-axis arithmetic of the modular spaces (TorusSpace, Torus3dSpace,
// RingSpace): the shorter way around one wrapping axis, and the wrap of a
// coordinate into the fundamental domain [0, extent).
#pragma once

#include <algorithm>
#include <cmath>

namespace poly::space {

/// Distance between coordinates `a` and `b` along an axis that wraps at
/// `extent` (> 0): the shorter of the two ways around.
///
/// `std::fmod` is skipped when |a−b| < extent, the common case for
/// normalized coordinates.  IEEE fmod is exact and returns its argument
/// unchanged there, so the result is bit-identical to always calling it;
/// NaN and infinity still take the fmod path.
inline double axis_delta(double a, double b, double extent) noexcept {
  double d = std::fabs(a - b);
  if (!(d < extent)) d = std::fmod(d, extent);
  return std::min(d, extent - d);
}

/// Wraps `v` into [0, extent).
inline double wrap_coordinate(double v, double extent) noexcept {
  double r = std::fmod(v, extent);
  if (r < 0.0) r += extent;
  return r;
}

}  // namespace poly::space
