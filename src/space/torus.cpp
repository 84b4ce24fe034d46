#include "space/torus.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "space/wrap.hpp"

namespace poly::space {

TorusSpace::TorusSpace(double width, double height) : w_(width), h_(height) {
  if (!(width > 0.0) || !(height > 0.0))
    throw std::invalid_argument("TorusSpace: extents must be positive");
}

double TorusSpace::distance2(const Point& a, const Point& b) const noexcept {
  const double dx = axis_delta(a.c[0], b.c[0], w_);
  const double dy = axis_delta(a.c[1], b.c[1], h_);
  return dx * dx + dy * dy;
}

double TorusSpace::distance(const Point& a, const Point& b) const noexcept {
  return std::sqrt(distance2(a, b));
}

Point TorusSpace::normalize(const Point& p) const noexcept {
  return Point{wrap_coordinate(p.c[0], w_), wrap_coordinate(p.c[1], h_)};
}

std::string TorusSpace::name() const {
  char buf[64];
  std::snprintf(buf, sizeof buf, "torus%gx%g", w_, h_);
  return buf;
}

}  // namespace poly::space
