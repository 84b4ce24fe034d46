#include "space/torus3d.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "space/wrap.hpp"

namespace poly::space {

Torus3dSpace::Torus3dSpace(double width, double height, double depth)
    : w_(width), h_(height), d_(depth) {
  if (!(width > 0.0) || !(height > 0.0) || !(depth > 0.0))
    throw std::invalid_argument("Torus3dSpace: extents must be positive");
}

double Torus3dSpace::distance2(const Point& a, const Point& b) const noexcept {
  const double dx = axis_delta(a.c[0], b.c[0], w_);
  const double dy = axis_delta(a.c[1], b.c[1], h_);
  const double dz = axis_delta(a.c[2], b.c[2], d_);
  return dx * dx + dy * dy + dz * dz;
}

double Torus3dSpace::distance(const Point& a, const Point& b) const noexcept {
  return std::sqrt(distance2(a, b));
}

Point Torus3dSpace::normalize(const Point& p) const noexcept {
  return Point{wrap_coordinate(p.c[0], w_), wrap_coordinate(p.c[1], h_),
               wrap_coordinate(p.c[2], d_)};
}

std::string Torus3dSpace::name() const {
  char buf[80];
  std::snprintf(buf, sizeof buf, "torus3d%gx%gx%g", w_, h_, d_);
  return buf;
}

}  // namespace poly::space
