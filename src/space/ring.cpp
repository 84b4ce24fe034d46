#include "space/ring.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "space/wrap.hpp"

namespace poly::space {

RingSpace::RingSpace(double circumference) : circ_(circumference) {
  if (!(circumference > 0.0))
    throw std::invalid_argument("RingSpace: circumference must be positive");
}

double RingSpace::distance(const Point& a, const Point& b) const noexcept {
  return axis_delta(a.c[0], b.c[0], circ_);
}

Point RingSpace::normalize(const Point& p) const noexcept {
  return Point{wrap_coordinate(p.c[0], circ_)};
}

std::string RingSpace::name() const {
  char buf[48];
  std::snprintf(buf, sizeof buf, "ring%g", circ_);
  return buf;
}

}  // namespace poly::space
