// 2-D flat torus: the modular metric space of the paper's evaluation.
//
// The evaluation (§IV-A) uses a logical torus — an 80×40 grid with step 1
// whose x and y axes wrap around.  Distances are computed per axis as the
// shorter way around, then combined Euclideanly.  Because the space is
// modular, scalar division is ill-defined (paper footnote 2), which is why
// the projection step uses medoids instead of centroids.
#pragma once

#include "space/metric_space.hpp"

namespace poly::space {

/// Flat 2-D torus of extents (width, height).
class TorusSpace final : public MetricSpace {
 public:
  /// Constructs a torus with the given positive extents.
  TorusSpace(double width, double height);

  double distance(const Point& a, const Point& b) const noexcept override;
  double distance2(const Point& a, const Point& b) const noexcept override;

  /// Wraps both coordinates into [0, extent).
  Point normalize(const Point& p) const noexcept override;

  unsigned dimension() const noexcept override { return 2; }
  std::string name() const override;

  double width() const noexcept { return w_; }
  double height() const noexcept { return h_; }
  /// Surface area (used for the reference homogeneity H = ½√(A/N)).
  double area() const noexcept { return w_ * h_; }

 private:
  double w_;
  double h_;
};

}  // namespace poly::space
