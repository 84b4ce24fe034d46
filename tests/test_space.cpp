// Unit + property tests for poly::space — metric axioms on every concrete
// space (parameterized sweeps), torus/ring modular arithmetic (the shared
// axis delta is pinned bit-for-bit to the fmod formula), medoid and
// diameter primitives.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "space/diameter.hpp"
#include "space/euclidean.hpp"
#include "space/medoid.hpp"
#include "space/metric_space.hpp"
#include "space/point.hpp"
#include "space/ring.hpp"
#include "space/torus.hpp"
#include "space/torus3d.hpp"
#include "space/wrap.hpp"
#include "util/rng.hpp"

namespace {

using poly::space::DataPoint;
using poly::space::EuclideanSpace;
using poly::space::MetricSpace;
using poly::space::Point;
using poly::space::RingSpace;
using poly::space::Torus3dSpace;
using poly::space::TorusSpace;
using poly::util::Rng;

// ---- Point ----------------------------------------------------------------

TEST(Point, ConstructionAndAccess) {
  Point p1(3.0);
  EXPECT_EQ(p1.dim, 1);
  EXPECT_DOUBLE_EQ(p1.x(), 3.0);

  Point p2(1.0, 2.0);
  EXPECT_EQ(p2.dim, 2);
  EXPECT_DOUBLE_EQ(p2.y(), 2.0);

  Point p3(1.0, 2.0, 3.0);
  EXPECT_EQ(p3.dim, 3);
  EXPECT_DOUBLE_EQ(p3.z(), 3.0);
}

TEST(Point, Equality) {
  EXPECT_EQ(Point(1.0, 2.0), Point(1.0, 2.0));
  EXPECT_NE(Point(1.0, 2.0), Point(2.0, 1.0));
  EXPECT_NE(Point(1.0), Point(1.0, 0.0));  // different dims
}

TEST(Point, HashConsistentWithEquality) {
  const std::hash<Point> h;
  EXPECT_EQ(h(Point(1.0, 2.0)), h(Point(1.0, 2.0)));
}

TEST(Point, Str) {
  EXPECT_EQ(Point(1.0, 2.0).str(), "(1.000, 2.000)");
  EXPECT_EQ(Point(1.5).str(), "(1.500)");
}

TEST(DataPoint, OrderedById) {
  DataPoint a{1, Point(5.0, 5.0)};
  DataPoint b{2, Point(0.0, 0.0)};
  EXPECT_LT(a, b);
}

// ---- Metric axioms (property sweep over all spaces) ------------------------

struct SpaceCase {
  std::string name;
  std::shared_ptr<MetricSpace> space;
};

class MetricAxioms : public ::testing::TestWithParam<SpaceCase> {
 protected:
  /// Random point inside the space's fundamental domain (approximately).
  Point random_point(Rng& rng) const {
    const auto& s = *GetParam().space;
    switch (s.dimension()) {
      case 1: return s.normalize(Point{rng.uniform_real(-100, 100)});
      case 2:
        return s.normalize(
            Point{rng.uniform_real(-100, 100), rng.uniform_real(-100, 100)});
      default:
        return s.normalize(Point{rng.uniform_real(-100, 100),
                                 rng.uniform_real(-100, 100),
                                 rng.uniform_real(-100, 100)});
    }
  }
};

TEST_P(MetricAxioms, NonNegativityAndSymmetry) {
  const auto& s = *GetParam().space;
  Rng rng(99);
  for (int i = 0; i < 500; ++i) {
    const Point a = random_point(rng);
    const Point b = random_point(rng);
    const double dab = s.distance(a, b);
    EXPECT_GE(dab, 0.0);
    EXPECT_NEAR(dab, s.distance(b, a), 1e-9);
  }
}

TEST_P(MetricAxioms, IdentityOfIndiscernibles) {
  const auto& s = *GetParam().space;
  Rng rng(101);
  for (int i = 0; i < 200; ++i) {
    const Point a = random_point(rng);
    EXPECT_NEAR(s.distance(a, a), 0.0, 1e-12);
  }
}

TEST_P(MetricAxioms, TriangleInequality) {
  const auto& s = *GetParam().space;
  Rng rng(103);
  for (int i = 0; i < 500; ++i) {
    const Point a = random_point(rng);
    const Point b = random_point(rng);
    const Point c = random_point(rng);
    EXPECT_LE(s.distance(a, c), s.distance(a, b) + s.distance(b, c) + 1e-9);
  }
}

TEST_P(MetricAxioms, Distance2MatchesDistanceSquared) {
  const auto& s = *GetParam().space;
  Rng rng(107);
  for (int i = 0; i < 200; ++i) {
    const Point a = random_point(rng);
    const Point b = random_point(rng);
    const double d = s.distance(a, b);
    EXPECT_NEAR(s.distance2(a, b), d * d, 1e-6);
  }
}

TEST_P(MetricAxioms, NormalizePreservesDistances) {
  const auto& s = *GetParam().space;
  Rng rng(109);
  for (int i = 0; i < 200; ++i) {
    const Point a = random_point(rng);
    const Point b = random_point(rng);
    EXPECT_NEAR(s.distance(a, b), s.distance(s.normalize(a), s.normalize(b)),
                1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSpaces, MetricAxioms,
    ::testing::Values(
        SpaceCase{"euclidean1d", std::make_shared<EuclideanSpace>(1)},
        SpaceCase{"euclidean2d", std::make_shared<EuclideanSpace>(2)},
        SpaceCase{"euclidean3d", std::make_shared<EuclideanSpace>(3)},
        SpaceCase{"torus80x40", std::make_shared<TorusSpace>(80.0, 40.0)},
        SpaceCase{"torus_square", std::make_shared<TorusSpace>(10.0, 10.0)},
        SpaceCase{"ring", std::make_shared<RingSpace>(100.0)}),
    [](const ::testing::TestParamInfo<SpaceCase>& info) {
      return info.param.name;
    });

// ---- Euclidean -------------------------------------------------------------

TEST(Euclidean, KnownDistances) {
  EuclideanSpace e2(2);
  EXPECT_DOUBLE_EQ(e2.distance(Point(0, 0), Point(3, 4)), 5.0);
  EuclideanSpace e1(1);
  EXPECT_DOUBLE_EQ(e1.distance(Point(-2.0), Point(3.0)), 5.0);
}

TEST(Euclidean, IgnoresCoordinatesBeyondDimension) {
  EuclideanSpace e1(1);
  // Only the first coordinate counts in R^1.
  EXPECT_DOUBLE_EQ(e1.distance(Point(0.0, 5.0), Point(0.0, 9.0)), 0.0);
}

TEST(Euclidean, InvalidDimensionThrows) {
  EXPECT_THROW(EuclideanSpace(0), std::invalid_argument);
  EXPECT_THROW(EuclideanSpace(4), std::invalid_argument);
}

// ---- Torus -----------------------------------------------------------------

TEST(Torus, WrapsAroundBothAxes) {
  TorusSpace t(80.0, 40.0);
  // x: 79 → 0 is distance 1, not 79.
  EXPECT_DOUBLE_EQ(t.distance(Point(79, 0), Point(0, 0)), 1.0);
  // y: 39 → 0 is distance 1.
  EXPECT_DOUBLE_EQ(t.distance(Point(0, 39), Point(0, 0)), 1.0);
  // Max distance along x is 40 (half the extent).
  EXPECT_DOUBLE_EQ(t.distance(Point(0, 0), Point(40, 0)), 40.0);
}

TEST(Torus, DiagonalWrap) {
  TorusSpace t(80.0, 40.0);
  EXPECT_DOUBLE_EQ(t.distance(Point(79, 39), Point(0, 0)),
                   std::sqrt(2.0));
}

TEST(Torus, NormalizeWrapsIntoDomain) {
  TorusSpace t(80.0, 40.0);
  const Point p = t.normalize(Point(-1.0, 41.0));
  EXPECT_DOUBLE_EQ(p.x(), 79.0);
  EXPECT_DOUBLE_EQ(p.y(), 1.0);
}

TEST(Torus, AreaAndName) {
  TorusSpace t(80.0, 40.0);
  EXPECT_DOUBLE_EQ(t.area(), 3200.0);
  EXPECT_EQ(t.name(), "torus80x40");
}

TEST(Torus, InvalidExtentsThrow) {
  EXPECT_THROW(TorusSpace(0.0, 10.0), std::invalid_argument);
  EXPECT_THROW(TorusSpace(10.0, -1.0), std::invalid_argument);
}

// ---- Ring ------------------------------------------------------------------

TEST(Ring, ShorterArc) {
  RingSpace r(100.0);
  EXPECT_DOUBLE_EQ(r.distance(Point(10.0), Point(90.0)), 20.0);
  EXPECT_DOUBLE_EQ(r.distance(Point(0.0), Point(50.0)), 50.0);
}

TEST(Ring, NormalizeWraps) {
  RingSpace r(100.0);
  EXPECT_DOUBLE_EQ(r.normalize(Point(-10.0)).x(), 90.0);
  EXPECT_DOUBLE_EQ(r.normalize(Point(250.0)).x(), 50.0);
}

TEST(Ring, InvalidCircumferenceThrows) {
  EXPECT_THROW(RingSpace(0.0), std::invalid_argument);
}

// ---- Wrap-around axis delta -------------------------------------------------

/// The per-axis formula of the modular spaces before axis_delta learned to
/// skip fmod: always reduce |a−b| modulo the extent.
double fmod_axis_delta(double a, double b, double extent) {
  double d = std::fabs(a - b);
  d = std::fmod(d, extent);
  return std::min(d, extent - d);
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Coordinate pairs for one axis: |a−b| just below, equal to and just
/// above the extent (and twice it), offsets in and far outside
/// [0, extent) including negative ones, and seeded random pairs, both
/// normalized and not.
std::vector<std::pair<double, double>> axis_cases(double extent, Rng& rng) {
  std::vector<std::pair<double, double>> out;
  const double gaps[] = {0.0,
                         1e-300,
                         extent / 2,
                         std::nextafter(extent, 0.0),
                         extent,
                         std::nextafter(extent, 2 * extent),
                         std::nextafter(2 * extent, 0.0),
                         2 * extent,
                         7.5 * extent};
  const double bases[] = {0.0, 3.25, -7.5, extent, -3 * extent, 1e6};
  for (double gap : gaps) {
    out.emplace_back(gap, 0.0);  // |a−b| == gap exactly
    out.emplace_back(0.0, gap);
    out.emplace_back(-gap, 0.0);
    for (double base : bases) {
      out.emplace_back(base + gap, base);
      out.emplace_back(base, base - gap);
    }
  }
  for (int i = 0; i < 2000; ++i) {
    out.emplace_back(rng.uniform_real(0.0, extent),
                     rng.uniform_real(0.0, extent));
    out.emplace_back(rng.uniform_real(-5 * extent, 5 * extent),
                     rng.uniform_real(-5 * extent, 5 * extent));
  }
  return out;
}

TEST(AxisDelta, MatchesFmodFormulaBitForBit) {
  Rng rng(41);
  for (double extent : {80.0, 40.0, 1.0, 0.3, 100.0, 6.0}) {
    for (const auto& [a, b] : axis_cases(extent, rng)) {
      ASSERT_EQ(bits(poly::space::axis_delta(a, b, extent)),
                bits(fmod_axis_delta(a, b, extent)))
          << "a=" << a << " b=" << b << " extent=" << extent;
    }
  }
}

TEST(AxisDelta, ModularSpacesMatchFmodFormulaBitForBit) {
  Rng rng(43);
  const TorusSpace torus(80.0, 40.0);
  const Torus3dSpace torus3(8.0, 6.0, 0.3);
  const RingSpace ring(100.0);
  const auto xs = axis_cases(80.0, rng);
  const auto ys = axis_cases(40.0, rng);
  const auto x3 = axis_cases(8.0, rng);
  const auto y3 = axis_cases(6.0, rng);
  const auto z3 = axis_cases(0.3, rng);
  const auto rs = axis_cases(100.0, rng);
  for (int i = 0; i < 20000; ++i) {
    const auto& [ax, bx] = xs[rng.index(xs.size())];
    const auto& [ay, by] = ys[rng.index(ys.size())];
    const double dx = fmod_axis_delta(ax, bx, 80.0);
    const double dy = fmod_axis_delta(ay, by, 40.0);
    const Point a(ax, ay);
    const Point b(bx, by);
    ASSERT_EQ(bits(torus.distance2(a, b)), bits(dx * dx + dy * dy))
        << a.str() << " " << b.str();
    ASSERT_EQ(bits(torus.distance(a, b)), bits(std::sqrt(dx * dx + dy * dy)));

    const auto& [ax3, bx3] = x3[rng.index(x3.size())];
    const auto& [ay3, by3] = y3[rng.index(y3.size())];
    const auto& [az3, bz3] = z3[rng.index(z3.size())];
    const double ex = fmod_axis_delta(ax3, bx3, 8.0);
    const double ey = fmod_axis_delta(ay3, by3, 6.0);
    const double ez = fmod_axis_delta(az3, bz3, 0.3);
    ASSERT_EQ(bits(torus3.distance2(Point(ax3, ay3, az3),
                                    Point(bx3, by3, bz3))),
              bits(ex * ex + ey * ey + ez * ez));

    const auto& [ar, br] = rs[rng.index(rs.size())];
    ASSERT_EQ(bits(ring.distance(Point(ar), Point(br))),
              bits(fmod_axis_delta(ar, br, 100.0)));
  }
}

// ---- Medoid ----------------------------------------------------------------

TEST(Medoid, SinglePoint) {
  EuclideanSpace e(2);
  std::vector<DataPoint> pts{{0, Point(1, 1)}};
  EXPECT_EQ(poly::space::medoid(pts, e), Point(1, 1));
}

TEST(Medoid, CentralPointWins) {
  EuclideanSpace e(2);
  std::vector<DataPoint> pts{
      {0, Point(0, 0)}, {1, Point(1, 0)}, {2, Point(2, 0)}};
  EXPECT_EQ(poly::space::medoid(pts, e), Point(1, 0));
}

TEST(Medoid, EmptySetThrows) {
  EuclideanSpace e(2);
  std::vector<DataPoint> pts;
  EXPECT_THROW(poly::space::medoid(std::span<const DataPoint>(pts), e),
               std::invalid_argument);
}

TEST(Medoid, TieBreaksTowardLowestIndex) {
  EuclideanSpace e(2);
  // Two points: both have identical cost; index 0 must win.
  std::vector<DataPoint> pts{{7, Point(0, 0)}, {9, Point(2, 0)}};
  EXPECT_EQ(poly::space::medoid_index(std::span<const DataPoint>(pts), e),
            0u);
}

TEST(Medoid, WorksInModularSpace) {
  // On a ring, points 98, 0, 2: the medoid is 0 (center across the seam),
  // which a naive centroid (mean ≈ 33.3) would get catastrophically wrong.
  RingSpace ring(100.0);
  std::vector<DataPoint> pts{
      {0, Point(98.0)}, {1, Point(0.0)}, {2, Point(2.0)}};
  EXPECT_EQ(poly::space::medoid(pts, ring), Point(0.0));
}

TEST(Medoid, MedoidIsAlwaysAMemberOfTheSet) {
  TorusSpace t(20.0, 20.0);
  Rng rng(113);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<DataPoint> pts;
    const std::size_t n = 1 + rng.index(12);
    for (std::size_t i = 0; i < n; ++i)
      pts.push_back({i, Point(rng.uniform_real(0, 20),
                              rng.uniform_real(0, 20))});
    const Point m = poly::space::medoid(pts, t);
    bool member = false;
    for (const auto& p : pts) member = member || (p.pos == m);
    EXPECT_TRUE(member);
  }
}

TEST(Medoid, MinimizesObjectiveExhaustively) {
  EuclideanSpace e(2);
  Rng rng(127);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<DataPoint> pts;
    const std::size_t n = 2 + rng.index(8);
    for (std::size_t i = 0; i < n; ++i)
      pts.push_back({i, Point(rng.uniform_real(-5, 5),
                              rng.uniform_real(-5, 5))});
    const std::size_t mi =
        poly::space::medoid_index(std::span<const DataPoint>(pts), e);
    const double cost_m =
        poly::space::sum_squared_to(pts[mi].pos, pts, e);
    for (const auto& candidate : pts) {
      const double cost_c =
          poly::space::sum_squared_to(candidate.pos, pts, e);
      EXPECT_LE(cost_m, cost_c + 1e-9);
    }
  }
}

TEST(Medoid, PairwiseCostMatchesDefinition) {
  EuclideanSpace e(2);
  std::vector<DataPoint> pts{
      {0, Point(0, 0)}, {1, Point(3, 0)}, {2, Point(0, 4)}};
  // Ordered pairs: 2*(9 + 16 + 25) = 100.
  EXPECT_DOUBLE_EQ(poly::space::pairwise_squared_cost(pts, e), 100.0);
}

// ---- Diameter --------------------------------------------------------------

TEST(Diameter, ExactFindsFarthestPair) {
  EuclideanSpace e(2);
  std::vector<DataPoint> pts{{0, Point(0, 0)},
                             {1, Point(1, 1)},
                             {2, Point(10, 0)},
                             {3, Point(4, 4)}};
  const auto d = poly::space::exact_diameter(pts, e);
  EXPECT_DOUBLE_EQ(d.distance, 10.0);
  EXPECT_TRUE((d.u == 0 && d.v == 2) || (d.u == 2 && d.v == 0));
}

TEST(Diameter, SinglePointIsZero) {
  EuclideanSpace e(2);
  std::vector<DataPoint> pts{{0, Point(1, 2)}};
  const auto d = poly::space::exact_diameter(pts, e);
  EXPECT_EQ(d.distance, 0.0);
  EXPECT_EQ(d.u, d.v);
}

TEST(Diameter, EmptyThrows) {
  EuclideanSpace e(2);
  std::vector<DataPoint> pts;
  EXPECT_THROW(
      poly::space::exact_diameter(std::span<const DataPoint>(pts), e),
      std::invalid_argument);
}

TEST(Diameter, SampledIsNeverAboveExactAndUsuallyClose) {
  TorusSpace t(40.0, 40.0);
  Rng rng(131);
  double worst_ratio = 1.0;
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<DataPoint> pts;
    for (std::size_t i = 0; i < 100; ++i)
      pts.push_back({i, Point(rng.uniform_real(0, 40),
                              rng.uniform_real(0, 40))});
    const auto exact = poly::space::exact_diameter(pts, t);
    const auto approx = poly::space::sampled_diameter(pts, t, rng);
    EXPECT_LE(approx.distance, exact.distance + 1e-9);
    if (exact.distance > 0)
      worst_ratio = std::min(worst_ratio, approx.distance / exact.distance);
  }
  // The double-sweep + sampling heuristic should stay within 25% of the
  // true diameter on random clouds.
  EXPECT_GT(worst_ratio, 0.75);
}

TEST(Diameter, DispatcherUsesExactBelowThreshold) {
  EuclideanSpace e(2);
  Rng rng(137);
  std::vector<DataPoint> pts;
  for (std::size_t i = 0; i < 30; ++i)
    pts.push_back({i, Point(static_cast<double>(i), 0.0)});
  const auto d = poly::space::diameter(pts, e, rng, 30);
  EXPECT_DOUBLE_EQ(d.distance, 29.0);  // exact answer guaranteed
}

}  // namespace
