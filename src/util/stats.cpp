#include "util/stats.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>

namespace poly::util {

void RunningStats::add(double x) noexcept {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const noexcept {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

double RunningStats::stderr_mean() const noexcept {
  if (n_ < 2) return 0.0;
  return stddev() / std::sqrt(static_cast<double>(n_));
}

double RunningStats::ci95_halfwidth() const noexcept {
  if (n_ < 2) return 0.0;
  return student_t95(n_ - 1) * stderr_mean();
}

double student_t95(std::size_t dof) noexcept {
  // Two-sided 95% critical values, t_{0.975, dof}.
  static constexpr std::array<double, 31> kTable = {
      0.0,    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365,
      2.306,  2.262,  2.228, 2.201, 2.179, 2.160, 2.145, 2.131,
      2.120,  2.110,  2.101, 2.093, 2.086, 2.080, 2.074, 2.069,
      2.064,  2.060,  2.056, 2.052, 2.048, 2.045, 2.042};
  if (dof == 0) return kTable[1];  // degenerate; be conservative
  if (dof <= 30) return kTable[dof];
  if (dof <= 40) return 2.042 + (2.021 - 2.042) * (double(dof) - 30) / 10.0;
  if (dof <= 60) return 2.021 + (2.000 - 2.021) * (double(dof) - 40) / 20.0;
  if (dof <= 120) return 2.000 + (1.980 - 2.000) * (double(dof) - 60) / 60.0;
  return 1.960;
}

double mean_of(const std::vector<double>& xs) noexcept {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

std::string MeanCi::str(int precision) const {
  char buf[96];
  std::snprintf(buf, sizeof buf, "%.*f ± %.*f", precision, mean,
                precision, ci95);
  return buf;
}

MeanCi mean_ci(const std::vector<double>& xs) noexcept {
  RunningStats rs;
  for (double x : xs) rs.add(x);
  return MeanCi{rs.mean(), rs.ci95_halfwidth(), rs.count()};
}

void SeriesAggregator::add_run(const std::vector<double>& series) {
  for (std::size_t r = 0; r < series.size(); ++r) add(r, series[r]);
}

void SeriesAggregator::add(std::size_t row, double value) {
  if (row >= per_round_.size()) per_round_.resize(row + 1);
  per_round_[row].push_back(value);
}

MeanCi SeriesAggregator::row(std::size_t round) const {
  if (round >= per_round_.size()) return MeanCi{};
  return mean_ci(per_round_[round]);
}

std::vector<MeanCi> SeriesAggregator::rows() const {
  std::vector<MeanCi> out;
  out.reserve(per_round_.size());
  for (std::size_t r = 0; r < per_round_.size(); ++r) out.push_back(row(r));
  return out;
}

}  // namespace poly::util
