// Statistics helpers for the experiment harness.
//
// The paper reports metrics "averaged over 25 experiments" with "intervals of
// confidence computed at a 95% confidence level" (§IV-B).  This module
// provides Welford running moments, Student-t 95% confidence intervals for
// small sample counts, and per-round series aggregation across repetitions.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace poly::util {

/// Single-pass running mean/variance (Welford's algorithm).
class RunningStats {
 public:
  void add(double x) noexcept;

  std::size_t count() const noexcept { return n_; }
  double mean() const noexcept { return n_ ? mean_ : 0.0; }
  /// Unbiased sample variance (0 when fewer than two samples).
  double variance() const noexcept;
  double stddev() const noexcept;
  double min() const noexcept { return n_ ? min_ : 0.0; }
  double max() const noexcept { return n_ ? max_ : 0.0; }
  /// Standard error of the mean (0 when fewer than two samples).
  double stderr_mean() const noexcept;
  /// Half-width of the 95% confidence interval around the mean, using the
  /// Student-t quantile for the actual sample count.
  double ci95_halfwidth() const noexcept;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Two-sided 95% Student-t critical value for `dof` degrees of freedom.
/// Exact table for dof <= 30, asymptotic 1.96 beyond 120, interpolated rows
/// in between — accurate to the 3 decimals customary for reporting CIs.
double student_t95(std::size_t dof) noexcept;

/// Mean of a sample (0 for an empty sample).
double mean_of(const std::vector<double>& xs) noexcept;

/// A `mean ± ci95` pair, e.g. "6.96 ± 0.083" in the paper's Table II.
struct MeanCi {
  double mean = 0.0;
  double ci95 = 0.0;
  std::size_t n = 0;

  /// Formats as "m ± c" with the requested precision.
  std::string str(int precision = 3) const;
};

/// Computes mean and 95% CI of a sample.
MeanCi mean_ci(const std::vector<double>& xs) noexcept;

/// Aggregates per-round metric series across experiment repetitions.
///
/// Usage: every repetition produces one value per round; `add_run` appends a
/// full series, `add` one value at a row; `row(r)` then yields mean ± CI
/// over the values added at row r.  Series of unequal length are
/// aggregated up to their own length.
class SeriesAggregator {
 public:
  void add_run(const std::vector<double>& series);
  void add(std::size_t row, double value);

  /// Number of rounds covered by at least one run.
  std::size_t rounds() const noexcept { return per_round_.size(); }
  MeanCi row(std::size_t round) const;
  /// All rows, convenient for table dumps.
  std::vector<MeanCi> rows() const;

 private:
  std::vector<std::vector<double>> per_round_;
};

}  // namespace poly::util
