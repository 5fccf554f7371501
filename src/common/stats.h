#ifndef STREAMQ_COMMON_STATS_H_
#define STREAMQ_COMMON_STATS_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"

namespace streamq {

/// Welford's online mean/variance accumulator.
class RunningMoments {
 public:
  void Add(double x);

  /// Merges another accumulator (parallel-friendly Chan et al. update).
  void Merge(const RunningMoments& other);

  void Reset();

  int64_t count() const { return count_; }
  double mean() const { return count_ > 0 ? mean_ : 0.0; }
  /// Population variance. Zero for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }
  double sum() const { return mean_ * static_cast<double>(count_); }

 private:
  int64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Fixed-capacity uniform reservoir sample (Vitter's algorithm R).
class ReservoirSample {
 public:
  ReservoirSample(size_t capacity, uint64_t seed);

  void Add(double x);
  void Reset();

  int64_t seen() const { return seen_; }
  const std::vector<double>& samples() const { return samples_; }

  /// Empirical quantile of the reservoir, q in [0, 1]. Returns 0 if empty.
  double Quantile(double q) const;

 private:
  size_t capacity_;
  Rng rng_;
  int64_t seen_ = 0;
  std::vector<double> samples_;
};

/// P² (Jain & Chlamtac) single-quantile streaming estimator: O(1) space,
/// no samples retained. Used where memory matters more than exactness.
class P2Quantile {
 public:
  /// `q` in (0, 1), e.g. 0.95.
  explicit P2Quantile(double q);

  void Add(double x);
  void Reset();

  int64_t count() const { return count_; }
  /// Current estimate; exact while count < 5.
  double value() const;

 private:
  double q_;
  int64_t count_ = 0;
  double heights_[5];
  double positions_[5];
  double desired_[5];
  double increments_[5];
};

/// Sliding-window quantile tracker over the last `capacity` samples.
/// Maintains a ring buffer plus an order-statistics-on-demand query.
/// This is the delay sketch the quality-driven buffer interrogates; window
/// semantics (recent samples only) are what let it follow non-stationary
/// delay distributions.
class SlidingWindowQuantile {
 public:
  explicit SlidingWindowQuantile(size_t capacity);

  void Add(double x);
  void Reset();

  size_t size() const { return window_.size(); }
  size_t capacity() const { return capacity_; }
  int64_t seen() const { return seen_; }

  /// Empirical quantile of the current window, q in [0, 1].
  /// Returns 0 if the window is empty. O(n) per call (copy into a reused
  /// scratch buffer + nth_element); callers query at control-loop cadence,
  /// not per tuple.
  double Quantile(double q) const;

 private:
  size_t capacity_;
  std::deque<double> window_;
  int64_t seen_ = 0;
  /// Reused by Quantile() to avoid per-call allocation.
  mutable std::vector<double> scratch_;
};

/// Summary of a latency/error series for report tables.
struct DistributionSummary {
  int64_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double max = 0.0;

  std::string ToString() const;
};

/// Computes exact percentiles from a full sample vector (sorts a copy).
DistributionSummary Summarize(const std::vector<double>& values);

/// Exact quantile of a sample vector (sorts a copy). q in [0, 1].
double ExactQuantile(std::vector<double> values, double q);

/// Linearly interpolated q-quantile of an ascending range, q in [0, 1] (the
/// formula ExactQuantile, Summarize and the quantile aggregate share).
/// A sort leaves -0 and +0 in no particular order; they are read as if
/// every -0 came first, so the result depends on the values alone, not on
/// how the range was sorted. Returns 0 for an empty range.
double InterpolateSorted(std::span<const double> sorted, double q);

}  // namespace streamq

#endif  // STREAMQ_COMMON_STATS_H_
