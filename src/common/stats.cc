#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/logging.h"

namespace streamq {

void RunningMoments::Add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void RunningMoments::Merge(const RunningMoments& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const auto n1 = static_cast<double>(count_);
  const auto n2 = static_cast<double>(other.count_);
  const double n = n1 + n2;
  mean_ += delta * n2 / n;
  m2_ += other.m2_ + delta * delta * n1 * n2 / n;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void RunningMoments::Reset() { *this = RunningMoments(); }

double RunningMoments::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_);
}

double RunningMoments::stddev() const { return std::sqrt(variance()); }

ReservoirSample::ReservoirSample(size_t capacity, uint64_t seed)
    : capacity_(capacity), rng_(seed) {
  STREAMQ_CHECK_GT(capacity, 0u);
  samples_.reserve(capacity);
}

void ReservoirSample::Add(double x) {
  ++seen_;
  if (samples_.size() < capacity_) {
    samples_.push_back(x);
    return;
  }
  const int64_t j = rng_.NextInt(0, seen_ - 1);
  if (j < static_cast<int64_t>(capacity_)) {
    samples_[static_cast<size_t>(j)] = x;
  }
}

void ReservoirSample::Reset() {
  seen_ = 0;
  samples_.clear();
}

double ReservoirSample::Quantile(double q) const {
  if (samples_.empty()) return 0.0;
  return ExactQuantile(samples_, q);
}

P2Quantile::P2Quantile(double q) : q_(q) {
  STREAMQ_CHECK_GT(q, 0.0);
  STREAMQ_CHECK_LT(q, 1.0);
  Reset();
}

void P2Quantile::Reset() {
  count_ = 0;
  for (int i = 0; i < 5; ++i) {
    heights_[i] = 0.0;
    positions_[i] = static_cast<double>(i + 1);
  }
  desired_[0] = 1.0;
  desired_[1] = 1.0 + 2.0 * q_;
  desired_[2] = 1.0 + 4.0 * q_;
  desired_[3] = 3.0 + 2.0 * q_;
  desired_[4] = 5.0;
  increments_[0] = 0.0;
  increments_[1] = q_ / 2.0;
  increments_[2] = q_;
  increments_[3] = (1.0 + q_) / 2.0;
  increments_[4] = 1.0;
}

void P2Quantile::Add(double x) {
  if (count_ < 5) {
    heights_[count_++] = x;
    if (count_ == 5) std::sort(heights_, heights_ + 5);
    return;
  }
  ++count_;

  int k;
  if (x < heights_[0]) {
    heights_[0] = x;
    k = 0;
  } else if (x >= heights_[4]) {
    heights_[4] = x;
    k = 3;
  } else {
    k = 0;
    while (k < 3 && x >= heights_[k + 1]) ++k;
  }

  for (int i = k + 1; i < 5; ++i) positions_[i] += 1.0;
  for (int i = 0; i < 5; ++i) desired_[i] += increments_[i];

  // Adjust the three middle markers with parabolic interpolation.
  for (int i = 1; i <= 3; ++i) {
    const double d = desired_[i] - positions_[i];
    const double below = positions_[i] - positions_[i - 1];
    const double above = positions_[i + 1] - positions_[i];
    if ((d >= 1.0 && above > 1.0) || (d <= -1.0 && below > 1.0)) {
      const double sign = d >= 0 ? 1.0 : -1.0;
      // Parabolic (P²) candidate.
      const double hp =
          heights_[i] +
          sign / (positions_[i + 1] - positions_[i - 1]) *
              ((below + sign) * (heights_[i + 1] - heights_[i]) / above +
               (above - sign) * (heights_[i] - heights_[i - 1]) / below);
      if (heights_[i - 1] < hp && hp < heights_[i + 1]) {
        heights_[i] = hp;
      } else {
        // Linear fallback.
        const int j = i + static_cast<int>(sign);
        heights_[i] += sign * (heights_[j] - heights_[i]) /
                       (positions_[j] - positions_[i]);
      }
      positions_[i] += sign;
    }
  }
}

double P2Quantile::value() const {
  if (count_ == 0) return 0.0;
  if (count_ < 5) {
    // Exact quantile over the few samples seen so far.
    std::vector<double> v(heights_, heights_ + count_);
    return ExactQuantile(std::move(v), q_);
  }
  return heights_[2];
}

SlidingWindowQuantile::SlidingWindowQuantile(size_t capacity)
    : capacity_(capacity) {
  STREAMQ_CHECK_GT(capacity, 0u);
}

void SlidingWindowQuantile::Add(double x) {
  ++seen_;
  window_.push_back(x);
  if (window_.size() > capacity_) window_.pop_front();
}

void SlidingWindowQuantile::Reset() {
  window_.clear();
  seen_ = 0;
}

double SlidingWindowQuantile::Quantile(double q) const {
  if (window_.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  scratch_.assign(window_.begin(), window_.end());
  const double pos = q * static_cast<double>(scratch_.size() - 1);
  const auto i = static_cast<size_t>(pos);
  const double frac = pos - static_cast<double>(i);
  auto nth = scratch_.begin() + static_cast<ptrdiff_t>(i);
  std::nth_element(scratch_.begin(), nth, scratch_.end());
  const double a = *nth;
  if (frac <= 0.0 || i + 1 >= scratch_.size()) return a;
  // nth_element leaves everything after `nth` >= a; the next order
  // statistic is the minimum of that suffix.
  const double b = *std::min_element(nth + 1, scratch_.end());
  return a * (1.0 - frac) + b * frac;
}

std::string DistributionSummary::ToString() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "n=%lld mean=%.2f sd=%.2f min=%.2f p50=%.2f p90=%.2f "
                "p95=%.2f p99=%.2f max=%.2f",
                static_cast<long long>(count), mean, stddev, min, p50, p90,
                p95, p99, max);
  return buf;
}

DistributionSummary Summarize(const std::vector<double>& values) {
  DistributionSummary s;
  if (values.empty()) return s;
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  RunningMoments m;
  for (double v : sorted) m.Add(v);
  s.count = m.count();
  s.mean = m.mean();
  s.stddev = m.stddev();
  s.min = sorted.front();
  s.max = sorted.back();
  s.p50 = InterpolateSorted(sorted, 0.50);
  s.p90 = InterpolateSorted(sorted, 0.90);
  s.p95 = InterpolateSorted(sorted, 0.95);
  s.p99 = InterpolateSorted(sorted, 0.99);
  return s;
}

double ExactQuantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  return InterpolateSorted(values, std::clamp(q, 0.0, 1.0));
}

namespace {

/// sorted[j], except that inside the run of zeros the sign is the one the
/// order "every -0 before every +0" puts at j.
double CanonicalAt(std::span<const double> sorted, size_t j) {
  if (sorted[j] != 0.0) return sorted[j];
  const auto [lo, hi] = std::equal_range(sorted.begin(), sorted.end(), 0.0);
  const auto negative = std::count_if(
      lo, hi, [](double z) { return std::signbit(z); });
  return static_cast<ptrdiff_t>(j) - (lo - sorted.begin()) < negative ? -0.0
                                                                      : 0.0;
}

}  // namespace

double InterpolateSorted(std::span<const double> sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto i = static_cast<size_t>(pos);
  const double frac = pos - static_cast<double>(i);
  if (i + 1 >= sorted.size()) return CanonicalAt(sorted, sorted.size() - 1);
  return CanonicalAt(sorted, i) * (1.0 - frac) +
         CanonicalAt(sorted, i + 1) * frac;
}

}  // namespace streamq
