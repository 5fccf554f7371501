#include "tests/reference/reference_sliding_quantile.h"

#include <algorithm>

#include "common/logging.h"

namespace streamq {
namespace reference {

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

}  // namespace reference
}  // namespace streamq
