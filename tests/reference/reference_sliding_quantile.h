#ifndef STREAMQ_TESTS_REFERENCE_REFERENCE_SLIDING_QUANTILE_H_
#define STREAMQ_TESTS_REFERENCE_REFERENCE_SLIDING_QUANTILE_H_

// Reference sliding-window quantile for differential tests: a deque of the
// last `capacity` samples, copied and run through nth_element on every
// query. Same public API and interpolation as the library's
// SlidingWindowQuantile, which must match it bit for bit. Not part of the
// library.

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

namespace streamq {
namespace reference {

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
  /// scratch buffer + nth_element).
  double Quantile(double q) const;

 private:
  size_t capacity_;
  std::deque<double> window_;
  int64_t seen_ = 0;
  /// Reused by Quantile() to avoid per-call allocation.
  mutable std::vector<double> scratch_;
};

}  // namespace reference
}  // namespace streamq

#endif  // STREAMQ_TESTS_REFERENCE_REFERENCE_SLIDING_QUANTILE_H_
