#ifndef STREAMQ_TESTS_REFERENCE_REFERENCE_AGGREGATE_H_
#define STREAMQ_TESTS_REFERENCE_REFERENCE_AGGREGATE_H_

// Reference aggregate accumulators for equivalence tests: one hand-written
// class per aggregate family, each mergeable. Count, sum (Kahan), the
// moments (Welford over RunningMoments, Chan merge) and min/max are written
// out independently of the library's AggregateState; median, quantile and
// distinct keep every value and sort a copy on each read. The library's
// accumulators and window engines are pinned bit for bit against these.
// Not part of the library.

#include <memory>

#include "agg/aggregate.h"

namespace streamq {
namespace reference {

/// An Aggregator that can also absorb a partial of its own concrete type.
class MergeableAggregator : public Aggregator {
 public:
  /// Merges another accumulator of the same concrete type; aborts with
  /// "Merge type mismatch" otherwise (programming error).
  virtual void Merge(const MergeableAggregator& other) = 0;
};

/// Reference accumulator for `spec`. Aborts on an invalid spec.
std::unique_ptr<MergeableAggregator> MakeReferenceAggregator(
    const AggregateSpec& spec);

}  // namespace reference
}  // namespace streamq

#endif  // STREAMQ_TESTS_REFERENCE_REFERENCE_AGGREGATE_H_
