#ifndef STREAMQ_AGG_AGGREGATE_STATE_H_
#define STREAMQ_AGG_AGGREGATE_STATE_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <type_traits>

#include "agg/aggregate.h"

namespace streamq {

/// Fixed-size, trivially copyable accumulator for the light ("inline")
/// aggregate kinds: count, sum, mean, min, max, variance, stddev. The
/// per-tuple fold is a handful of inlined flops — no heap allocation, no
/// virtual dispatch. Heavy kinds (median/quantile/distinct) store values and
/// stay behind the Aggregator interface: one accumulator per window, except
/// median and quantile over tiling windows, which keep one value run per
/// pane (window/window_operator.h).
///
/// Field meaning depends on the kind (the tag lives at the operator level —
/// one operator instance aggregates one kind, so states carry no tag byte):
///
///   kind               f0            f1              n
///   count              —             —               count
///   sum                Kahan sum     compensation    count
///   mean/var/stddev    Welford mean  Welford M2      count
///   min/max            extreme       —               count
///
/// This is the only production implementation of the light kinds: the
/// window operator folds these states directly, and MakeAggregator wraps
/// them for the cold paths (oracle, value-error model, session windows).
/// Equivalence contract: every fold/merge/value below matches the
/// hand-written reference aggregators (tests/reference/reference_aggregate.h)
/// operation for operation, in the same order — Kahan-compensated sum,
/// Welford update, Chan merge — so a sequence of folds produces
/// bit-identical results on either (aggregate_state_test pins this).
struct AggregateState {
  double f0 = 0.0;
  double f1 = 0.0;
  int64_t n = 0;
};
static_assert(std::is_trivially_copyable_v<AggregateState>);
static_assert(sizeof(AggregateState) == 24);

/// True for kinds whose accumulator fits AggregateState.
constexpr bool IsInlineAggKind(AggKind kind) {
  switch (kind) {
    case AggKind::kCount:
    case AggKind::kSum:
    case AggKind::kMean:
    case AggKind::kMin:
    case AggKind::kMax:
    case AggKind::kVariance:
    case AggKind::kStdDev:
      return true;
    case AggKind::kMedian:
    case AggKind::kQuantile:
    case AggKind::kDistinctCount:
      return false;
  }
  return false;
}

/// True when merging partial states is bit-identical to folding the same
/// values one at a time, for any grouping: integer counting and min/max
/// selection are grouping-insensitive; compensated sums and Welford moments
/// are not (regrouping changes rounding in the last ulps). Pane-shared
/// folding of inline states is only enabled for kinds where this holds,
/// which is what keeps the pane path byte-identical to the per-tuple path.
/// Median and quantile share panes without any merge: a window selects its
/// order statistic across the sorted runs of its panes (InterpolateRuns in
/// common/stats.h), which reads the same multiset for any grouping.
constexpr bool PaneMergeIsExact(AggKind kind) {
  switch (kind) {
    case AggKind::kCount:
    case AggKind::kMin:
    case AggKind::kMax:
      return true;
    default:
      return false;
  }
}

namespace agg_internal {
constexpr double kStateNan = std::numeric_limits<double>::quiet_NaN();
}

/// Folds one value in.
template <AggKind K>
inline void InlineFold(AggregateState& s, double v) {
  static_assert(IsInlineAggKind(K));
  if constexpr (K == AggKind::kCount) {
    (void)v;
    ++s.n;
  } else if constexpr (K == AggKind::kSum) {
    const double y = v - s.f1;
    const double t = s.f0 + y;
    s.f1 = (t - s.f0) - y;
    s.f0 = t;
    ++s.n;
  } else if constexpr (K == AggKind::kMean || K == AggKind::kVariance ||
                       K == AggKind::kStdDev) {
    ++s.n;
    const double delta = v - s.f0;
    s.f0 += delta / static_cast<double>(s.n);
    s.f1 += delta * (v - s.f0);
  } else if constexpr (K == AggKind::kMin) {
    s.f0 = (s.n == 0) ? v : std::min(s.f0, v);
    ++s.n;
  } else if constexpr (K == AggKind::kMax) {
    s.f0 = (s.n == 0) ? v : std::max(s.f0, v);
    ++s.n;
  }
}

/// Merges a partial state in (Kahan add of the partial sum, Chan et al.
/// moment combination).
template <AggKind K>
inline void InlineMerge(AggregateState& s, const AggregateState& o) {
  static_assert(IsInlineAggKind(K));
  if constexpr (K == AggKind::kCount) {
    s.n += o.n;
  } else if constexpr (K == AggKind::kSum) {
    const double y = o.f0 - s.f1;
    const double t = s.f0 + y;
    s.f1 = (t - s.f0) - y;
    s.f0 = t;
    s.n += o.n;
  } else if constexpr (K == AggKind::kMean || K == AggKind::kVariance ||
                       K == AggKind::kStdDev) {
    if (o.n == 0) return;
    if (s.n == 0) {
      s = o;
      return;
    }
    const double delta = o.f0 - s.f0;
    const auto n1 = static_cast<double>(s.n);
    const auto n2 = static_cast<double>(o.n);
    const double n = n1 + n2;
    s.f0 += delta * n2 / n;
    s.f1 += o.f1 + delta * delta * n1 * n2 / n;
    s.n += o.n;
  } else if constexpr (K == AggKind::kMin) {
    if (o.n == 0) return;
    s.f0 = (s.n == 0) ? o.f0 : std::min(s.f0, o.f0);
    s.n += o.n;
  } else if constexpr (K == AggKind::kMax) {
    if (o.n == 0) return;
    s.f0 = (s.n == 0) ? o.f0 : std::max(s.f0, o.f0);
    s.n += o.n;
  }
}

/// Current aggregate value: 0 for an empty count/sum window, NaN for the
/// other kinds.
template <AggKind K>
inline double InlineValue(const AggregateState& s) {
  static_assert(IsInlineAggKind(K));
  if constexpr (K == AggKind::kCount) {
    return static_cast<double>(s.n);
  } else if constexpr (K == AggKind::kSum) {
    return s.f0;
  } else if constexpr (K == AggKind::kMean) {
    return s.n == 0 ? agg_internal::kStateNan : s.f0;
  } else if constexpr (K == AggKind::kVariance) {
    if (s.n == 0) return agg_internal::kStateNan;
    return s.n < 2 ? 0.0 : s.f1 / static_cast<double>(s.n);
  } else if constexpr (K == AggKind::kStdDev) {
    if (s.n == 0) return agg_internal::kStateNan;
    return s.n < 2 ? 0.0 : std::sqrt(s.f1 / static_cast<double>(s.n));
  } else {  // kMin / kMax
    return s.n > 0 ? s.f0 : agg_internal::kStateNan;
  }
}

/// Runtime-dispatched variants for cold paths (late tuples, emission).
/// Same operations as the templates — one switch per call.
void InlineFoldDyn(AggKind kind, AggregateState& s, double v);
void InlineMergeDyn(AggKind kind, AggregateState& s, const AggregateState& o);
double InlineValueDyn(AggKind kind, const AggregateState& s);

}  // namespace streamq

#endif  // STREAMQ_AGG_AGGREGATE_STATE_H_
