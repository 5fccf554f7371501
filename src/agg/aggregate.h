#ifndef STREAMQ_AGG_AGGREGATE_H_
#define STREAMQ_AGG_AGGREGATE_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"

namespace streamq {

/// Aggregate functions computable over a window of values.
enum class AggKind {
  kCount,
  kSum,
  kMean,
  kMin,
  kMax,
  kVariance,  // Population variance.
  kStdDev,
  kMedian,
  kQuantile,       // Arbitrary q, exact (stores values).
  kDistinctCount,  // Exact distinct count of values (equal under ==).
};

/// Parameterized aggregate selection.
struct AggregateSpec {
  AggKind kind = AggKind::kSum;
  /// For kQuantile: the quantile in (0, 1).
  double quantile_q = 0.5;

  /// "sum", "quantile(0.90)", ...
  std::string Describe() const;

  Status Validate() const;
};

/// Parses "count", "sum", "mean"/"avg", "min", "max", "variance"/"var",
/// "stddev", "median", "quantile:<q>" (e.g. "quantile:0.9"), "distinct".
Result<AggregateSpec> ParseAggregateSpec(const std::string& text);

/// Incremental accumulator for one window instance: the cold-path face of
/// an aggregate (oracle, value-error model, session windows, heavy window
/// slots). The window operator folds the light kinds straight into
/// AggregateState (agg/aggregate_state.h); MakeAggregator wraps the same
/// state, so both paths run one implementation.
class Aggregator {
 public:
  virtual ~Aggregator() = default;

  /// Folds one value in.
  virtual void Add(double v) = 0;

  /// Current aggregate value. Result for an empty window is
  /// aggregate-specific (0 for count/sum/distinct, NaN otherwise).
  virtual double Value() const = 0;

  /// Number of values folded in.
  virtual int64_t count() const = 0;
};

/// Exact quantile over every folded value (the median and quantile kinds).
/// values_[0, sorted_) is kept ascending and Add appends to an unsorted
/// tail; Sorted() sorts only the tail and merges it in place, so a read
/// after k new values costs O(k log k + n) instead of a copy and a full
/// sort. The window operator also keeps one of these per pane and reads
/// Sorted() as that pane's run (window/window_operator.h), and the first
/// pane of a window keeps that window's selection hint.
class QuantileAggregator final : public Aggregator {
 public:
  explicit QuantileAggregator(double q) : q_(q) {}

  void Add(double v) override { values_.push_back(v); }
  double Value() const override;
  int64_t count() const override {
    return static_cast<int64_t>(values_.size());
  }

  /// Every folded value, ascending. Valid until the next Add.
  std::span<const double> Sorted() const;

  /// The value the window starting at this pane last selected across its
  /// panes' runs (InterpolateRuns' hint); NaN before its first emission.
  double selection_hint() const { return selection_hint_; }
  void set_selection_hint(double v) { selection_hint_ = v; }

 private:
  double q_;
  double selection_hint_ = std::numeric_limits<double>::quiet_NaN();
  // Sorted() sorts behind the const interface; every accumulator has a
  // single owner, so no reader races the in-place sort.
  mutable std::vector<double> values_;
  mutable size_t sorted_ = 0;
};

/// Instantiates an accumulator. Aborts on invalid spec (Validate() first
/// for recoverable handling).
std::unique_ptr<Aggregator> MakeAggregator(const AggregateSpec& spec);

/// Default quality-model exponent (see PowerQualityModel) for each
/// aggregate: how sharply missing tuples translate into result error.
/// Order-statistics aggregates (min/max/quantile) are robust (gamma < 1);
/// mass aggregates (count/sum) are proportional (gamma = 1); spread
/// aggregates are slightly amplifying. These defaults are starting points —
/// quality/value_error_model.h fits gamma per workload.
double DefaultQualityGamma(AggKind kind);

}  // namespace streamq

#endif  // STREAMQ_AGG_AGGREGATE_H_
