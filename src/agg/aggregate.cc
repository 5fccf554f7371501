#include "agg/aggregate.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <unordered_set>

#include "agg/aggregate_state.h"
#include "common/logging.h"
#include "common/stats.h"

namespace streamq {

namespace {

/// A light kind's accumulator: the window operator's inline state and
/// fold behind the Aggregator interface.
template <AggKind K>
class InlineAggregator final : public Aggregator {
 public:
  void Add(double v) override { InlineFold<K>(state_, v); }
  double Value() const override { return InlineValue<K>(state_); }
  int64_t count() const override { return state_.n; }

 private:
  AggregateState state_;
};

/// Exact distinct count: values equal under == count once (so -0 and +0
/// are one value, and every NaN is a value of its own).
class DistinctCountAggregator final : public Aggregator {
 public:
  void Add(double v) override {
    ++count_;
    seen_.insert(v);
  }
  double Value() const override { return static_cast<double>(seen_.size()); }
  int64_t count() const override { return count_; }

 private:
  std::unordered_set<double> seen_;
  int64_t count_ = 0;
};

}  // namespace

std::span<const double> QuantileAggregator::Sorted() const {
  const auto tail = values_.begin() + static_cast<ptrdiff_t>(sorted_);
  std::sort(tail, values_.end());
  std::inplace_merge(values_.begin(), tail, values_.end());
  sorted_ = values_.size();
  return values_;
}

double QuantileAggregator::Value() const {
  if (values_.empty()) return std::numeric_limits<double>::quiet_NaN();
  return InterpolateSorted(Sorted(), q_);
}

std::string AggregateSpec::Describe() const {
  switch (kind) {
    case AggKind::kCount:
      return "count";
    case AggKind::kSum:
      return "sum";
    case AggKind::kMean:
      return "mean";
    case AggKind::kMin:
      return "min";
    case AggKind::kMax:
      return "max";
    case AggKind::kVariance:
      return "variance";
    case AggKind::kStdDev:
      return "stddev";
    case AggKind::kMedian:
      return "median";
    case AggKind::kQuantile: {
      char buf[48];
      std::snprintf(buf, sizeof(buf), "quantile(%.2f)", quantile_q);
      return buf;
    }
    case AggKind::kDistinctCount:
      return "distinct";
  }
  return "?";
}

Status AggregateSpec::Validate() const {
  if (kind == AggKind::kQuantile &&
      (quantile_q <= 0.0 || quantile_q >= 1.0)) {
    return Status::InvalidArgument("quantile_q must be in (0, 1)");
  }
  return Status::OK();
}

Result<AggregateSpec> ParseAggregateSpec(const std::string& text) {
  AggregateSpec spec;
  if (text == "count") {
    spec.kind = AggKind::kCount;
  } else if (text == "sum") {
    spec.kind = AggKind::kSum;
  } else if (text == "mean" || text == "avg") {
    spec.kind = AggKind::kMean;
  } else if (text == "min") {
    spec.kind = AggKind::kMin;
  } else if (text == "max") {
    spec.kind = AggKind::kMax;
  } else if (text == "variance" || text == "var") {
    spec.kind = AggKind::kVariance;
  } else if (text == "stddev") {
    spec.kind = AggKind::kStdDev;
  } else if (text == "median") {
    spec.kind = AggKind::kMedian;
  } else if (text == "distinct") {
    spec.kind = AggKind::kDistinctCount;
  } else if (text.rfind("quantile:", 0) == 0) {
    spec.kind = AggKind::kQuantile;
    const std::string qs = text.substr(9);
    char* end = nullptr;
    spec.quantile_q = std::strtod(qs.c_str(), &end);
    if (end != qs.c_str() + qs.size() || qs.empty()) {
      return Status::InvalidArgument("bad quantile in aggregate spec: " + text);
    }
    STREAMQ_RETURN_NOT_OK(spec.Validate());
  } else {
    return Status::InvalidArgument("unknown aggregate: " + text);
  }
  return spec;
}

std::unique_ptr<Aggregator> MakeAggregator(const AggregateSpec& spec) {
  STREAMQ_CHECK_OK(spec.Validate());
  switch (spec.kind) {
    case AggKind::kCount:
      return std::make_unique<InlineAggregator<AggKind::kCount>>();
    case AggKind::kSum:
      return std::make_unique<InlineAggregator<AggKind::kSum>>();
    case AggKind::kMean:
      return std::make_unique<InlineAggregator<AggKind::kMean>>();
    case AggKind::kMin:
      return std::make_unique<InlineAggregator<AggKind::kMin>>();
    case AggKind::kMax:
      return std::make_unique<InlineAggregator<AggKind::kMax>>();
    case AggKind::kVariance:
      return std::make_unique<InlineAggregator<AggKind::kVariance>>();
    case AggKind::kStdDev:
      return std::make_unique<InlineAggregator<AggKind::kStdDev>>();
    case AggKind::kMedian:
      return std::make_unique<QuantileAggregator>(0.5);
    case AggKind::kQuantile:
      return std::make_unique<QuantileAggregator>(spec.quantile_q);
    case AggKind::kDistinctCount:
      return std::make_unique<DistinctCountAggregator>();
  }
  STREAMQ_LOG(Fatal) << "unknown aggregate kind";
  return nullptr;
}

double DefaultQualityGamma(AggKind kind) {
  switch (kind) {
    case AggKind::kCount:
    case AggKind::kSum:
      return 1.0;
    case AggKind::kMean:
      return 0.7;  // Sampling error shrinks with coverage faster than mass.
    case AggKind::kMin:
    case AggKind::kMax:
      return 0.3;  // Extremes survive missing tuples with high probability.
    case AggKind::kVariance:
    case AggKind::kStdDev:
      return 0.8;
    case AggKind::kMedian:
    case AggKind::kQuantile:
      return 0.5;
    case AggKind::kDistinctCount:
      return 0.9;
  }
  return 1.0;
}

}  // namespace streamq
