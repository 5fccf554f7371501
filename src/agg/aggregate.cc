#include "agg/aggregate.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <unordered_set>
#include <vector>

#include "common/logging.h"
#include "common/stats.h"

namespace streamq {

namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

/// Downcasts `other` to `T`, aborting on mismatch.
template <typename T>
const T& CastOrDie(const Aggregator& other, std::string_view name) {
  const T* cast = dynamic_cast<const T*>(&other);
  STREAMQ_CHECK(cast != nullptr)
      << "Merge type mismatch: expected " << name << ", got " << other.name();
  return *cast;
}

class CountAggregator : public Aggregator {
 public:
  void Add(double) override { ++count_; }
  void Merge(const Aggregator& other) override {
    count_ += CastOrDie<CountAggregator>(other, name()).count_;
  }
  double Value() const override { return static_cast<double>(count_); }
  int64_t count() const override { return count_; }
  std::unique_ptr<Aggregator> MakeEmpty() const override {
    return std::make_unique<CountAggregator>();
  }
  std::string_view name() const override { return "count"; }

 private:
  int64_t count_ = 0;
};

class SumAggregator : public Aggregator {
 public:
  void Add(double v) override {
    // Kahan-compensated sum: windows can be long-lived and values small.
    const double y = v - compensation_;
    const double t = sum_ + y;
    compensation_ = (t - sum_) - y;
    sum_ = t;
    ++count_;
  }
  void Merge(const Aggregator& other) override {
    const auto& o = CastOrDie<SumAggregator>(other, name());
    Addend(o.sum_);
    count_ += o.count_;
  }
  double Value() const override { return sum_; }
  int64_t count() const override { return count_; }
  std::unique_ptr<Aggregator> MakeEmpty() const override {
    return std::make_unique<SumAggregator>();
  }
  std::string_view name() const override { return "sum"; }

 private:
  void Addend(double v) {
    const double y = v - compensation_;
    const double t = sum_ + y;
    compensation_ = (t - sum_) - y;
    sum_ = t;
  }
  double sum_ = 0.0;
  double compensation_ = 0.0;
  int64_t count_ = 0;
};

class MomentsAggregator : public Aggregator {
 public:
  enum class Stat { kMean, kVariance, kStdDev };
  explicit MomentsAggregator(Stat stat) : stat_(stat) {}

  void Add(double v) override { moments_.Add(v); }
  void Merge(const Aggregator& other) override {
    moments_.Merge(CastOrDie<MomentsAggregator>(other, name()).moments_);
  }
  double Value() const override {
    if (moments_.count() == 0) return kNan;
    switch (stat_) {
      case Stat::kMean:
        return moments_.mean();
      case Stat::kVariance:
        return moments_.variance();
      case Stat::kStdDev:
        return moments_.stddev();
    }
    return kNan;
  }
  int64_t count() const override { return moments_.count(); }
  std::unique_ptr<Aggregator> MakeEmpty() const override {
    return std::make_unique<MomentsAggregator>(stat_);
  }
  std::string_view name() const override {
    switch (stat_) {
      case Stat::kMean:
        return "mean";
      case Stat::kVariance:
        return "variance";
      case Stat::kStdDev:
        return "stddev";
    }
    return "?";
  }

 private:
  Stat stat_;
  RunningMoments moments_;
};

class MinMaxAggregator : public Aggregator {
 public:
  explicit MinMaxAggregator(bool is_min) : is_min_(is_min) {}

  void Add(double v) override {
    if (count_ == 0) {
      extreme_ = v;
    } else {
      extreme_ = is_min_ ? std::min(extreme_, v) : std::max(extreme_, v);
    }
    ++count_;
  }
  void Merge(const Aggregator& other) override {
    const auto& o = CastOrDie<MinMaxAggregator>(other, name());
    STREAMQ_CHECK_EQ(is_min_, o.is_min_);
    if (o.count_ == 0) return;
    if (count_ == 0) {
      extreme_ = o.extreme_;
    } else {
      extreme_ =
          is_min_ ? std::min(extreme_, o.extreme_) : std::max(extreme_, o.extreme_);
    }
    count_ += o.count_;
  }
  double Value() const override { return count_ > 0 ? extreme_ : kNan; }
  int64_t count() const override { return count_; }
  std::unique_ptr<Aggregator> MakeEmpty() const override {
    return std::make_unique<MinMaxAggregator>(is_min_);
  }
  std::string_view name() const override { return is_min_ ? "min" : "max"; }

 private:
  bool is_min_;
  double extreme_ = 0.0;
  int64_t count_ = 0;
};

class DistinctCountAggregator : public Aggregator {
 public:
  void Add(double v) override {
    ++count_;
    seen_.insert(v);
  }
  void Merge(const Aggregator& other) override {
    const auto& o = CastOrDie<DistinctCountAggregator>(other, name());
    seen_.insert(o.seen_.begin(), o.seen_.end());
    count_ += o.count_;
  }
  double Value() const override { return static_cast<double>(seen_.size()); }
  int64_t count() const override { return count_; }
  std::unique_ptr<Aggregator> MakeEmpty() const override {
    return std::make_unique<DistinctCountAggregator>();
  }
  std::string_view name() const override { return "distinct"; }

 private:
  std::unordered_set<double> seen_;
  int64_t count_ = 0;
};

}  // namespace

void QuantileAggregator::Merge(const Aggregator& other) {
  const auto& o = CastOrDie<QuantileAggregator>(other, name());
  values_.insert(values_.end(), o.values_.begin(), o.values_.end());
}

std::span<const double> QuantileAggregator::Sorted() const {
  const auto tail = values_.begin() + static_cast<ptrdiff_t>(sorted_);
  std::sort(tail, values_.end());
  std::inplace_merge(values_.begin(), tail, values_.end());
  sorted_ = values_.size();
  return values_;
}

double QuantileAggregator::Value() const {
  if (values_.empty()) return kNan;
  return InterpolateSorted(Sorted(), q_);
}

std::unique_ptr<Aggregator> QuantileAggregator::MakeEmpty() const {
  return std::make_unique<QuantileAggregator>(q_);
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
      return std::make_unique<CountAggregator>();
    case AggKind::kSum:
      return std::make_unique<SumAggregator>();
    case AggKind::kMean:
      return std::make_unique<MomentsAggregator>(
          MomentsAggregator::Stat::kMean);
    case AggKind::kMin:
      return std::make_unique<MinMaxAggregator>(/*is_min=*/true);
    case AggKind::kMax:
      return std::make_unique<MinMaxAggregator>(/*is_min=*/false);
    case AggKind::kVariance:
      return std::make_unique<MomentsAggregator>(
          MomentsAggregator::Stat::kVariance);
    case AggKind::kStdDev:
      return std::make_unique<MomentsAggregator>(
          MomentsAggregator::Stat::kStdDev);
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
