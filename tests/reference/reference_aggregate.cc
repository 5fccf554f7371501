#include "tests/reference/reference_aggregate.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <typeinfo>
#include <vector>

#include "common/logging.h"
#include "common/stats.h"

namespace streamq {
namespace reference {

namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

/// Downcasts `other` to the type of `self`, aborting unless both have the
/// same concrete type.
template <typename T>
const T& CastOrDie(const T& self, const MergeableAggregator& other) {
  STREAMQ_CHECK(typeid(other) == typeid(self))
      << "Merge type mismatch: expected " << typeid(self).name() << ", got "
      << typeid(other).name();
  return static_cast<const T&>(other);
}

class CountAggregator : public MergeableAggregator {
 public:
  void Add(double) override { ++count_; }
  void Merge(const MergeableAggregator& other) override {
    count_ += CastOrDie(*this, other).count_;
  }
  double Value() const override { return static_cast<double>(count_); }
  int64_t count() const override { return count_; }

 private:
  int64_t count_ = 0;
};

class SumAggregator : public MergeableAggregator {
 public:
  void Add(double v) override {
    Addend(v);
    ++count_;
  }
  void Merge(const MergeableAggregator& other) override {
    const auto& o = CastOrDie(*this, other);
    Addend(o.sum_);
    count_ += o.count_;
  }
  double Value() const override { return sum_; }
  int64_t count() const override { return count_; }

 private:
  // Kahan-compensated: windows can be long-lived and values small.
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

class MomentsAggregator : public MergeableAggregator {
 public:
  explicit MomentsAggregator(AggKind kind) : kind_(kind) {}

  void Add(double v) override { moments_.Add(v); }
  void Merge(const MergeableAggregator& other) override {
    moments_.Merge(CastOrDie(*this, other).moments_);
  }
  double Value() const override {
    if (moments_.count() == 0) return kNan;
    switch (kind_) {
      case AggKind::kMean:
        return moments_.mean();
      case AggKind::kVariance:
        return moments_.variance();
      default:
        return moments_.stddev();
    }
  }
  int64_t count() const override { return moments_.count(); }

 private:
  AggKind kind_;
  RunningMoments moments_;
};

class MinMaxAggregator : public MergeableAggregator {
 public:
  explicit MinMaxAggregator(bool is_min) : is_min_(is_min) {}

  void Add(double v) override { Fold(v, 1); }
  void Merge(const MergeableAggregator& other) override {
    const auto& o = CastOrDie(*this, other);
    STREAMQ_CHECK_EQ(is_min_, o.is_min_);
    if (o.count_ > 0) Fold(o.extreme_, o.count_);
  }
  double Value() const override { return count_ > 0 ? extreme_ : kNan; }
  int64_t count() const override { return count_; }

 private:
  void Fold(double v, int64_t n) {
    if (count_ == 0) {
      extreme_ = v;
    } else {
      extreme_ = is_min_ ? std::min(extreme_, v) : std::max(extreme_, v);
    }
    count_ += n;
  }
  bool is_min_;
  double extreme_ = 0.0;
  int64_t count_ = 0;
};

/// Keeps every value; the value kinds that need them read a copy.
class ValuesAggregator : public MergeableAggregator {
 public:
  void Add(double v) override { values_.push_back(v); }
  void Merge(const MergeableAggregator& other) override {
    const auto& o = CastOrDie(*this, other);
    values_.insert(values_.end(), o.values_.begin(), o.values_.end());
  }
  int64_t count() const override {
    return static_cast<int64_t>(values_.size());
  }

 protected:
  std::vector<double> values_;
};

/// Exact quantile the plain way: copy and fully sort on each read. The
/// library's quantile aggregate keeps its values incrementally sorted, so
/// the equivalence suites check that state against a full sort instead of
/// against itself.
class CopySortQuantile final : public ValuesAggregator {
 public:
  explicit CopySortQuantile(double q) : q_(q) {}

  double Value() const override {
    return values_.empty() ? kNan : ExactQuantile(values_, q_);
  }

 private:
  double q_;
};

/// Exact distinct count by sort and unique on a copy: values equal under
/// == count once (-0 and +0 are one value), every NaN counts on its own.
class CopySortDistinct final : public ValuesAggregator {
 public:
  double Value() const override {
    std::vector<double> copy;
    std::copy_if(values_.begin(), values_.end(), std::back_inserter(copy),
                 [](double v) { return !std::isnan(v); });
    const size_t nans = values_.size() - copy.size();
    std::sort(copy.begin(), copy.end());
    const auto last = std::unique(copy.begin(), copy.end());
    return static_cast<double>(static_cast<size_t>(last - copy.begin()) +
                               nans);
  }
};

}  // namespace

std::unique_ptr<MergeableAggregator> MakeReferenceAggregator(
    const AggregateSpec& spec) {
  STREAMQ_CHECK_OK(spec.Validate());
  switch (spec.kind) {
    case AggKind::kCount:
      return std::make_unique<CountAggregator>();
    case AggKind::kSum:
      return std::make_unique<SumAggregator>();
    case AggKind::kMean:
    case AggKind::kVariance:
    case AggKind::kStdDev:
      return std::make_unique<MomentsAggregator>(spec.kind);
    case AggKind::kMin:
      return std::make_unique<MinMaxAggregator>(/*is_min=*/true);
    case AggKind::kMax:
      return std::make_unique<MinMaxAggregator>(/*is_min=*/false);
    case AggKind::kMedian:
      return std::make_unique<CopySortQuantile>(0.5);
    case AggKind::kQuantile:
      return std::make_unique<CopySortQuantile>(spec.quantile_q);
    case AggKind::kDistinctCount:
      return std::make_unique<CopySortDistinct>();
  }
  STREAMQ_LOG(Fatal) << "unknown aggregate kind";
  return nullptr;
}

}  // namespace reference
}  // namespace streamq
