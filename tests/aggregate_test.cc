#include "agg/aggregate.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "tests/reference/reference_aggregate.h"

namespace streamq {
namespace {

std::vector<double> TestValues() {
  return {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
}

AggregateSpec Spec(AggKind kind, double q = 0.5) {
  AggregateSpec spec;
  spec.kind = kind;
  spec.quantile_q = q;
  return spec;
}

std::unique_ptr<Aggregator> Make(AggKind kind, double q = 0.5) {
  return MakeAggregator(Spec(kind, q));
}

// Merge is a property of the reference accumulators only: production code
// never merges Aggregators (the window operator merges AggregateStates).
std::unique_ptr<reference::MergeableAggregator> MakeReference(AggKind kind) {
  return reference::MakeReferenceAggregator(Spec(kind));
}

TEST(AggregateTest, Count) {
  auto agg = Make(AggKind::kCount);
  for (double v : TestValues()) agg->Add(v);
  EXPECT_DOUBLE_EQ(agg->Value(), 8.0);
  EXPECT_EQ(agg->count(), 8);
  EXPECT_EQ(Spec(AggKind::kCount).Describe(), "count");
}

TEST(AggregateTest, Sum) {
  auto agg = Make(AggKind::kSum);
  for (double v : TestValues()) agg->Add(v);
  EXPECT_DOUBLE_EQ(agg->Value(), 40.0);
}

TEST(AggregateTest, SumIsCompensated) {
  // Kahan summation: adding many tiny values to a huge one must not lose
  // them all.
  auto agg = Make(AggKind::kSum);
  agg->Add(1e16);
  for (int i = 0; i < 10000; ++i) agg->Add(1.0);
  EXPECT_DOUBLE_EQ(agg->Value(), 1e16 + 10000.0);
}

TEST(AggregateTest, Mean) {
  auto agg = Make(AggKind::kMean);
  for (double v : TestValues()) agg->Add(v);
  EXPECT_DOUBLE_EQ(agg->Value(), 5.0);
}

TEST(AggregateTest, MinMax) {
  auto mn = Make(AggKind::kMin);
  auto mx = Make(AggKind::kMax);
  for (double v : TestValues()) {
    mn->Add(v);
    mx->Add(v);
  }
  EXPECT_DOUBLE_EQ(mn->Value(), 2.0);
  EXPECT_DOUBLE_EQ(mx->Value(), 9.0);
}

TEST(AggregateTest, VarianceAndStdDev) {
  auto var = Make(AggKind::kVariance);
  auto sd = Make(AggKind::kStdDev);
  for (double v : TestValues()) {
    var->Add(v);
    sd->Add(v);
  }
  EXPECT_DOUBLE_EQ(var->Value(), 4.0);
  EXPECT_DOUBLE_EQ(sd->Value(), 2.0);
}

TEST(AggregateTest, Median) {
  auto agg = Make(AggKind::kMedian);
  for (double v : TestValues()) agg->Add(v);
  EXPECT_DOUBLE_EQ(agg->Value(), 4.5);
  EXPECT_EQ(Spec(AggKind::kMedian).Describe(), "median");
}

TEST(AggregateTest, Quantile) {
  auto agg = Make(AggKind::kQuantile, 0.25);
  for (double v : TestValues()) agg->Add(v);
  EXPECT_DOUBLE_EQ(agg->Value(), 4.0);
  EXPECT_EQ(Spec(AggKind::kQuantile, 0.25).Describe(), "quantile(0.25)");
}

TEST(AggregateTest, DistinctCount) {
  auto agg = Make(AggKind::kDistinctCount);
  for (double v : TestValues()) agg->Add(v);
  EXPECT_DOUBLE_EQ(agg->Value(), 5.0);  // {2, 4, 5, 7, 9}.
  EXPECT_EQ(agg->count(), 8);
}

// What an empty window's Value() must be. An int-sized enum rather than a
// bool: EmptyCase then has no padding bytes, and gtest (which names each case
// by dumping its bytes) would otherwise put stack garbage into the test name.
enum class EmptyValue : int32_t { kNumber, kNaN };

struct EmptyCase {
  AggKind kind;
  EmptyValue expect;
  double value_if_not_nan;
};
static_assert(sizeof(EmptyCase) ==
                  sizeof(AggKind) + sizeof(EmptyValue) + sizeof(double),
              "EmptyCase must have no padding");

class EmptyAggregateTest : public ::testing::TestWithParam<EmptyCase> {};

TEST_P(EmptyAggregateTest, EmptyWindowValue) {
  auto agg = Make(GetParam().kind);
  EXPECT_EQ(agg->count(), 0);
  if (GetParam().expect == EmptyValue::kNaN) {
    EXPECT_TRUE(std::isnan(agg->Value()));
  } else {
    EXPECT_DOUBLE_EQ(agg->Value(), GetParam().value_if_not_nan);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, EmptyAggregateTest,
    ::testing::Values(EmptyCase{AggKind::kCount, EmptyValue::kNumber, 0.0},
                      EmptyCase{AggKind::kSum, EmptyValue::kNumber, 0.0},
                      EmptyCase{AggKind::kMean, EmptyValue::kNaN, 0.0},
                      EmptyCase{AggKind::kMin, EmptyValue::kNaN, 0.0},
                      EmptyCase{AggKind::kMax, EmptyValue::kNaN, 0.0},
                      EmptyCase{AggKind::kVariance, EmptyValue::kNaN, 0.0},
                      EmptyCase{AggKind::kMedian, EmptyValue::kNaN, 0.0},
                      EmptyCase{AggKind::kDistinctCount, EmptyValue::kNumber,
                                0.0}));

class MergeAggregateTest : public ::testing::TestWithParam<AggKind> {};

TEST_P(MergeAggregateTest, MergeEqualsSingleStream) {
  // Property: splitting a stream arbitrarily and merging accumulators gives
  // the same value as one accumulator over the whole stream.
  Rng rng(91);
  for (int trial = 0; trial < 10; ++trial) {
    auto whole = MakeReference(GetParam());
    auto left = MakeReference(GetParam());
    auto right = MakeReference(GetParam());
    const int n = static_cast<int>(rng.NextInt(1, 200));
    const int split = static_cast<int>(rng.NextInt(0, n));
    for (int i = 0; i < n; ++i) {
      const double v = rng.NextUniform(-10.0, 10.0);
      whole->Add(v);
      (i < split ? left : right)->Add(v);
    }
    left->Merge(*right);
    EXPECT_NEAR(left->Value(), whole->Value(), 1e-9)
        << "kind=" << static_cast<int>(GetParam()) << " trial=" << trial;
    EXPECT_EQ(left->count(), whole->count());
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, MergeAggregateTest,
                         ::testing::Values(AggKind::kCount, AggKind::kSum,
                                           AggKind::kMean, AggKind::kMin,
                                           AggKind::kMax, AggKind::kVariance,
                                           AggKind::kStdDev, AggKind::kMedian,
                                           AggKind::kDistinctCount));

TEST(MergeAggregateTest, MergeEmptySides) {
  auto a = MakeReference(AggKind::kMin);
  auto b = MakeReference(AggKind::kMin);
  a->Add(5.0);
  a->Merge(*b);  // Empty rhs: no-op.
  EXPECT_DOUBLE_EQ(a->Value(), 5.0);
  b->Merge(*a);  // Empty lhs adopts rhs.
  EXPECT_DOUBLE_EQ(b->Value(), 5.0);
}

TEST(MergeAggregateTest, TypeMismatchAborts) {
  auto sum = MakeReference(AggKind::kSum);
  auto cnt = MakeReference(AggKind::kCount);
  EXPECT_DEATH(sum->Merge(*cnt), "Merge type mismatch");
}

TEST(AggregateSpecTest, Describe) {
  AggregateSpec spec;
  spec.kind = AggKind::kQuantile;
  spec.quantile_q = 0.9;
  EXPECT_EQ(spec.Describe(), "quantile(0.90)");
  spec.kind = AggKind::kSum;
  EXPECT_EQ(spec.Describe(), "sum");
}

TEST(AggregateSpecTest, Validation) {
  AggregateSpec spec;
  spec.kind = AggKind::kQuantile;
  spec.quantile_q = 0.0;
  EXPECT_FALSE(spec.Validate().ok());
  spec.quantile_q = 1.0;
  EXPECT_FALSE(spec.Validate().ok());
  spec.quantile_q = 0.5;
  EXPECT_TRUE(spec.Validate().ok());
}

TEST(ParseAggregateSpecTest, AllNames) {
  EXPECT_EQ(ParseAggregateSpec("count").value().kind, AggKind::kCount);
  EXPECT_EQ(ParseAggregateSpec("sum").value().kind, AggKind::kSum);
  EXPECT_EQ(ParseAggregateSpec("mean").value().kind, AggKind::kMean);
  EXPECT_EQ(ParseAggregateSpec("avg").value().kind, AggKind::kMean);
  EXPECT_EQ(ParseAggregateSpec("min").value().kind, AggKind::kMin);
  EXPECT_EQ(ParseAggregateSpec("max").value().kind, AggKind::kMax);
  EXPECT_EQ(ParseAggregateSpec("variance").value().kind, AggKind::kVariance);
  EXPECT_EQ(ParseAggregateSpec("var").value().kind, AggKind::kVariance);
  EXPECT_EQ(ParseAggregateSpec("stddev").value().kind, AggKind::kStdDev);
  EXPECT_EQ(ParseAggregateSpec("median").value().kind, AggKind::kMedian);
  EXPECT_EQ(ParseAggregateSpec("distinct").value().kind,
            AggKind::kDistinctCount);
}

TEST(ParseAggregateSpecTest, QuantileWithParameter) {
  auto r = ParseAggregateSpec("quantile:0.75");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().kind, AggKind::kQuantile);
  EXPECT_DOUBLE_EQ(r.value().quantile_q, 0.75);
}

TEST(ParseAggregateSpecTest, Rejections) {
  EXPECT_FALSE(ParseAggregateSpec("frobnicate").ok());
  EXPECT_FALSE(ParseAggregateSpec("quantile:").ok());
  EXPECT_FALSE(ParseAggregateSpec("quantile:abc").ok());
  EXPECT_FALSE(ParseAggregateSpec("quantile:1.5").ok());
  EXPECT_FALSE(ParseAggregateSpec("").ok());
}

TEST(DefaultQualityGammaTest, OrderStatisticsAreRobust) {
  EXPECT_LT(DefaultQualityGamma(AggKind::kMax),
            DefaultQualityGamma(AggKind::kSum));
  EXPECT_LT(DefaultQualityGamma(AggKind::kMedian),
            DefaultQualityGamma(AggKind::kCount));
  EXPECT_DOUBLE_EQ(DefaultQualityGamma(AggKind::kSum), 1.0);
  for (AggKind kind :
       {AggKind::kCount, AggKind::kSum, AggKind::kMean, AggKind::kMin,
        AggKind::kMax, AggKind::kVariance, AggKind::kStdDev, AggKind::kMedian,
        AggKind::kQuantile, AggKind::kDistinctCount}) {
    EXPECT_GT(DefaultQualityGamma(kind), 0.0);
    EXPECT_LE(DefaultQualityGamma(kind), 5.0);
  }
}

TEST(AggregateReferenceTest, MatchesBatchComputationOnRandomData) {
  Rng rng(123);
  std::vector<double> values;
  for (int i = 0; i < 5000; ++i) values.push_back(rng.NextGaussian() * 7 + 2);

  auto sum = Make(AggKind::kSum);
  auto mean = Make(AggKind::kMean);
  auto mn = Make(AggKind::kMin);
  auto mx = Make(AggKind::kMax);
  auto med = Make(AggKind::kMedian);
  for (double v : values) {
    sum->Add(v);
    mean->Add(v);
    mn->Add(v);
    mx->Add(v);
    med->Add(v);
  }
  double ref_sum = 0;
  for (double v : values) ref_sum += v;
  EXPECT_NEAR(sum->Value(), ref_sum, 1e-6);
  EXPECT_NEAR(mean->Value(), ref_sum / 5000.0, 1e-9);
  EXPECT_DOUBLE_EQ(mn->Value(), *std::min_element(values.begin(), values.end()));
  EXPECT_DOUBLE_EQ(mx->Value(), *std::max_element(values.begin(), values.end()));
  EXPECT_DOUBLE_EQ(med->Value(), ExactQuantile(values, 0.5));
}

// The quantile aggregate keeps a sorted prefix plus an unsorted tail and
// sorts only the tail on each read. Random interleavings of Add and Value
// must give, bit for bit, what ExactQuantile gives on a copy of
// every value folded in so far.
TEST(QuantileStateTest, MatchesExactQuantileOnCopyBitwise) {
  Rng rng(20261017);
  // Duplicates (a small integer pool), negatives, both zeros, and spread
  // values. The pool is centred on zero, so the median often falls inside
  // a run of mixed -0 and +0.
  auto draw = [&rng] {
    switch (rng.NextInt(0, 3)) {
      case 0:
        return -0.0;
      case 1:
        return 0.0;
      case 2:
        return static_cast<double>(rng.NextInt(-20, 20));
      default:
        return rng.NextUniform(-1e3, 1e3);
    }
  };
  auto expect_matches = [](const Aggregator& agg,
                           const std::vector<double>& shadow, double q) {
    const double want = ExactQuantile(shadow, q);
    const double got = agg.Value();
    ASSERT_EQ(std::bit_cast<uint64_t>(got), std::bit_cast<uint64_t>(want))
        << "n=" << shadow.size() << " q=" << q << ": " << got << " vs "
        << want;
    ASSERT_EQ(agg.count(), static_cast<int64_t>(shadow.size()));
  };
  for (double q : {0.01, 0.5, 0.9, 0.99}) {
    for (int trial = 0; trial < 30; ++trial) {
      SCOPED_TRACE(testing::Message() << "q=" << q << " trial=" << trial);
      const AggKind kind = q == 0.5 ? AggKind::kMedian : AggKind::kQuantile;
      const auto target = static_cast<size_t>(
          trial == 0 ? 1 : rng.NextInt(1, 5000));
      auto agg = Make(kind, q);
      std::vector<double> shadow;
      while (shadow.size() < target) {
        const int64_t op = rng.NextInt(0, 9);
        if (op < 9) {
          // A run of adds, then a read. One run in three may leave a tail
          // longer than the sorted prefix.
          const int64_t k = rng.NextInt(1, op < 6 ? 64 : 400);
          for (int64_t i = 0; i < k && shadow.size() < target; ++i) {
            shadow.push_back(draw());
            agg->Add(shadow.back());
          }
          expect_matches(*agg, shadow, q);
        } else if (!shadow.empty()) {
          // Two reads with no add in between: the second finds no tail.
          expect_matches(*agg, shadow, q);
          expect_matches(*agg, shadow, q);
        }
        if (HasFatalFailure()) return;
      }
      expect_matches(*agg, shadow, q);
    }
  }
}

// Reads see -0 before +0 whatever order a sort left them in.
TEST(QuantileStateTest, ZerosReadInCanonicalOrder) {
  auto agg = Make(AggKind::kMedian);
  // A stable sort keeps +0 in the middle; read canonically the middle two
  // are -0 and -0, and -0 * 1 + -0 * 0 is -0.
  for (double v : {-0.0, -0.0, 0.0, -0.0, -0.0}) agg->Add(v);
  EXPECT_TRUE(std::signbit(agg->Value()));
  EXPECT_TRUE(std::signbit(ExactQuantile({-0.0, -0.0, 0.0, -0.0, -0.0}, 0.5)));
  agg->Add(0.0);
  agg->Add(1.0);
  // -0 -0 -0 -0 +0 +0 1: the middle pair is (-0, +0), which sums to +0.
  EXPECT_FALSE(std::signbit(agg->Value()));
  EXPECT_EQ(agg->Value(), 0.0);
}

}  // namespace
}  // namespace streamq
