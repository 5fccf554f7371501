// Pins the inline AggregateState fold/merge/value, and the production
// MakeAggregator that wraps it, against the hand-written reference
// aggregators (tests/reference/reference_aggregate.h) bit-for-bit: the hot
// window engine relies on this equivalence to produce byte-identical
// results to the std::map reference engine in tests/reference/.

#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "agg/aggregate.h"
#include "agg/aggregate_state.h"
#include "tests/reference/reference_aggregate.h"
#include "tests/test_util.h"

namespace streamq {
namespace {

const std::vector<AggKind> kInlineKinds = {
    AggKind::kCount, AggKind::kSum,      AggKind::kMean,  AggKind::kMin,
    AggKind::kMax,   AggKind::kVariance, AggKind::kStdDev};

const std::vector<AggKind> kAllKinds = {
    AggKind::kCount,    AggKind::kSum,    AggKind::kMean,
    AggKind::kMin,      AggKind::kMax,    AggKind::kVariance,
    AggKind::kStdDev,   AggKind::kMedian, AggKind::kQuantile,
    AggKind::kDistinctCount};

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

std::vector<double> RandomValues(size_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  // Mixed magnitudes so compensated summation actually matters.
  std::uniform_real_distribution<double> small(-1.0, 1.0);
  std::uniform_real_distribution<double> large(-1e12, 1e12);
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = (i % 7 == 0) ? large(rng) : small(rng);
  }
  return v;
}

TEST(AggregateStateTest, KindTables) {
  for (AggKind k : kInlineKinds) EXPECT_TRUE(IsInlineAggKind(k));
  EXPECT_FALSE(IsInlineAggKind(AggKind::kMedian));
  EXPECT_FALSE(IsInlineAggKind(AggKind::kQuantile));
  EXPECT_FALSE(IsInlineAggKind(AggKind::kDistinctCount));

  EXPECT_TRUE(PaneMergeIsExact(AggKind::kCount));
  EXPECT_TRUE(PaneMergeIsExact(AggKind::kMin));
  EXPECT_TRUE(PaneMergeIsExact(AggKind::kMax));
  EXPECT_FALSE(PaneMergeIsExact(AggKind::kSum));
  EXPECT_FALSE(PaneMergeIsExact(AggKind::kMean));
  EXPECT_FALSE(PaneMergeIsExact(AggKind::kVariance));
  EXPECT_FALSE(PaneMergeIsExact(AggKind::kStdDev));
}

// Folding any value sequence must give the reference's value bitwise, at
// every prefix, not just the end (the operator emits at arbitrary points):
// through AggregateState for the inline kinds, and through the production
// MakeAggregator for every kind, so a kind it mis-dispatches fails here.
TEST(AggregateStateTest, FoldMatchesAggregatorBitwiseAtEveryPrefix) {
  // One long stream of mixed magnitudes, then many short ones with heavy
  // ties and zeros of both signs (testutil::WithTiesAndSignedZeros): a
  // sum, extreme or order statistic that lands on a zero must carry the
  // reference's sign, and an extreme is zero only early in a stream.
  std::vector<std::vector<double>> streams = {RandomValues(500, 7)};
  std::mt19937_64 rng(8);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (int i = 0; i < 40; ++i) {
    std::vector<Event> events(30);
    for (Event& e : events) e.value = unit(rng);
    std::vector<double>& values = streams.emplace_back();
    for (const Event& e : testutil::WithTiesAndSignedZeros(events)) {
      values.push_back(e.value);
    }
  }
  for (AggKind kind : kAllKinds) {
    SCOPED_TRACE(static_cast<int>(kind));
    AggregateSpec spec;
    spec.kind = kind;
    spec.quantile_q = 0.9;
    for (const std::vector<double>& values : streams) {
      auto want_acc = reference::MakeReferenceAggregator(spec);
      auto acc = MakeAggregator(spec);
      AggregateState s;
      for (double v : values) {
        want_acc->Add(v);
        acc->Add(v);
        const double want = want_acc->Value();
        // Bitwise, not EXPECT_DOUBLE_EQ: the engines must be exchangeable.
        ASSERT_EQ(Bits(want), Bits(acc->Value()));
        ASSERT_EQ(want_acc->count(), acc->count());
        if (!IsInlineAggKind(kind)) continue;
        InlineFoldDyn(kind, s, v);
        ASSERT_EQ(want_acc->count(), s.n);
        ASSERT_EQ(Bits(want), Bits(InlineValueDyn(kind, s)));
      }
    }
  }
}

// Merging split partials must match the reference Merge bitwise.
TEST(AggregateStateTest, MergeMatchesAggregatorMergeBitwise) {
  const std::vector<double> values = RandomValues(400, 11);
  for (AggKind kind : kInlineKinds) {
    SCOPED_TRACE(static_cast<int>(kind));
    AggregateSpec spec;
    spec.kind = kind;
    for (size_t split : {size_t{0}, size_t{1}, size_t{137}, values.size()}) {
      auto a = reference::MakeReferenceAggregator(spec);
      auto b = reference::MakeReferenceAggregator(spec);
      AggregateState sa, sb;
      for (size_t i = 0; i < values.size(); ++i) {
        if (i < split) {
          a->Add(values[i]);
          InlineFoldDyn(kind, sa, values[i]);
        } else {
          b->Add(values[i]);
          InlineFoldDyn(kind, sb, values[i]);
        }
      }
      a->Merge(*b);
      InlineMergeDyn(kind, sa, sb);
      EXPECT_EQ(a->count(), sa.n);
      EXPECT_EQ(Bits(a->Value()), Bits(InlineValueDyn(kind, sa)));
    }
  }
}

// For the pane-exact kinds, merging partials over ANY grouping must be
// bit-identical to folding the values one at a time — the property the
// kAuto pane-sharing gate relies on.
TEST(AggregateStateTest, PaneExactKindsAreGroupingInsensitive) {
  const std::vector<double> values = RandomValues(300, 13);
  std::mt19937_64 rng(17);
  for (AggKind kind : kInlineKinds) {
    if (!PaneMergeIsExact(kind)) continue;
    SCOPED_TRACE(static_cast<int>(kind));
    AggregateState sequential;
    for (double v : values) InlineFoldDyn(kind, sequential, v);
    for (int trial = 0; trial < 20; ++trial) {
      AggregateState total;
      size_t i = 0;
      while (i < values.size()) {
        const size_t run =
            1 + rng() % 40;  // Random pane-run lengths.
        AggregateState partial;
        for (size_t j = i; j < std::min(i + run, values.size()); ++j) {
          InlineFoldDyn(kind, partial, values[j]);
        }
        InlineMergeDyn(kind, total, partial);
        i += run;
      }
      EXPECT_EQ(std::bit_cast<uint64_t>(InlineValueDyn(kind, sequential)),
                std::bit_cast<uint64_t>(InlineValueDyn(kind, total)));
      EXPECT_EQ(sequential.n, total.n);
    }
  }
}

TEST(AggregateStateTest, EmptyStateConventionsMatchAggregators) {
  for (AggKind kind : kInlineKinds) {
    SCOPED_TRACE(static_cast<int>(kind));
    AggregateSpec spec;
    spec.kind = kind;
    auto acc = reference::MakeReferenceAggregator(spec);
    AggregateState s;
    const double want = acc->Value();
    const double got = InlineValueDyn(kind, s);
    if (std::isnan(want)) {
      EXPECT_TRUE(std::isnan(got));
    } else {
      EXPECT_EQ(std::bit_cast<uint64_t>(want), std::bit_cast<uint64_t>(got));
    }
    // Merging an empty partial is a no-op.
    AggregateState sa;
    InlineFoldDyn(kind, sa, 3.25);
    AggregateState before = sa;
    AggregateState empty;
    InlineMergeDyn(kind, sa, empty);
    EXPECT_EQ(std::bit_cast<uint64_t>(before.f0),
              std::bit_cast<uint64_t>(sa.f0));
    EXPECT_EQ(before.n, sa.n);
  }
}

TEST(AggregateStateTest, VarianceSmallCountConventions) {
  AggregateState s;
  InlineFold<AggKind::kVariance>(s, 5.0);
  EXPECT_EQ(InlineValue<AggKind::kVariance>(s), 0.0);  // n == 1.
  EXPECT_EQ(InlineValue<AggKind::kStdDev>(s), 0.0);
  InlineFold<AggKind::kVariance>(s, 7.0);
  EXPECT_DOUBLE_EQ(InlineValue<AggKind::kVariance>(s), 1.0);
}

}  // namespace
}  // namespace streamq
