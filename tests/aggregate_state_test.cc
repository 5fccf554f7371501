// Pins the inline AggregateState fold/merge/value against the polymorphic
// Aggregators bit-for-bit: the hot window engine relies on this equivalence
// to produce byte-identical results to the std::map reference engine in
// tests/reference/.

#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "agg/aggregate.h"
#include "agg/aggregate_state.h"

namespace streamq {
namespace {

const std::vector<AggKind> kInlineKinds = {
    AggKind::kCount, AggKind::kSum,      AggKind::kMean,  AggKind::kMin,
    AggKind::kMax,   AggKind::kVariance, AggKind::kStdDev};

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

// Folding any value sequence must match Aggregator::Add bitwise — at every
// prefix, not just the end (the operator emits at arbitrary points).
TEST(AggregateStateTest, FoldMatchesAggregatorBitwiseAtEveryPrefix) {
  const std::vector<double> values = RandomValues(500, 7);
  for (AggKind kind : kInlineKinds) {
    SCOPED_TRACE(static_cast<int>(kind));
    AggregateSpec spec;
    spec.kind = kind;
    auto acc = MakeAggregator(spec);
    AggregateState s;
    for (double v : values) {
      InlineFoldDyn(kind, s, v);
      acc->Add(v);
      EXPECT_EQ(acc->count(), s.n);
      const double got = InlineValueDyn(kind, s);
      const double want = acc->Value();
      // Bitwise, not EXPECT_DOUBLE_EQ: the engines must be exchangeable.
      EXPECT_EQ(std::bit_cast<uint64_t>(want), std::bit_cast<uint64_t>(got));
    }
  }
}

// Merging split partials must match Aggregator::Merge bitwise.
TEST(AggregateStateTest, MergeMatchesAggregatorMergeBitwise) {
  const std::vector<double> values = RandomValues(400, 11);
  for (AggKind kind : kInlineKinds) {
    SCOPED_TRACE(static_cast<int>(kind));
    AggregateSpec spec;
    spec.kind = kind;
    for (size_t split : {size_t{0}, size_t{1}, size_t{137}, values.size()}) {
      auto a = MakeAggregator(spec);
      auto b = MakeAggregator(spec);
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
      EXPECT_EQ(std::bit_cast<uint64_t>(a->Value()),
                std::bit_cast<uint64_t>(InlineValueDyn(kind, sa)));
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
    auto acc = MakeAggregator(spec);
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
