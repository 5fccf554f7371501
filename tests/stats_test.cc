#include "common/stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "stream/event.h"
#include "tests/reference/reference_sliding_quantile.h"
#include "tests/test_util.h"

namespace streamq {
namespace {

TEST(RunningMomentsTest, Empty) {
  RunningMoments m;
  EXPECT_EQ(m.count(), 0);
  EXPECT_DOUBLE_EQ(m.mean(), 0.0);
  EXPECT_DOUBLE_EQ(m.variance(), 0.0);
}

TEST(RunningMomentsTest, SingleValue) {
  RunningMoments m;
  m.Add(7.5);
  EXPECT_EQ(m.count(), 1);
  EXPECT_DOUBLE_EQ(m.mean(), 7.5);
  EXPECT_DOUBLE_EQ(m.variance(), 0.0);
  EXPECT_DOUBLE_EQ(m.min(), 7.5);
  EXPECT_DOUBLE_EQ(m.max(), 7.5);
}

TEST(RunningMomentsTest, KnownSequence) {
  RunningMoments m;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) m.Add(v);
  EXPECT_DOUBLE_EQ(m.mean(), 5.0);
  EXPECT_DOUBLE_EQ(m.variance(), 4.0);  // Classic textbook example.
  EXPECT_DOUBLE_EQ(m.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(m.min(), 2.0);
  EXPECT_DOUBLE_EQ(m.max(), 9.0);
  EXPECT_DOUBLE_EQ(m.sum(), 40.0);
}

TEST(RunningMomentsTest, MergeMatchesCombinedStream) {
  Rng rng(7);
  RunningMoments all, left, right;
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.NextGaussian() * 3.0 + 1.0;
    all.Add(v);
    (i < 400 ? left : right).Add(v);
  }
  left.Merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), all.min());
  EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(RunningMomentsTest, MergeWithEmpty) {
  RunningMoments a, b;
  a.Add(1.0);
  a.Add(3.0);
  const double mean = a.mean();
  a.Merge(b);  // No-op.
  EXPECT_DOUBLE_EQ(a.mean(), mean);
  b.Merge(a);  // Copy.
  EXPECT_DOUBLE_EQ(b.mean(), mean);
  EXPECT_EQ(b.count(), 2);
}

TEST(RunningMomentsTest, Reset) {
  RunningMoments m;
  m.Add(5.0);
  m.Reset();
  EXPECT_EQ(m.count(), 0);
  EXPECT_DOUBLE_EQ(m.mean(), 0.0);
}

TEST(ReservoirSampleTest, KeepsAllBelowCapacity) {
  ReservoirSample r(100, 1);
  for (int i = 0; i < 50; ++i) r.Add(i);
  EXPECT_EQ(r.seen(), 50);
  EXPECT_EQ(r.samples().size(), 50u);
}

TEST(ReservoirSampleTest, CapsAtCapacity) {
  ReservoirSample r(64, 1);
  for (int i = 0; i < 10000; ++i) r.Add(i);
  EXPECT_EQ(r.seen(), 10000);
  EXPECT_EQ(r.samples().size(), 64u);
}

TEST(ReservoirSampleTest, IsApproximatelyUniform) {
  // Mean of reservoir over uniform [0, 1) input should be near 0.5.
  ReservoirSample r(512, 99);
  Rng rng(3);
  for (int i = 0; i < 100000; ++i) r.Add(rng.NextDouble());
  double sum = 0.0;
  for (double v : r.samples()) sum += v;
  EXPECT_NEAR(sum / static_cast<double>(r.samples().size()), 0.5, 0.05);
}

TEST(ReservoirSampleTest, QuantileOfKnownData) {
  ReservoirSample r(1000, 1);
  for (int i = 1; i <= 1000; ++i) r.Add(i);  // Below capacity: exact.
  EXPECT_NEAR(r.Quantile(0.5), 500.5, 1.0);
  EXPECT_NEAR(r.Quantile(0.99), 990.0, 1.5);
}

TEST(ExactQuantileTest, EdgeCases) {
  EXPECT_DOUBLE_EQ(ExactQuantile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(ExactQuantile({42.0}, 0.0), 42.0);
  EXPECT_DOUBLE_EQ(ExactQuantile({42.0}, 1.0), 42.0);
  EXPECT_DOUBLE_EQ(ExactQuantile({1.0, 2.0}, 0.5), 1.5);
  EXPECT_DOUBLE_EQ(ExactQuantile({3.0, 1.0, 2.0}, 1.0), 3.0);
  EXPECT_DOUBLE_EQ(ExactQuantile({3.0, 1.0, 2.0}, 0.0), 1.0);
}

TEST(ExactQuantileTest, ClampsQ) {
  EXPECT_DOUBLE_EQ(ExactQuantile({1.0, 2.0, 3.0}, -0.5), 1.0);
  EXPECT_DOUBLE_EQ(ExactQuantile({1.0, 2.0, 3.0}, 1.5), 3.0);
}

class P2QuantileParamTest : public ::testing::TestWithParam<double> {};

TEST_P(P2QuantileParamTest, TracksExactQuantileOnGaussian) {
  const double q = GetParam();
  P2Quantile est(q);
  Rng rng(11);
  std::vector<double> all;
  for (int i = 0; i < 20000; ++i) {
    const double v = rng.NextGaussian();
    est.Add(v);
    all.push_back(v);
  }
  const double exact = ExactQuantile(all, q);
  EXPECT_NEAR(est.value(), exact, 0.06) << "q=" << q;
}

INSTANTIATE_TEST_SUITE_P(Quantiles, P2QuantileParamTest,
                         ::testing::Values(0.1, 0.25, 0.5, 0.75, 0.9, 0.95,
                                           0.99));

TEST(P2QuantileTest, ExactForFewSamples) {
  P2Quantile est(0.5);
  est.Add(3.0);
  EXPECT_DOUBLE_EQ(est.value(), 3.0);
  est.Add(1.0);
  EXPECT_DOUBLE_EQ(est.value(), 2.0);
  est.Add(2.0);
  EXPECT_DOUBLE_EQ(est.value(), 2.0);
}

TEST(P2QuantileTest, EmptyIsZero) {
  P2Quantile est(0.9);
  EXPECT_DOUBLE_EQ(est.value(), 0.0);
  EXPECT_EQ(est.count(), 0);
}

TEST(SlidingWindowQuantileTest, WindowEviction) {
  SlidingWindowQuantile s(4);
  for (double v : {1.0, 2.0, 3.0, 4.0, 100.0, 100.0, 100.0, 100.0}) s.Add(v);
  EXPECT_EQ(s.size(), 4u);
  EXPECT_DOUBLE_EQ(s.Quantile(0.0), 100.0);  // Old small values evicted.
  EXPECT_EQ(s.seen(), 8);
}

TEST(SlidingWindowQuantileTest, QuantileOfRamp) {
  SlidingWindowQuantile s(1000);
  for (int i = 1; i <= 1000; ++i) s.Add(i);
  EXPECT_NEAR(s.Quantile(0.95), 950.0, 2.0);
  EXPECT_DOUBLE_EQ(s.Quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.Quantile(1.0), 1000.0);
}

TEST(SlidingWindowQuantileTest, EmptyDefaults) {
  SlidingWindowQuantile s(10);
  EXPECT_DOUBLE_EQ(s.Quantile(0.5), 0.0);
}

TEST(SlidingWindowQuantileTest, TracksDistributionShift) {
  // After a step change, the windowed quantile must follow the new regime —
  // the property the adaptive buffer depends on.
  SlidingWindowQuantile s(500);
  Rng rng(5);
  for (int i = 0; i < 2000; ++i) s.Add(rng.NextUniform(0.0, 10.0));
  EXPECT_LT(s.Quantile(0.95), 11.0);
  for (int i = 0; i < 2000; ++i) s.Add(rng.NextUniform(100.0, 110.0));
  EXPECT_GT(s.Quantile(0.5), 99.0);
}

/// One value mix of the differential test.
enum class Mix {
  kExponentialWithZeros,
  kSmallIntegers,  // heavy ties
  kExtremes,
  kFlooredExponential,
};

double DrawValue(Mix mix, Rng* rng) {
  ExponentialDelay exponential(5000.0);  // microseconds
  switch (mix) {
    case Mix::kExponentialWithZeros:
      return rng->NextBool(1.0 / 3.0) ? 0.0 : exponential.Sample(rng);
    case Mix::kSmallIntegers:
      return static_cast<double>(rng->NextInt(0, 49));
    case Mix::kExtremes:
      switch (rng->NextInt(0, 3)) {
        case 0:
          return 0.0;
        case 1:
          return 5e-324;  // smallest subnormal
        case 2:
          return 1e300;
        default:  // 2^-1000 .. 2^999
          return std::ldexp(1.0, static_cast<int>(rng->NextInt(-1000, 999)));
      }
    case Mix::kFlooredExponential:
      return std::floor(exponential.Sample(rng));
  }
  return 0.0;
}

void ExpectSameBits(double got, double want, const std::string& where) {
  EXPECT_EQ(std::memcmp(&got, &want, sizeof(double)), 0)
      << where << ": got " << got << ", reference " << want;
}

// Random add/evict/query sequences, with a Reset() halfway, against the
// deque + nth_element reference: every quantile must match bit for bit.
TEST(SlidingWindowQuantileDifferential, MatchesReferenceBitForBit) {
  constexpr double kFixedQ[] = {0.0, 0.5, 0.95, 0.999, 1.0};
  for (const uint64_t seed : {1u, 2u, 3u}) {
    for (const size_t capacity : {1u, 2u, 3u, 7u, 64u, 4096u, 65536u}) {
      for (const Mix mix :
           {Mix::kExponentialWithZeros, Mix::kSmallIntegers, Mix::kExtremes,
            Mix::kFlooredExponential}) {
        Rng rng(seed * 7919 + capacity);
        SlidingWindowQuantile sketch(capacity);
        reference::SlidingWindowQuantile oracle(capacity);
        const size_t adds = std::max<size_t>(2000, 3 * capacity);
        // Query every few adds (one fixed q in turn plus a random q);
        // sparser for the largest windows, where each reference query
        // copies and selects the whole window.
        const int64_t stride =
            std::max<int64_t>(8, static_cast<int64_t>(capacity / 16));
        int64_t next_query = rng.NextInt(1, stride);
        size_t queries = 0;
        for (size_t n = 1; n <= adds; ++n) {
          const double x = DrawValue(mix, &rng);
          sketch.Add(x);
          oracle.Add(x);
          if (n == adds / 2) {
            sketch.Reset();
            oracle.Reset();
          }
          ASSERT_EQ(sketch.size(), oracle.size());
          ASSERT_EQ(sketch.seen(), oracle.seen());
          if (--next_query > 0) continue;
          next_query = rng.NextInt(1, stride);
          const std::string where = "seed=" + std::to_string(seed) +
                                    " capacity=" + std::to_string(capacity) +
                                    " mix=" +
                                    std::to_string(static_cast<int>(mix)) +
                                    " add=" + std::to_string(n);
          const double fixed_q = kFixedQ[queries++ % std::size(kFixedQ)];
          const double random_q = rng.NextDouble();
          for (const double q : {fixed_q, random_q}) {
            ExpectSameBits(sketch.Quantile(q), oracle.Quantile(q),
                           where + " q=" + std::to_string(q));
          }
          ASSERT_FALSE(HasFailure()) << "stopping at the first mismatch";
        }
      }
    }
  }
}

/// Feeds `values` to a fresh sketch and the reference and compares a few
/// quantiles bit for bit after every add (every `stride`-th add when
/// stride > 1). `reset_at` (0 for never) resets both before that add.
void ExpectMatchesAfterAdds(size_t capacity, const std::vector<double>& values,
                            const std::string& label, size_t stride = 1,
                            size_t reset_at = 0) {
  constexpr double kQ[] = {0.0, 0.3, 0.5, 0.95, 0.999, 1.0};
  SlidingWindowQuantile sketch(capacity);
  reference::SlidingWindowQuantile oracle(capacity);
  for (size_t n = 0; n < values.size(); ++n) {
    if (reset_at != 0 && n == reset_at) {
      sketch.Reset();
      oracle.Reset();
    }
    sketch.Add(values[n]);
    oracle.Add(values[n]);
    ASSERT_EQ(sketch.size(), oracle.size());
    if ((n + 1) % stride != 0) continue;
    for (const double q : kQ) {
      ExpectSameBits(sketch.Quantile(q), oracle.Quantile(q),
                     label + " capacity=" + std::to_string(capacity) +
                         " add=" + std::to_string(n + 1) +
                         " q=" + std::to_string(q));
    }
    ASSERT_FALSE(::testing::Test::HasFailure())
        << "stopping at the first mismatch";
  }
}

// One bucket holds the whole window, so one chain spans every slot and
// each eviction pops its head: all values equal, or distinct values that
// share the 18 top bits the bucket key reads.
TEST(SlidingWindowQuantileChains, OneBucketSpansTheWindow) {
  for (const size_t capacity : {1u, 2u, 7u, 64u, 4096u}) {
    const size_t adds = 3 * capacity + 5;
    const size_t stride = capacity > 64 ? 61 : 1;
    ExpectMatchesAfterAdds(capacity, std::vector<double>(adds, 1234.0),
                           "equal", stride);
    Rng rng(capacity);
    std::vector<double> shared_top_bits(adds);
    const uint64_t top = std::bit_cast<uint64_t>(1234.0) >> 46 << 46;
    for (double& v : shared_top_bits) {
      v = std::bit_cast<double>(
          top | (rng.NextUint64() & ((uint64_t{1} << 46) - 1)));
    }
    ExpectMatchesAfterAdds(capacity, shared_top_bits, "shared-top-bits",
                           stride);
  }
}

// A query after every add from the first: the ring (and its links) grows
// while chains point at slots, then wraps and evicts.
TEST(SlidingWindowQuantileChains, QueriesThroughTheFillPhase) {
  for (size_t capacity = 1; capacity <= 64; ++capacity) {
    Rng rng(capacity + 100);
    std::vector<double> values(2 * capacity + 20);
    for (double& v : values) v = DrawValue(Mix::kSmallIntegers, &rng);
    ExpectMatchesAfterAdds(capacity, values, "fill-small-integers");
    for (double& v : values) v = DrawValue(Mix::kExtremes, &rng);
    ExpectMatchesAfterAdds(capacity, values, "fill-extremes");
  }
}

// Octaves empty out and fill again, so pooled blocks come back with stale
// head and tail slots, before and after a Reset() that moves the values to
// other octaves.
TEST(SlidingWindowQuantileChains, ReusedBlocksAfterReset) {
  for (const size_t capacity : {1u, 5u, 64u, 300u}) {
    Rng rng(capacity + 200);
    std::vector<double> values;
    // Each phase fills the window from one octave, evicting the previous
    // phase entirely; the last phases revisit octaves of earlier ones.
    for (const int exponent : {0, 10, -20, 0, 10, 40, -20, 3, 60, 3}) {
      for (size_t i = 0; i < capacity + capacity / 2 + 1; ++i) {
        values.push_back(std::ldexp(rng.NextUniform(1.0, 2.0), exponent));
      }
    }
    const size_t reset_at = values.size() / 2;
    ExpectMatchesAfterAdds(capacity, values, "octave-phases", 1, reset_at);
  }
}

/// A value for the run-selection tests: mixed-sign zeros, small integers
/// (heavy ties), fractions, wide magnitudes of either sign, infinities.
double DrawRunValue(Rng* rng) {
  switch (rng->NextInt(0, 5)) {
    case 0:
      return rng->NextBool(0.5) ? -0.0 : 0.0;
    case 1:
      return static_cast<double>(rng->NextInt(-3, 3));
    case 2:
      return rng->NextUniform(-1.0, 1.0);
    case 3:
      return std::ldexp(rng->NextBool(0.5) ? -1.0 : 1.0,
                        static_cast<int>(rng->NextInt(-1000, 999)));
    case 4:
      return rng->NextBool(0.9) ? 0.5
                                : (rng->NextBool(0.5) ? 1.0 : -1.0) *
                                      std::numeric_limits<double>::infinity();
    default:
      return rng->NextGaussian();
  }
}

std::vector<std::span<const double>> Views(
    const std::vector<std::vector<double>>& runs) {
  return std::vector<std::span<const double>>(runs.begin(), runs.end());
}

// Selection across sorted runs against InterpolateSorted over their sorted
// concatenation, bit for bit: 1 to 100 runs, empty and single-value runs
// among them, heavy ties and zeros of both signs.
TEST(InterpolateRunsTest, MatchesSortedConcatenationBitForBit) {
  constexpr double kFixedQ[] = {0.0, 0.5, 0.9, 1.0};
  for (const uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    Rng rng(seed);
    for (int trial = 0; trial < 200; ++trial) {
      const auto num_runs = static_cast<size_t>(
          trial % 4 == 0 ? rng.NextInt(1, 4) : rng.NextInt(1, 100));
      std::vector<std::vector<double>> runs(num_runs);
      std::vector<double> all;
      for (std::vector<double>& run : runs) {
        int64_t len = 0;
        switch (rng.NextInt(0, 3)) {
          case 0:
            break;  // Empty run.
          case 1:
            len = 1;
            break;
          case 2:
            len = rng.NextInt(2, 8);
            break;
          default:
            len = rng.NextInt(9, 200);
            break;
        }
        for (int64_t j = 0; j < len; ++j) run.push_back(DrawRunValue(&rng));
        std::sort(run.begin(), run.end());
        all.insert(all.end(), run.begin(), run.end());
      }
      std::sort(all.begin(), all.end());
      const std::vector<std::span<const double>> views = Views(runs);
      for (const double q : {kFixedQ[0], kFixedQ[1], kFixedQ[2], kFixedQ[3],
                             rng.NextDouble()}) {
        ExpectSameBits(InterpolateRuns(views, q), InterpolateSorted(all, q),
                       "seed=" + std::to_string(seed) +
                           " trial=" + std::to_string(trial) +
                           " runs=" + std::to_string(num_runs) +
                           " n=" + std::to_string(all.size()) +
                           " q=" + std::to_string(q));
      }
      ASSERT_FALSE(HasFailure()) << "stopping at the first mismatch";
    }
  }
}

TEST(InterpolateRunsTest, EmptyAndSingleRun) {
  EXPECT_EQ(InterpolateRuns({}, 0.5), 0.0);
  const std::vector<std::vector<double>> empties(3);
  EXPECT_EQ(InterpolateRuns(Views(empties), 0.5), 0.0);
  const std::vector<std::vector<double>> one = {{-0.0, 0.0, 0.0}};
  for (const double q : {0.0, 0.5, 1.0}) {
    ExpectSameBits(InterpolateRuns(Views(one), q),
                   InterpolateSorted(one[0], q), "q=" + std::to_string(q));
  }
}

/// Values of one run drawn as `testutil::WithTiesAndSignedZeros` remaps
/// uniform event values: the integers -3..2, every other zero -0.
std::vector<double> TiedRunValues(Rng* rng, size_t n) {
  std::vector<Event> events(n);
  for (Event& e : events) e.value = rng->NextDouble();
  std::vector<double> values;
  for (const Event& e : testutil::WithTiesAndSignedZeros(std::move(events))) {
    values.push_back(e.value);
  }
  return values;
}

/// Runs for the hinted differential: mostly 0 to 20 runs (more than 16
/// takes the heap-allocated path), each empty, short or long; now and then
/// 30 to 100 short ones, the panes of a window many slides long (hinted
/// cuts keep a minimum of scans there, unhinted ones bisect at once).
/// Values are drawn from DrawRunValue's mix, from tied small integers and
/// signed zeros, from one uniform distribution, or from a range of their
/// own (disjoint runs, whose cuts run out of scans and fall back to
/// bisection).
std::vector<std::vector<double>> DrawHintRuns(Rng* rng) {
  const bool many = rng->NextBool(0.15);
  std::vector<std::vector<double>> runs(static_cast<size_t>(
      many ? rng->NextInt(30, 100) : rng->NextInt(0, 20)));
  const int64_t shape = rng->NextInt(0, 3);
  for (size_t r = 0; r < runs.size(); ++r) {
    std::vector<double>& run = runs[r];
    const auto len = static_cast<size_t>(
        many                ? rng->NextInt(0, 20)
        : rng->NextBool(0.15) ? rng->NextInt(0, 2)
                              : rng->NextInt(3, 150));
    switch (shape) {
      case 0:
        for (size_t j = 0; j < len; ++j) run.push_back(DrawRunValue(rng));
        break;
      case 1:
        run = TiedRunValues(rng, len);
        break;
      case 2:
        for (size_t j = 0; j < len; ++j) run.push_back(rng->NextDouble());
        break;
      default:
        for (size_t j = 0; j < len; ++j) {
          run.push_back(static_cast<double>(r) + rng->NextDouble());
        }
        break;
    }
    std::sort(run.begin(), run.end());
  }
  // Disjoint runs in any order, not only ascending by range.
  for (size_t r = runs.size(); r > 1; --r) {
    const int64_t other = rng->NextInt(0, static_cast<int64_t>(r) - 1);
    std::swap(runs[r - 1], runs[static_cast<size_t>(other)]);
  }
  return runs;
}

std::vector<double> Concatenated(const std::vector<std::vector<double>>& runs) {
  std::vector<double> all;
  for (const std::vector<double>& run : runs) {
    all.insert(all.end(), run.begin(), run.end());
  }
  std::sort(all.begin(), all.end());
  return all;
}

// Every hint gives the result of the sorted concatenation bit for bit:
// none (NaN), +-inf, values outside every run, values inside them, and the
// answer itself; at q = 0, q = 1 and random q.
TEST(InterpolateRunsTest, HintedMatchesSortedConcatenationBitForBit) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const uint64_t seed : {21u, 22u, 23u}) {
    Rng rng(seed);
    for (int trial = 0; trial < 300; ++trial) {
      const std::vector<std::vector<double>> runs = DrawHintRuns(&rng);
      const std::vector<double> all = Concatenated(runs);
      const std::vector<std::span<const double>> views = Views(runs);
      std::vector<double> hints = {nan, kInf, -kInf, rng.NextGaussian()};
      if (!all.empty()) {
        hints.push_back(all.front() - 1.0);
        hints.push_back(all.back() + 1.0);
        hints.push_back(all[static_cast<size_t>(
            rng.NextInt(0, static_cast<int64_t>(all.size()) - 1))]);
      }
      for (const double q : {0.0, 1.0, 0.5, rng.NextDouble()}) {
        const double want = InterpolateSorted(all, q);
        hints.push_back(want);
        for (const double hint : hints) {
          ExpectSameBits(InterpolateRuns(views, q, hint), want,
                         "seed=" + std::to_string(seed) +
                             " trial=" + std::to_string(trial) +
                             " runs=" + std::to_string(runs.size()) +
                             " n=" + std::to_string(all.size()) +
                             " q=" + std::to_string(q) +
                             " hint=" + std::to_string(hint));
        }
        hints.pop_back();
      }
      ASSERT_FALSE(HasFailure()) << "stopping at the first mismatch";
    }
  }
}

// The window operator's sequence: select, insert one value into one run,
// reselect from the previous result. Every selection matches the sorted
// concatenation bit for bit.
TEST(InterpolateRunsTest, InsertThenReselectCarryingTheHint) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const uint64_t seed : {31u, 32u, 33u, 34u}) {
    Rng rng(seed);
    for (int trial = 0; trial < 40; ++trial) {
      std::vector<std::vector<double>> runs = DrawHintRuns(&rng);
      if (runs.empty()) runs.resize(1);
      const double q = rng.NextBool(0.5) ? 0.5 : rng.NextDouble();
      const bool tied = rng.NextBool(0.3);
      double hint = nan;
      for (int step = 0; step < 60; ++step) {
        const std::vector<double> all = Concatenated(runs);
        const double want = InterpolateSorted(all, q);
        const double got = InterpolateRuns(Views(runs), q, hint);
        ExpectSameBits(got, want,
                       "seed=" + std::to_string(seed) +
                           " trial=" + std::to_string(trial) +
                           " step=" + std::to_string(step));
        hint = got;
        std::vector<double>& run = runs[static_cast<size_t>(
            rng.NextInt(0, static_cast<int64_t>(runs.size()) - 1))];
        const double v =
            tied ? TiedRunValues(&rng, 1)[0] : DrawRunValue(&rng);
        run.insert(std::upper_bound(run.begin(), run.end(), v), v);
      }
      ASSERT_FALSE(HasFailure()) << "stopping at the first mismatch";
    }
  }
}

// A NaN (it can reach a window when ingest validation is off) breaks the
// runs' order. The result is unspecified, but selection must return, with
// or without a hint: the cuts have a scan budget, and each bisection step
// strictly shrinks the widest remaining run.
TEST(InterpolateRunsTest, NaNReturnsWithoutHanging) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::vector<double>> fixed = {
      {1.0, 2.0, nan, 4.0}, {nan},      {0.5, nan, 3.0},
      {},                   {-1.0, 5.0}, {nan, nan},
      {1.0, 2.0, 3.0, 2.0, 3.0, 1.0, nan}};  // Out of order, not just NaN.
  const double hints[] = {nan, 0.0, 2.0, 10.0,
                          std::numeric_limits<double>::infinity(),
                          -std::numeric_limits<double>::infinity()};
  // One descending pair: the cut between 3 and 1 is both the largest left
  // and the smallest right value, so swapping them changes nothing.
  const std::vector<std::vector<double>> swapped = {{3.0, 1.0}};
  for (const double q : {0.0, 0.25, 0.5, 0.9, 1.0}) {
    (void)InterpolateRuns(Views(fixed), q);
    (void)InterpolateRuns(Views(swapped), q);
    for (const double hint : hints) {
      (void)InterpolateRuns(Views(fixed), q, hint);
      (void)InterpolateRuns(Views(swapped), q, hint);
    }
  }
  Rng rng(11);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::vector<double>> runs(
        static_cast<size_t>(rng.NextInt(1, 20)));
    for (std::vector<double>& run : runs) {
      const int64_t len = rng.NextInt(0, 30);
      for (int64_t j = 0; j < len; ++j) run.push_back(DrawRunValue(&rng));
      std::sort(run.begin(), run.end());
      // NaNs anywhere, as an order-breaking sort could leave them.
      for (int64_t j = rng.NextInt(0, 3); j > 0; --j) {
        const int64_t at = rng.NextInt(0, static_cast<int64_t>(run.size()));
        run.insert(run.begin() + at, nan);
      }
    }
    (void)InterpolateRuns(Views(runs), rng.NextDouble());
    (void)InterpolateRuns(Views(runs), rng.NextDouble(), DrawRunValue(&rng));
    (void)InterpolateRuns(Views(runs), rng.NextDouble(), nan);
  }
}

TEST(SummarizeTest, EmptyInput) {
  const DistributionSummary s = Summarize({});
  EXPECT_EQ(s.count, 0);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(SummarizeTest, KnownPercentiles) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  const DistributionSummary s = Summarize(v);
  EXPECT_EQ(s.count, 100);
  EXPECT_DOUBLE_EQ(s.mean, 50.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_NEAR(s.p50, 50.5, 0.01);
  EXPECT_NEAR(s.p90, 90.1, 0.01);
  EXPECT_NEAR(s.p99, 99.01, 0.01);
}

TEST(SummarizeTest, ToStringMentionsFields) {
  const DistributionSummary s = Summarize({1.0, 2.0, 3.0});
  const std::string str = s.ToString();
  EXPECT_NE(str.find("n=3"), std::string::npos);
  EXPECT_NE(str.find("mean="), std::string::npos);
  EXPECT_NE(str.find("p99="), std::string::npos);
}

}  // namespace
}  // namespace streamq
