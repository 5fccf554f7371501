#include "common/rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <ostream>
#include <vector>

#include "common/stats.h"

namespace streamq {
namespace {

TEST(RngTest, DeterministicForEqualSeeds) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, NextDoubleMeanIsHalf) {
  Rng rng(10);
  RunningMoments m;
  for (int i = 0; i < 100000; ++i) m.Add(rng.NextDouble());
  EXPECT_NEAR(m.mean(), 0.5, 0.01);
  EXPECT_NEAR(m.variance(), 1.0 / 12.0, 0.01);
}

TEST(RngTest, NextIntCoversRangeInclusive) {
  Rng rng(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const int64_t v = rng.NextInt(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    saw_lo |= (v == 3);
    saw_hi |= (v == 7);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NextIntSingleton) {
  Rng rng(12);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.NextInt(5, 5), 5);
}

TEST(RngTest, NextIntIsUnbiased) {
  // Chi-squared-ish sanity check over 10 buckets.
  Rng rng(13);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[static_cast<size_t>(rng.NextInt(0, 9))];
  for (int c : counts) {
    EXPECT_NEAR(c, n / 10, n / 10 * 0.1);
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(14);
  RunningMoments m;
  for (int i = 0; i < 200000; ++i) m.Add(rng.NextGaussian());
  EXPECT_NEAR(m.mean(), 0.0, 0.01);
  EXPECT_NEAR(m.variance(), 1.0, 0.02);
}

TEST(RngTest, NextBoolProbability) {
  Rng rng(15);
  int heads = 0;
  for (int i = 0; i < 100000; ++i) {
    if (rng.NextBool(0.3)) ++heads;
  }
  EXPECT_NEAR(heads / 100000.0, 0.3, 0.01);
}

TEST(RngTest, NextBoolExtremes) {
  Rng rng(16);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.NextBool(0.0));
    EXPECT_TRUE(rng.NextBool(1.0));
  }
}

// --- Delay samplers -------------------------------------------------------

struct SamplerCase {
  const char* name;
  std::unique_ptr<DelaySampler> (*make)();
  double mean_tolerance_frac;
};

// gtest names a case by printing it; without this it dumps the raw bytes,
// and the pointers in them make the test name change from run to run.
void PrintTo(const SamplerCase& c, std::ostream* os) { *os << c.name; }

std::unique_ptr<DelaySampler> MakeConst() {
  return std::make_unique<ConstantDelay>(500.0);
}
std::unique_ptr<DelaySampler> MakeUniform() {
  return std::make_unique<UniformDelay>(100.0, 900.0);
}
std::unique_ptr<DelaySampler> MakeExp() {
  return std::make_unique<ExponentialDelay>(400.0);
}
std::unique_ptr<DelaySampler> MakeNormal() {
  return std::make_unique<NormalDelay>(500.0, 50.0);
}
std::unique_ptr<DelaySampler> MakeLogNormal() {
  return std::make_unique<LogNormalDelay>(5.0, 0.5);
}
std::unique_ptr<DelaySampler> MakePareto() {
  return std::make_unique<ParetoDelay>(100.0, 3.0);
}

class DelaySamplerTest
    : public ::testing::TestWithParam<SamplerCase> {};

TEST_P(DelaySamplerTest, SamplesNonNegative) {
  auto sampler = GetParam().make();
  Rng rng(17);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_GE(sampler->Sample(&rng), 0.0);
  }
}

TEST_P(DelaySamplerTest, EmpiricalMeanMatchesAnalytic) {
  auto sampler = GetParam().make();
  Rng rng(18);
  RunningMoments m;
  for (int i = 0; i < 200000; ++i) m.Add(sampler->Sample(&rng));
  const double expected = sampler->Mean();
  EXPECT_NEAR(m.mean(), expected,
              expected * GetParam().mean_tolerance_frac + 1e-9)
      << sampler->Describe();
}

TEST_P(DelaySamplerTest, DescribeIsNonEmpty) {
  auto sampler = GetParam().make();
  EXPECT_FALSE(sampler->Describe().empty());
}

INSTANTIATE_TEST_SUITE_P(
    AllSamplers, DelaySamplerTest,
    ::testing::Values(SamplerCase{"constant", &MakeConst, 0.0},
                      SamplerCase{"uniform", &MakeUniform, 0.02},
                      SamplerCase{"exponential", &MakeExp, 0.02},
                      SamplerCase{"normal", &MakeNormal, 0.02},
                      SamplerCase{"lognormal", &MakeLogNormal, 0.03},
                      SamplerCase{"pareto", &MakePareto, 0.05}),
    [](const ::testing::TestParamInfo<SamplerCase>& info) {
      return info.param.name;
    });

TEST(ParetoDelayTest, InfiniteMeanForAlphaLeqOne) {
  ParetoDelay p(100.0, 1.0);
  EXPECT_TRUE(std::isinf(p.Mean()));
}

TEST(LogNormalDelayTest, AnalyticMean) {
  LogNormalDelay d(0.0, 1.0);
  EXPECT_NEAR(d.Mean(), std::exp(0.5), 1e-12);
}

TEST(ZipfSamplerTest, SkewConcentratesOnSmallKeys) {
  ZipfSampler zipf(1000, 1.2);
  Rng rng(19);
  int64_t first_decile = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    if (zipf.Sample(&rng) < 100) ++first_decile;
  }
  // With s=1.2 the head is much heavier than uniform (10%).
  EXPECT_GT(first_decile, n / 2);
}

TEST(ZipfSamplerTest, CoversDomain) {
  ZipfSampler zipf(5, 0.5);
  Rng rng(20);
  std::vector<int> counts(5, 0);
  for (int i = 0; i < 20000; ++i) {
    const int64_t k = zipf.Sample(&rng);
    ASSERT_GE(k, 0);
    ASSERT_LT(k, 5);
    ++counts[static_cast<size_t>(k)];
  }
  for (int c : counts) EXPECT_GT(c, 0);
  // Monotone decreasing frequencies.
  for (size_t i = 1; i < counts.size(); ++i) {
    EXPECT_GE(counts[i - 1], counts[i] * 3 / 4);
  }
}

TEST(ZipfSamplerTest, SingleKey) {
  ZipfSampler zipf(1, 2.0);
  Rng rng(21);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(zipf.Sample(&rng), 0);
}

}  // namespace
}  // namespace streamq
