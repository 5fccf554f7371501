#include "control/quality_model.h"

#include <gtest/gtest.h>

#include <cmath>

namespace streamq {
namespace {

TEST(CoverageQualityModelTest, IsIdentity) {
  CoverageQualityModel m;
  EXPECT_DOUBLE_EQ(m.QualityFromCoverage(0.0), 0.0);
  EXPECT_DOUBLE_EQ(m.QualityFromCoverage(0.7), 0.7);
  EXPECT_DOUBLE_EQ(m.QualityFromCoverage(1.0), 1.0);
  EXPECT_DOUBLE_EQ(m.CoverageForQuality(0.9), 0.9);
}

TEST(CoverageQualityModelTest, Clamps) {
  CoverageQualityModel m;
  EXPECT_DOUBLE_EQ(m.QualityFromCoverage(-0.5), 0.0);
  EXPECT_DOUBLE_EQ(m.QualityFromCoverage(2.0), 1.0);
  EXPECT_DOUBLE_EQ(m.CoverageForQuality(2.0), 1.0);
}

class PowerModelGammaTest : public ::testing::TestWithParam<double> {};

TEST_P(PowerModelGammaTest, RoundTripInverse) {
  const double gamma = GetParam();
  PowerQualityModel m(gamma);
  for (double q : {0.1, 0.5, 0.8, 0.9, 0.95, 0.99, 1.0}) {
    const double c = m.CoverageForQuality(q);
    EXPECT_NEAR(m.QualityFromCoverage(c), q, 1e-12) << "gamma=" << gamma;
  }
}

TEST_P(PowerModelGammaTest, MonotoneInCoverage) {
  PowerQualityModel m(GetParam());
  double prev = -1.0;
  for (double c = 0.0; c <= 1.0; c += 0.05) {
    const double q = m.QualityFromCoverage(c);
    EXPECT_GE(q, prev);
    prev = q;
  }
  EXPECT_DOUBLE_EQ(m.QualityFromCoverage(1.0), 1.0);
}

INSTANTIATE_TEST_SUITE_P(Gammas, PowerModelGammaTest,
                         ::testing::Values(0.1, 0.3, 0.5, 1.0, 1.5, 3.0));

TEST(PowerQualityModelTest, LowGammaIsRobust) {
  // gamma < 1: high quality at moderate coverage (max-like aggregates).
  PowerQualityModel robust(0.3);
  EXPECT_GT(robust.QualityFromCoverage(0.7), 0.89);
  // And correspondingly needs less coverage for the same target.
  PowerQualityModel proportional(1.0);
  EXPECT_LT(robust.CoverageForQuality(0.95),
            proportional.CoverageForQuality(0.95));
}

TEST(PowerQualityModelTest, HighGammaIsFragile) {
  PowerQualityModel fragile(2.0);
  EXPECT_NEAR(fragile.QualityFromCoverage(0.9), 0.81, 1e-12);
  EXPECT_GT(fragile.CoverageForQuality(0.9), 0.94);
}

TEST(PowerQualityModelTest, GammaOneEqualsIdentity) {
  PowerQualityModel m(1.0);
  CoverageQualityModel id;
  for (double c : {0.0, 0.3, 0.5, 0.77, 1.0}) {
    EXPECT_DOUBLE_EQ(m.QualityFromCoverage(c), id.QualityFromCoverage(c));
  }
}

TEST(PowerQualityModelTest, RejectsNonPositiveGamma) {
  EXPECT_DEATH(PowerQualityModel m(0.0), "Check failed");
  EXPECT_DEATH(PowerQualityModel m(-1.0), "Check failed");
}

TEST(QualityModelFactoryTest, Factories) {
  auto cov = MakeCoverageQualityModel();
  EXPECT_EQ(cov->name(), "coverage");
  auto pow = MakePowerQualityModel(0.5);
  EXPECT_EQ(pow->name(), "power");
}

}  // namespace
}  // namespace streamq
