#include "disorder/aq_kslack.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/pipeline_observer.h"
#include "disorder/fixed_kslack.h"
#include "stream/disorder_metrics.h"
#include "tests/test_util.h"

namespace streamq {
namespace {

AqKSlack::Options WithTarget(double q) {
  AqKSlack::Options o;
  o.target_quality = q;
  return o;
}

/// Records every adaptation step the handler reports.
class AdaptationCollector : public PipelineObserver {
 public:
  void OnAdaptation(const AdaptationSample& sample) override {
    trace.push_back(sample);
  }
  std::vector<AdaptationSample> trace;
};

/// Achieved coverage over a run: released / total.
double AchievedCoverage(const DisorderHandlerStats& stats) {
  return 1.0 - static_cast<double>(stats.events_late) /
                   static_cast<double>(stats.events_in);
}

TEST(AqKSlackTest, OrderingContractHolds) {
  for (double target : {0.8, 0.9, 0.95, 0.99}) {
    AqKSlack handler(WithTarget(target));
    testutil::ContractCheckingSink sink;
    testutil::RunHandler(&handler,
                         testutil::DisorderedWorkload(5000).arrival_order,
                         &sink);
    EXPECT_TRUE(sink.ordered) << target;
    EXPECT_TRUE(sink.respects_watermark) << target;
    EXPECT_TRUE(sink.watermarks_monotone) << target;
  }
}

TEST(AqKSlackTest, ConservationOfTuples) {
  AqKSlack handler(WithTarget(0.9));
  CollectingSink sink;
  const auto w = testutil::DisorderedWorkload(5000);
  testutil::RunHandler(&handler, w.arrival_order, &sink);
  EXPECT_EQ(sink.events.size() + sink.late_events.size(),
            w.arrival_order.size());
}

class AqKSlackTargetTest : public ::testing::TestWithParam<double> {};

TEST_P(AqKSlackTargetTest, AchievesCoverageNearTarget) {
  const double target = GetParam();
  AqKSlack handler(WithTarget(target));
  CollectingSink sink;
  const auto w = testutil::DisorderedWorkload(30000, /*seed=*/11);
  testutil::RunHandler(&handler, w.arrival_order, &sink);
  const double achieved = AchievedCoverage(handler.stats());
  // Must reach the target (within noise) and not wildly overshoot toward
  // max-quality (which would betray uncontrolled buffering). Overshoot is
  // acceptable up to the point where it costs latency; the latency
  // comparison tests pin that down separately.
  EXPECT_GE(achieved, target - 0.03) << "target=" << target;
}

INSTANTIATE_TEST_SUITE_P(Targets, AqKSlackTargetTest,
                         ::testing::Values(0.80, 0.90, 0.95, 0.99));

TEST(AqKSlackTest, LowerTargetGivesLowerLatency) {
  const auto w = testutil::DisorderedWorkload(30000, 13);
  double latency_low, latency_high;
  {
    AqKSlack handler(WithTarget(0.80));
    CollectingSink sink;
    testutil::RunHandler(&handler, w.arrival_order, &sink);
    latency_low = handler.stats().buffering_latency_us.mean();
  }
  {
    AqKSlack handler(WithTarget(0.99));
    CollectingSink sink;
    testutil::RunHandler(&handler, w.arrival_order, &sink);
    latency_high = handler.stats().buffering_latency_us.mean();
  }
  EXPECT_LT(latency_low, latency_high);
}

TEST(AqKSlackTest, BeatsWorstCaseBufferingOnHeavyTail) {
  // At quality target 0.9 on Pareto delays, the quality-driven buffer must
  // be far below the max-lateness bound a disorder-bound tracker would use.
  WorkloadConfig cfg;
  cfg.num_events = 30000;
  cfg.delay.model = DelayModel::kPareto;
  cfg.delay.a = 2000.0;
  cfg.delay.b = 1.5;
  cfg.seed = 21;
  const auto w = GenerateWorkload(cfg);
  const DisorderStats stats = ComputeDisorderStats(w.arrival_order);

  AqKSlack handler(WithTarget(0.9));
  CollectingSink sink;
  testutil::RunHandler(&handler, w.arrival_order, &sink);
  EXPECT_GE(AchievedCoverage(handler.stats()), 0.87);
  EXPECT_LT(handler.current_slack(), stats.max_lateness_us / 2);
}

TEST(AqKSlackTest, AdaptsToStepChangeInDelays) {
  WorkloadConfig cfg;
  cfg.num_events = 40000;
  cfg.delay.model = DelayModel::kExponential;
  cfg.delay.a = 10000.0;
  cfg.dynamics.kind = DynamicsKind::kStep;
  cfg.dynamics.factor = 6.0;
  cfg.dynamics.t0 = Seconds(2);
  cfg.seed = 31;
  const auto w = GenerateWorkload(cfg);

  AqKSlack handler(WithTarget(0.95));
  AdaptationCollector observer;
  handler.set_observer(&observer);
  CollectingSink sink;
  testutil::RunHandler(&handler, w.arrival_order, &sink);

  const auto& trace = observer.trace;
  ASSERT_GT(trace.size(), 20u);
  // Slack after the step (steady state) must be well above slack before.
  double k_before = 0, k_after = 0;
  int n_before = 0, n_after = 0;
  for (const auto& rec : trace) {
    if (rec.stream_time < Seconds(2)) {
      k_before += static_cast<double>(rec.k);
      ++n_before;
    } else if (rec.stream_time > Seconds(3)) {  // Skip the transient.
      k_after += static_cast<double>(rec.k);
      ++n_after;
    }
  }
  ASSERT_GT(n_before, 0);
  ASSERT_GT(n_after, 0);
  k_before /= n_before;
  k_after /= n_after;
  EXPECT_GT(k_after, k_before * 3.0);
}

TEST(AqKSlackTest, ShrinksWhenDisorderVanishes) {
  WorkloadConfig cfg;
  cfg.num_events = 40000;
  cfg.delay.model = DelayModel::kExponential;
  cfg.delay.a = 20000.0;
  cfg.dynamics.kind = DynamicsKind::kStep;
  cfg.dynamics.factor = 0.05;  // Delays nearly disappear at t0.
  cfg.dynamics.t0 = Seconds(2);
  cfg.seed = 33;
  const auto w = GenerateWorkload(cfg);

  AqKSlack handler(WithTarget(0.95));
  AdaptationCollector observer;
  handler.set_observer(&observer);
  CollectingSink sink;
  testutil::RunHandler(&handler, w.arrival_order, &sink);

  const auto& trace = observer.trace;
  double k_before = 0, k_after = 0;
  int n_before = 0, n_after = 0;
  for (const auto& rec : trace) {
    if (rec.stream_time < Seconds(2)) {
      k_before += static_cast<double>(rec.k);
      ++n_before;
    } else if (rec.stream_time > Seconds(3)) {
      k_after += static_cast<double>(rec.k);
      ++n_after;
    }
  }
  ASSERT_GT(n_before, 0);
  ASSERT_GT(n_after, 0);
  EXPECT_LT(k_after / n_after, k_before / n_before * 0.5);
}

TEST(AqKSlackTest, PowerModelLowGammaBuffersLess) {
  // gamma = 0.3 (max-like): quality 0.95 needs coverage 0.95^(1/0.3)≈0.84,
  // so the buffer should be smaller than with the identity model.
  const auto w = testutil::DisorderedWorkload(30000, 17);
  double latency_identity, latency_power;
  {
    AqKSlack handler(WithTarget(0.95));
    CollectingSink sink;
    testutil::RunHandler(&handler, w.arrival_order, &sink);
    latency_identity = handler.stats().buffering_latency_us.mean();
  }
  {
    AqKSlack handler(WithTarget(0.95), MakePowerQualityModel(0.3));
    CollectingSink sink;
    testutil::RunHandler(&handler, w.arrival_order, &sink);
    latency_power = handler.stats().buffering_latency_us.mean();
  }
  EXPECT_LT(latency_power, latency_identity);
}

TEST(AqKSlackTest, InstrumentationIsPopulated) {
  AqKSlack handler(WithTarget(0.9));
  CollectingSink sink;
  testutil::RunHandler(&handler, testutil::DisorderedWorkload(5000).arrival_order,
                       &sink);
  EXPECT_GT(handler.current_slack(), 0);
  EXPECT_GT(handler.controller().setpoint(), 0.0);
  EXPECT_LE(handler.controller().setpoint(), 1.0);
  EXPECT_GT(handler.controller().measured_quality(), 0.0);
  EXPECT_LE(handler.controller().measured_quality(), 1.0);
}

TEST(AqKSlackTest, TraceOffByDefault) {
  // Adaptation steps reach only an installed observer.
  AdaptationCollector observer;
  const auto w = testutil::DisorderedWorkload(2000);
  {
    AqKSlack handler(WithTarget(0.9));
    CollectingSink sink;
    testutil::RunHandler(&handler, w.arrival_order, &sink);
  }
  EXPECT_TRUE(observer.trace.empty());
  AqKSlack handler(WithTarget(0.9));
  handler.set_observer(&observer);
  CollectingSink sink;
  testutil::RunHandler(&handler, w.arrival_order, &sink);
  EXPECT_FALSE(observer.trace.empty());
}

TEST(AqKSlackTest, RejectsBadOptions) {
  EXPECT_DEATH(AqKSlack handler(WithTarget(0.0)), "Check failed");
  EXPECT_DEATH(AqKSlack handler(WithTarget(1.5)), "Check failed");
  EXPECT_DEATH(AqKSlack handler(WithTarget(std::nan(""))), "Check failed");
  AqKSlack::Options o = WithTarget(0.9);
  o.adaptation_interval = 0;
  EXPECT_DEATH(AqKSlack handler(o), "Check failed");
  AqKSlack::Options o2 = WithTarget(0.9);
  o2.p_min = 0.9;
  o2.p_max = 0.5;
  EXPECT_DEATH(AqKSlack handler(o2), "Check failed");
  AqKSlack::Options o3 = WithTarget(0.9);
  o3.sketch_window = 0;
  EXPECT_DEATH(AqKSlack handler(o3), "sketch_window must be > 0");
}

TEST(AqKSlackTest, Name) {
  AqKSlack handler(WithTarget(0.9));
  EXPECT_EQ(handler.name(), "aq-kslack");
  EXPECT_EQ(handler.controller().quality_model().name(), "coverage");
}

}  // namespace
}  // namespace streamq
