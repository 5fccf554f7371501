#include "disorder/lb_kslack.h"

#include <gtest/gtest.h>

#include "core/continuous_query.h"
#include "tests/test_util.h"

namespace streamq {
namespace {

LbKSlack::Options WithBudget(DurationUs budget) {
  LbKSlack::Options o;
  o.latency_budget = budget;
  return o;
}

double AchievedCoverage(const DisorderHandlerStats& stats) {
  return 1.0 - static_cast<double>(stats.events_late) /
                   static_cast<double>(stats.events_in);
}

TEST(LbKSlackTest, OrderingContractHolds) {
  for (DurationUs budget : {Millis(2), Millis(10), Millis(50)}) {
    LbKSlack handler(WithBudget(budget));
    testutil::ContractCheckingSink sink;
    testutil::RunHandler(&handler,
                         testutil::DisorderedWorkload(5000).arrival_order,
                         &sink);
    EXPECT_TRUE(sink.ordered) << budget;
    EXPECT_TRUE(sink.respects_watermark) << budget;
    EXPECT_TRUE(sink.watermarks_monotone) << budget;
  }
}

TEST(LbKSlackTest, ConservationOfTuples) {
  LbKSlack handler(WithBudget(Millis(10)));
  CollectingSink sink;
  const auto w = testutil::DisorderedWorkload(5000);
  testutil::RunHandler(&handler, w.arrival_order, &sink);
  EXPECT_EQ(sink.events.size() + sink.late_events.size(),
            w.arrival_order.size());
}

class LbKSlackBudgetTest : public ::testing::TestWithParam<DurationUs> {};

TEST_P(LbKSlackBudgetTest, MeanLatencyNearBudget) {
  const DurationUs budget = GetParam();
  LbKSlack handler(WithBudget(budget));
  CollectingSink sink;
  testutil::RunHandler(&handler,
                       testutil::DisorderedWorkload(40000, 23).arrival_order,
                       &sink);
  const double mean = handler.stats().buffering_latency_us.mean();
  // Within 40% of the budget (the loop regulates a noisy plant; what
  // matters is the order of magnitude and no runaway).
  EXPECT_GT(mean, static_cast<double>(budget) * 0.6) << budget;
  EXPECT_LT(mean, static_cast<double>(budget) * 1.4) << budget;
}

INSTANTIATE_TEST_SUITE_P(Budgets, LbKSlackBudgetTest,
                         ::testing::Values(Millis(5), Millis(15), Millis(40)));

TEST(LbKSlackTest, LargerBudgetBuysMoreQuality) {
  const auto w = testutil::DisorderedWorkload(40000, 29);
  double prev_coverage = -1.0;
  for (DurationUs budget : {Millis(3), Millis(12), Millis(50)}) {
    LbKSlack handler(WithBudget(budget));
    CollectingSink sink;
    testutil::RunHandler(&handler, w.arrival_order, &sink);
    const double coverage = AchievedCoverage(handler.stats());
    EXPECT_GT(coverage, prev_coverage) << budget;
    prev_coverage = coverage;
  }
  EXPECT_GT(prev_coverage, 0.9);  // 50ms budget on 20ms-mean delays.
}

TEST(LbKSlackTest, AdaptsToDelayShift) {
  // After delays shrink, the operator should spend the freed budget is
  // moot — latency stays near budget, and K shrinks with the delays.
  WorkloadConfig cfg;
  cfg.num_events = 40000;
  cfg.delay.model = DelayModel::kExponential;
  cfg.delay.a = 20000.0;
  cfg.dynamics.kind = DynamicsKind::kStep;
  cfg.dynamics.factor = 0.2;
  cfg.dynamics.t0 = Seconds(2);
  cfg.seed = 31;
  const auto w = GenerateWorkload(cfg);

  LbKSlack handler(WithBudget(Millis(15)));
  CollectingSink sink;
  // Track K at the end of each regime.
  DurationUs k_before = 0;
  for (const Event& e : w.arrival_order) {
    handler.OnEvent(e, &sink);
    if (e.arrival_time < Seconds(2)) k_before = handler.current_slack();
  }
  const DurationUs k_after = handler.current_slack();
  handler.Flush(&sink);
  // With 5x smaller delays, achieving the same latency budget allows a
  // relatively *higher* coverage; K tracks the (smaller) delay quantiles.
  EXPECT_LT(k_after, k_before);
}

TEST(LbKSlackTest, InstrumentationPopulated) {
  LbKSlack handler(WithBudget(Millis(10)));
  CollectingSink sink;
  testutil::RunHandler(&handler,
                       testutil::DisorderedWorkload(5000).arrival_order,
                       &sink);
  EXPECT_GE(handler.setpoint(), 0.0);
  EXPECT_LE(handler.setpoint(), 1.0);
  EXPECT_GT(handler.last_interval_latency(), 0.0);
  EXPECT_EQ(handler.name(), "lb-kslack");
}

TEST(LbKSlackTest, RejectsBadOptions) {
  EXPECT_DEATH(LbKSlack handler(WithBudget(0)), "Check failed");
  LbKSlack::Options o = WithBudget(Millis(10));
  o.adaptation_interval = 0;
  EXPECT_DEATH(LbKSlack handler(o), "Check failed");
  LbKSlack::Options o2 = WithBudget(Millis(10));
  o2.sketch_window = 0;
  EXPECT_DEATH(LbKSlack handler(o2), "Check failed");
}

TEST(LbKSlackTest, BuilderIntegration) {
  const ContinuousQuery q = QueryBuilder("lb")
                                .Tumbling(Millis(50))
                                .Aggregate("sum")
                                .LatencyBudget(Millis(10))
                                .Build();
  EXPECT_EQ(q.handler.kind, DisorderHandlerSpec::Kind::kLbKSlack);
  EXPECT_NE(q.Describe().find("lb-kslack"), std::string::npos);
  auto handler = MakeDisorderHandlerOrDie(q.handler);
  EXPECT_EQ(handler->name(), "lb-kslack");
}

}  // namespace
}  // namespace streamq
