#include "core/multi_query.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "quality/oracle.h"
#include "quality/quality_metrics.h"
#include "tests/test_util.h"

namespace streamq {
namespace {

ContinuousQuery MakeQuery(const std::string& name, double target,
                          AggKind kind = AggKind::kSum) {
  AggregateSpec agg;
  agg.kind = kind;
  return QueryBuilder(name)
      .Tumbling(Millis(50))
      .Aggregate(agg)
      .QualityTarget(target, /*gamma=*/1.0)
      .Build();
}

TEST(MultiQueryTest, SharedSpecPicksStrictestTarget) {
  const std::vector<ContinuousQuery> queries = {
      MakeQuery("a", 0.85), MakeQuery("b", 0.99), MakeQuery("c", 0.90)};
  const DisorderHandlerSpec spec = MultiQueryRunner::SharedHandlerSpec(queries);
  EXPECT_EQ(spec.kind, DisorderHandlerSpec::Kind::kAqKSlack);
  EXPECT_DOUBLE_EQ(spec.quality.target_quality, 0.99);
}

TEST(MultiQueryTest, SharedSpecFallsBackToFirstHandler) {
  ContinuousQuery fixed = MakeQuery("f", 0.9);
  fixed.handler = DisorderHandlerSpec::Fixed(Millis(7));
  ContinuousQuery pass = MakeQuery("p", 0.9);
  pass.handler = DisorderHandlerSpec::PassThrough();
  const DisorderHandlerSpec spec =
      MultiQueryRunner::SharedHandlerSpec({fixed, pass});
  EXPECT_EQ(spec.kind, DisorderHandlerSpec::Kind::kFixedKSlack);
  EXPECT_EQ(spec.fixed_k, Millis(7));
}

TEST(MultiQueryTest, IndependentMatchesSingleQueryRuns) {
  const auto w = testutil::DisorderedWorkload(10000);
  const ContinuousQuery q1 = MakeQuery("q1", 0.90);
  const ContinuousQuery q2 = MakeQuery("q2", 0.99, AggKind::kCount);

  MultiQueryRunner runner(MultiQueryRunner::Plan::kIndependent);
  runner.AddQuery(q1);
  runner.AddQuery(q2);
  VectorSource source(w.arrival_order);
  const auto reports = runner.Run(&source);
  ASSERT_EQ(reports.size(), 2u);

  for (size_t i = 0; i < 2; ++i) {
    QueryExecutor solo(i == 0 ? q1 : q2);
    VectorSource solo_source(w.arrival_order);
    const RunReport solo_report = solo.Run(&solo_source);
    ASSERT_EQ(reports[i].results.size(), solo_report.results.size())
        << reports[i].query_name;
    for (size_t j = 0; j < solo_report.results.size(); ++j) {
      EXPECT_EQ(reports[i].results[j].bounds, solo_report.results[j].bounds);
      EXPECT_DOUBLE_EQ(reports[i].results[j].value,
                       solo_report.results[j].value);
    }
  }
}

TEST(MultiQueryTest, SharedHandlerMeetsEveryTarget) {
  const auto w = testutil::DisorderedWorkload(30000, 3);
  MultiQueryRunner runner(MultiQueryRunner::Plan::kSharedHandler);
  runner.AddQuery(MakeQuery("loose", 0.85));
  runner.AddQuery(MakeQuery("strict", 0.97));
  VectorSource source(w.arrival_order);
  const auto reports = runner.Run(&source);
  ASSERT_EQ(reports.size(), 2u);

  AggregateSpec sum;
  sum.kind = AggKind::kSum;
  const OracleEvaluator oracle(w.arrival_order, WindowSpec::Tumbling(Millis(50)),
                               sum);
  for (const RunReport& r : reports) {
    const QualityReport quality = EvaluateQuality(r.results, oracle);
    // The shared handler runs at the strictest target, so both queries see
    // quality >= 0.97-ish.
    EXPECT_GE(quality.MeanQualityIncludingMissed(), 0.93) << r.query_name;
  }
  // Both reports describe the same shared handler.
  EXPECT_EQ(reports[0].handler_stats.events_in,
            reports[1].handler_stats.events_in);
  EXPECT_EQ(reports[0].final_slack, reports[1].final_slack);
}

TEST(MultiQueryTest, SharedHandlerCostsLooseQueriesLatency) {
  // The documented trade-off: under sharing, the loose query inherits the
  // strict query's buffering latency.
  const auto w = testutil::DisorderedWorkload(30000, 5);

  MultiQueryRunner shared(MultiQueryRunner::Plan::kSharedHandler);
  shared.AddQuery(MakeQuery("loose", 0.80));
  shared.AddQuery(MakeQuery("strict", 0.99));
  VectorSource s1(w.arrival_order);
  const auto shared_reports = shared.Run(&s1);

  MultiQueryRunner indep(MultiQueryRunner::Plan::kIndependent);
  indep.AddQuery(MakeQuery("loose", 0.80));
  indep.AddQuery(MakeQuery("strict", 0.99));
  VectorSource s2(w.arrival_order);
  const auto indep_reports = indep.Run(&s2);

  const double shared_loose_latency =
      shared_reports[0].handler_stats.buffering_latency_us.mean();
  const double indep_loose_latency =
      indep_reports[0].handler_stats.buffering_latency_us.mean();
  EXPECT_GT(shared_loose_latency, indep_loose_latency * 1.5);
}

TEST(MultiQueryTest, ManyQueriesOneStream) {
  const auto w = testutil::DisorderedWorkload(10000);
  MultiQueryRunner runner(MultiQueryRunner::Plan::kSharedHandler);
  const AggKind kinds[] = {AggKind::kSum, AggKind::kCount, AggKind::kMean,
                           AggKind::kMax, AggKind::kMin};
  int i = 0;
  for (AggKind kind : kinds) {
    // Built via += to dodge GCC 12's -Wrestrict false positive on
    // operator+(const char*, string&&) (GCC PR105651).
    std::string name = "q";
    name += std::to_string(i++);
    runner.AddQuery(MakeQuery(name, 0.95, kind));
  }
  VectorSource source(w.arrival_order);
  const auto reports = runner.Run(&source);
  ASSERT_EQ(reports.size(), 5u);
  for (const RunReport& r : reports) {
    EXPECT_GT(r.results.size(), 10u) << r.query_name;
    EXPECT_EQ(r.events_processed,
              static_cast<int64_t>(w.arrival_order.size()));
  }
}

TEST(MultiQueryTest, BothPlansReportAmendments) {
  // A 5 ms slack under 20 ms mean delay leaves many late tuples; 10 s of
  // allowed lateness turns each into a revision of an already fired window.
  const auto w = testutil::DisorderedWorkload(10000);
  const ContinuousQuery q = QueryBuilder("amend")
                                .Tumbling(Millis(50))
                                .Aggregate("sum")
                                .FixedSlack(Millis(5))
                                .AllowedLateness(Seconds(10))
                                .Build();
  for (const auto plan : {MultiQueryRunner::Plan::kIndependent,
                          MultiQueryRunner::Plan::kSharedHandler}) {
    MultiQueryRunner runner(plan);
    runner.AddQuery(q);
    VectorSource source(w.arrival_order);
    const auto reports = runner.Run(&source);
    ASSERT_EQ(reports.size(), 1u);
    EXPECT_GT(reports[0].window_stats.revisions, 0);
    EXPECT_EQ(reports[0].results_amended, reports[0].window_stats.revisions)
        << "plan " << static_cast<int>(plan);
  }
}

TEST(MultiQueryTest, BothPlansValidateIngest) {
  // One NaN value and one negative timestamp: kDrop rejects both, and the
  // shared plan must reject them too instead of folding them.
  std::vector<Event> events = testutil::DisorderedWorkload(5000).arrival_order;
  events[1000].value = std::numeric_limits<double>::quiet_NaN();
  events[3000].event_time = -5;
  const auto query = [](const std::string& name, const char* agg) {
    return QueryBuilder(name)
        .Tumbling(Millis(50))
        .Aggregate(agg)
        .FixedSlack(Millis(20))
        .ValidateIngest(IngestValidation::kDrop)
        .Build();
  };
  std::vector<std::vector<RunReport>> by_plan;
  for (const auto plan : {MultiQueryRunner::Plan::kIndependent,
                          MultiQueryRunner::Plan::kSharedHandler}) {
    MultiQueryRunner runner(plan);
    runner.AddQuery(query("sum", "sum"));
    runner.AddQuery(query("max", "max"));
    VectorSource source(events);
    by_plan.push_back(runner.Run(&source));
  }
  const auto& independent = by_plan[0];
  const auto& shared = by_plan[1];
  ASSERT_EQ(shared.size(), 2u);
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(independent[i].events_rejected, 2) << independent[i].query_name;
    EXPECT_EQ(shared[i].events_rejected, independent[i].events_rejected)
        << shared[i].query_name;
    EXPECT_EQ(shared[i].events_processed, independent[i].events_processed);
    EXPECT_TRUE(shared[i].status.ok());
    ASSERT_EQ(shared[i].results.size(), independent[i].results.size());
    for (size_t j = 0; j < shared[i].results.size(); ++j) {
      EXPECT_EQ(shared[i].results[j].bounds, independent[i].results[j].bounds);
      EXPECT_EQ(shared[i].results[j].value, independent[i].results[j].value);
    }
  }

  // Strict on any query makes the shared feed strict for all of them.
  MultiQueryRunner runner(MultiQueryRunner::Plan::kSharedHandler);
  runner.AddQuery(query("drop", "sum"));
  ContinuousQuery strict = query("strict", "max");
  strict.validation = IngestValidation::kStrict;
  runner.AddQuery(strict);
  VectorSource source(events);
  for (const RunReport& r : runner.Run(&source)) {
    EXPECT_EQ(r.events_rejected, 1) << r.query_name;
    EXPECT_FALSE(r.status.ok()) << r.query_name;
  }
}

TEST(MultiQueryTest, RunWithoutQueriesAborts) {
  MultiQueryRunner runner(MultiQueryRunner::Plan::kIndependent);
  VectorSource source({});
  EXPECT_DEATH(runner.Run(&source), "no queries added");
}

}  // namespace
}  // namespace streamq
