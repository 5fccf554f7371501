#include "core/executor.h"

#include <gtest/gtest.h>

#include <cmath>

#include "quality/oracle.h"
#include "quality/quality_metrics.h"
#include "stream/generator.h"
#include "tests/test_util.h"

namespace streamq {
namespace {

GeneratedWorkload Workload(int64_t n = 10000, uint64_t seed = 42) {
  return testutil::DisorderedWorkload(n, seed);
}

TEST(QueryBuilderTest, DefaultsToQualityDriven) {
  const ContinuousQuery q = QueryBuilder("q").Tumbling(Seconds(1)).Build();
  EXPECT_EQ(q.handler.kind, DisorderHandlerSpec::Kind::kAqKSlack);
  EXPECT_DOUBLE_EQ(q.handler.quality.target_quality, 0.95);
  EXPECT_TRUE(q.Validate().ok());
}

TEST(QueryBuilderTest, AggregateGammaIsWiredAutomatically) {
  const ContinuousQuery q = QueryBuilder("q")
                                .Tumbling(Seconds(1))
                                .Aggregate("max")
                                .QualityTarget(0.9)
                                .Build();
  EXPECT_DOUBLE_EQ(q.handler.quality_gamma, DefaultQualityGamma(AggKind::kMax));
}

TEST(QueryBuilderTest, ExplicitGammaWins) {
  const ContinuousQuery q = QueryBuilder("q")
                                .Tumbling(Seconds(1))
                                .Aggregate("max")
                                .QualityTarget(0.9, /*gamma=*/1.0)
                                .Build();
  EXPECT_DOUBLE_EQ(q.handler.quality_gamma, 1.0);
}

TEST(QueryBuilderTest, StrategySelection) {
  EXPECT_EQ(QueryBuilder("q").FixedSlack(Millis(5)).Build().handler.kind,
            DisorderHandlerSpec::Kind::kFixedKSlack);
  EXPECT_EQ(QueryBuilder("q").AdaptiveMaxSlack().Build().handler.kind,
            DisorderHandlerSpec::Kind::kMpKSlack);
  EXPECT_EQ(QueryBuilder("q").NoDisorderHandling().Build().handler.kind,
            DisorderHandlerSpec::Kind::kPassThrough);
  WatermarkReorderer::Options wm;
  EXPECT_EQ(QueryBuilder("q").Watermark(wm).Build().handler.kind,
            DisorderHandlerSpec::Kind::kWatermark);
}

TEST(QueryBuilderTest, DescribeMentionsEverything) {
  const ContinuousQuery q = QueryBuilder("my-query")
                                .Sliding(Seconds(10), Seconds(1))
                                .Aggregate("mean")
                                .QualityTarget(0.9)
                                .Build();
  const std::string d = q.Describe();
  EXPECT_NE(d.find("my-query"), std::string::npos);
  EXPECT_NE(d.find("sliding"), std::string::npos);
  EXPECT_NE(d.find("mean"), std::string::npos);
  EXPECT_NE(d.find("aq-kslack"), std::string::npos);
}

TEST(QueryExecutorTest, RunProducesResults) {
  const auto w = Workload();
  const ContinuousQuery q = QueryBuilder("q")
                                .Tumbling(Millis(50))
                                .Aggregate("sum")
                                .QualityTarget(0.95)
                                .Build();
  QueryExecutor exec(q);
  VectorSource source(w.arrival_order);
  const RunReport report = exec.Run(&source);

  EXPECT_EQ(report.events_processed,
            static_cast<int64_t>(w.arrival_order.size()));
  EXPECT_GT(report.results.size(), 10u);
  EXPECT_GT(report.throughput_eps, 0.0);
  EXPECT_GT(report.wall_seconds, 0.0);
  EXPECT_GT(report.final_slack, 0);
}

TEST(QueryExecutorTest, FixedSlackFullCoverageMatchesOracle) {
  const auto w = Workload(5000);
  const ContinuousQuery q = QueryBuilder("exact")
                                .Tumbling(Millis(50))
                                .Aggregate("sum")
                                .FixedSlack(Seconds(1000))
                                .Build();
  QueryExecutor exec(q);
  VectorSource source(w.arrival_order);
  const RunReport report = exec.Run(&source);

  const OracleEvaluator oracle(w.arrival_order, q.window.window,
                               q.window.aggregate);
  const QualityReport quality = EvaluateQuality(report.results, oracle);
  EXPECT_EQ(quality.missed_windows, 0);
  EXPECT_NEAR(quality.value_quality.mean, 1.0, 1e-9);
}

TEST(QueryExecutorTest, QualityDrivenMeetsTargetApproximately) {
  const auto w = Workload(30000, 5);
  for (double target : {0.85, 0.95}) {
    QueryExecutor exec(QueryBuilder("aq")
                           .Tumbling(Millis(50))
                           .Aggregate("sum")
                           .QualityTarget(target)
                           .Build());
    VectorSource source(w.arrival_order);
    const RunReport report = exec.Run(&source);
    const OracleEvaluator oracle(w.arrival_order, WindowSpec::Tumbling(Millis(50)),
                                 exec.query().window.aggregate);
    const QualityReport quality = EvaluateQuality(report.results, oracle);
    EXPECT_GE(quality.MeanQualityIncludingMissed(), target - 0.05)
        << "target=" << target;
  }
}

TEST(QueryExecutorTest, SpeculativePipelineEmitsRevisions) {
  const auto w = Workload(5000);
  QueryExecutor exec(QueryBuilder("spec")
                         .Tumbling(Millis(50))
                         .Aggregate("count")
                         .NoDisorderHandling()
                         .AllowedLateness(Seconds(10))
                         .Build());
  VectorSource source(w.arrival_order);
  const RunReport report = exec.Run(&source);
  EXPECT_GT(report.window_stats.revisions, 0);
  // First emissions appear immediately: near-zero response latency.
  const auto latencies = ResponseLatencies(report.results);
  const DistributionSummary s = Summarize(latencies);
  EXPECT_LT(s.p50, static_cast<double>(Millis(5)));
}

TEST(QueryExecutorTest, IncrementalFeedMatchesRun) {
  const auto w = Workload(3000);
  const ContinuousQuery q = QueryBuilder("inc")
                                .Tumbling(Millis(50))
                                .Aggregate("sum")
                                .FixedSlack(Millis(20))
                                .Build();
  QueryExecutor a(q);
  VectorSource source(w.arrival_order);
  const RunReport ra = a.Run(&source);

  QueryExecutor b(q);
  for (const Event& e : w.arrival_order) b.Feed(e);
  b.Finish();
  const RunReport rb = b.Report();

  ASSERT_EQ(ra.results.size(), rb.results.size());
  for (size_t i = 0; i < ra.results.size(); ++i) {
    EXPECT_EQ(ra.results[i].bounds, rb.results[i].bounds);
    EXPECT_DOUBLE_EQ(ra.results[i].value, rb.results[i].value);
  }
}

TEST(QueryExecutorTest, ReportToStringMentionsQuery) {
  const auto w = Workload(1000);
  QueryExecutor exec(QueryBuilder("named-query")
                         .Tumbling(Millis(50))
                         .Aggregate("sum")
                         .FixedSlack(Millis(5))
                         .Build());
  VectorSource source(w.arrival_order);
  const RunReport report = exec.Run(&source);
  EXPECT_NE(report.ToString().find("named-query"), std::string::npos);
}

TEST(QueryExecutorTest, HandlerAndWindowViews) {
  QueryExecutor exec(
      QueryBuilder("q").Tumbling(Millis(10)).Aggregate("sum").Build());
  EXPECT_EQ(exec.handler_view().name(), "aq-kslack");
  EXPECT_EQ(exec.handler_view().buffered(), 0u);
  EXPECT_EQ(exec.window_view().live_windows(), 0u);
}

TEST(HandlerFactoryTest, DescribeAllKinds) {
  EXPECT_EQ(DisorderHandlerSpec::PassThrough().Describe(), "pass-through");
  EXPECT_NE(DisorderHandlerSpec::Fixed(Millis(5)).Describe().find("fixed"),
            std::string::npos);
  EXPECT_NE(DisorderHandlerSpec::Mp({}).Describe().find("mp-kslack"),
            std::string::npos);
  EXPECT_NE(DisorderHandlerSpec::Aq({}).Describe().find("aq-kslack"),
            std::string::npos);
  EXPECT_NE(DisorderHandlerSpec::Watermark({}).Describe().find("watermark"),
            std::string::npos);
}

TEST(HandlerFactoryTest, MakesMatchingHandlers) {
  EXPECT_EQ(MakeDisorderHandlerOrDie(DisorderHandlerSpec::PassThrough())->name(),
            "pass-through");
  EXPECT_EQ(MakeDisorderHandlerOrDie(DisorderHandlerSpec::Fixed(1))->name(),
            "fixed-kslack");
  EXPECT_EQ(MakeDisorderHandlerOrDie(DisorderHandlerSpec::Mp({}))->name(),
            "mp-kslack");
  EXPECT_EQ(MakeDisorderHandlerOrDie(DisorderHandlerSpec::Aq({}))->name(),
            "aq-kslack");
  EXPECT_EQ(MakeDisorderHandlerOrDie(DisorderHandlerSpec::Watermark({}))->name(),
            "watermark");
}

TEST(HandlerFactoryTest, RejectsInvalidSpecs) {
  std::unique_ptr<DisorderHandler> handler;
  EXPECT_FALSE(
      MakeDisorderHandler(DisorderHandlerSpec::Fixed(-1), &handler).ok());
  EXPECT_EQ(handler, nullptr);

  EXPECT_FALSE(
      MakeDisorderHandler(DisorderHandlerSpec::Aq({}, -0.5), &handler).ok());

  AqKSlack::Options bad_aq;
  bad_aq.target_quality = 1.5;
  EXPECT_FALSE(
      MakeDisorderHandler(DisorderHandlerSpec::Aq(bad_aq), &handler).ok());
  // NaN fails every range rule rather than slipping past it.
  bad_aq.target_quality = std::nan("");
  EXPECT_FALSE(
      MakeDisorderHandler(DisorderHandlerSpec::Aq(bad_aq), &handler).ok());
  EXPECT_FALSE(
      MakeDisorderHandler(DisorderHandlerSpec::Aq({}, std::nan("")), &handler)
          .ok());

  // An empty lateness sketch is an error, not an abort at construction.
  AqKSlack::Options no_sketch_aq;
  no_sketch_aq.sketch_window = 0;
  Status status =
      MakeDisorderHandler(DisorderHandlerSpec::Aq(no_sketch_aq), &handler);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("sketch_window"), std::string::npos);
  LbKSlack::Options no_sketch_lb;
  no_sketch_lb.sketch_window = 0;
  status = MakeDisorderHandler(DisorderHandlerSpec::Lb(no_sketch_lb), &handler);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("sketch_window"), std::string::npos);

  // The speculative handler runs on the sliding sketch only.
  SpeculativeHandler::Options reservoir_spec;
  reservoir_spec.estimator = QualityController::Estimator::kGlobalReservoir;
  EXPECT_FALSE(MakeDisorderHandler(
                   DisorderHandlerSpec::Speculative(reservoir_spec), &handler)
                   .ok());
  EXPECT_TRUE(MakeDisorderHandler(DisorderHandlerSpec::Speculative({}),
                                  &handler)
                  .ok());
  handler.reset();

  MpKSlack::Options bad_mp;
  bad_mp.window_size = 0;
  EXPECT_FALSE(
      MakeDisorderHandler(DisorderHandlerSpec::Mp(bad_mp), &handler).ok());

  LbKSlack::Options bad_lb;
  bad_lb.latency_budget = -Millis(1);
  EXPECT_FALSE(
      MakeDisorderHandler(DisorderHandlerSpec::Lb(bad_lb), &handler).ok());

  WatermarkReorderer::Options bad_wm;
  bad_wm.period_events = 0;
  EXPECT_FALSE(
      MakeDisorderHandler(DisorderHandlerSpec::Watermark(bad_wm), &handler)
          .ok());

  // A per-key wrapper validates its inner spec too.
  EXPECT_FALSE(
      MakeDisorderHandler(DisorderHandlerSpec::Fixed(-1).PerKey(), &handler)
          .ok());

  // The checked API also hands back valid handlers.
  EXPECT_TRUE(
      MakeDisorderHandler(DisorderHandlerSpec::Fixed(Millis(5)), &handler)
          .ok());
  ASSERT_NE(handler, nullptr);
  EXPECT_EQ(handler->name(), "fixed-kslack");
}

TEST(HandlerFactoryTest, AqGammaConfiguresPowerModel) {
  auto handler = MakeDisorderHandlerOrDie(DisorderHandlerSpec::Aq({}, 0.5));
  auto* aq = dynamic_cast<AqKSlack*>(handler.get());
  ASSERT_NE(aq, nullptr);
  EXPECT_EQ(aq->controller().quality_model().name(), "power");
}

}  // namespace
}  // namespace streamq
