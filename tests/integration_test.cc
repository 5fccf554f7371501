/// Cross-module integration tests: every disorder handler driving the full
/// pipeline on shared workloads, checking the system-level invariants the
/// paper's comparison rests on.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <ostream>

#include "core/executor.h"
#include "quality/oracle.h"
#include "quality/quality_metrics.h"
#include "stream/disorder_metrics.h"
#include "stream/generator.h"
#include "stream/trace_io.h"
#include "tests/test_util.h"

namespace streamq {
namespace {

struct PipelineCase {
  const char* name;
  DisorderHandlerSpec spec;
};

// gtest names a case by printing it; without this it dumps the raw bytes,
// and the pointers in them make the test name change from run to run.
void PrintTo(const PipelineCase& c, std::ostream* os) { *os << c.name; }

std::vector<PipelineCase> AllHandlers() {
  AqKSlack::Options aq;
  aq.target_quality = 0.95;
  LbKSlack::Options lb;
  lb.latency_budget = Millis(15);
  MpKSlack::Options mp;
  WatermarkReorderer::Options wm;
  wm.bound = Millis(30);
  wm.period_events = 16;
  wm.allowed_lateness = Millis(10);
  return {
      {"pass-through", DisorderHandlerSpec::PassThrough()},
      {"fixed-kslack", DisorderHandlerSpec::Fixed(Millis(30))},
      {"mp-kslack", DisorderHandlerSpec::Mp(mp)},
      {"aq-kslack", DisorderHandlerSpec::Aq(aq)},
      {"lb-kslack", DisorderHandlerSpec::Lb(lb)},
      {"watermark", DisorderHandlerSpec::Watermark(wm)},
  };
}

ContinuousQuery QueryWith(const DisorderHandlerSpec& spec) {
  ContinuousQuery q;
  q.name = "integration";
  q.handler = spec;
  q.window.window = WindowSpec::Tumbling(Millis(50));
  q.window.aggregate.kind = AggKind::kSum;
  return q;
}

class AllHandlersTest : public ::testing::TestWithParam<PipelineCase> {};

TEST_P(AllHandlersTest, PipelineRunsAndAccountsForEveryTuple) {
  const auto w = testutil::DisorderedWorkload(10000);
  QueryExecutor exec(QueryWith(GetParam().spec));
  VectorSource source(w.arrival_order);
  const RunReport report = exec.Run(&source);

  EXPECT_EQ(report.events_processed,
            static_cast<int64_t>(w.arrival_order.size()));
  // Handler conservation: in == out + late (drops are a subset of late).
  EXPECT_EQ(report.handler_stats.events_in,
            report.handler_stats.events_out + report.handler_stats.events_late);
  // Window operator saw every tuple the handler released or forwarded late
  // (minus watermark-reorderer drops, which never reach it).
  EXPECT_EQ(report.window_stats.events,
            report.handler_stats.events_out + report.handler_stats.events_late -
                report.handler_stats.events_dropped);
}

TEST_P(AllHandlersTest, EveryOracleWindowIsEventuallyProduced) {
  // All handlers fire every window at the terminal watermark, so no window
  // may be missing (its value may be partial — that is the quality metric).
  const auto w = testutil::DisorderedWorkload(5000);
  QueryExecutor exec(QueryWith(GetParam().spec));
  VectorSource source(w.arrival_order);
  const RunReport report = exec.Run(&source);

  const OracleEvaluator oracle(w.arrival_order, WindowSpec::Tumbling(Millis(50)),
                               exec.query().window.aggregate);
  const QualityReport quality = EvaluateQuality(report.results, oracle);
  EXPECT_EQ(quality.missed_windows, 0) << GetParam().name;
  EXPECT_EQ(quality.spurious_windows, 0) << GetParam().name;
}

TEST_P(AllHandlersTest, DeterministicAcrossRuns) {
  const auto w = testutil::DisorderedWorkload(5000);
  QueryExecutor a(QueryWith(GetParam().spec));
  QueryExecutor b(QueryWith(GetParam().spec));
  VectorSource sa(w.arrival_order), sb(w.arrival_order);
  const RunReport ra = a.Run(&sa);
  const RunReport rb = b.Run(&sb);
  ASSERT_EQ(ra.results.size(), rb.results.size());
  for (size_t i = 0; i < ra.results.size(); ++i) {
    EXPECT_EQ(ra.results[i].bounds, rb.results[i].bounds);
    EXPECT_DOUBLE_EQ(ra.results[i].value, rb.results[i].value);
  }
}

INSTANTIATE_TEST_SUITE_P(Handlers, AllHandlersTest,
                         ::testing::ValuesIn(AllHandlers()),
                         [](const ::testing::TestParamInfo<PipelineCase>& i) {
                           std::string name = i.param.name;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(IntegrationTest, QualityLatencyOrderingAcrossStrategies) {
  // The headline system-level property:
  //   pass-through:   lowest latency, lowest quality;
  //   mp-kslack:      highest quality, highest latency;
  //   aq-kslack@0.9:  quality >= 0.9 at latency between the two.
  WorkloadConfig cfg;
  cfg.num_events = 40000;
  cfg.delay.model = DelayModel::kLogNormal;
  cfg.delay.a = 9.5;  // exp(9.5) ~ 13ms median.
  cfg.delay.b = 1.0;  // Heavy-ish tail.
  cfg.seed = 3;
  const auto w = GenerateWorkload(cfg);
  const OracleEvaluator oracle(w.arrival_order, WindowSpec::Tumbling(Millis(50)),
                               AggregateSpec{.kind = AggKind::kSum});

  auto run = [&](const DisorderHandlerSpec& spec) {
    QueryExecutor exec(QueryWith(spec));
    VectorSource source(w.arrival_order);
    const RunReport report = exec.Run(&source);
    const QualityReport quality = EvaluateQuality(report.results, oracle);
    return std::pair<double, double>(
        quality.MeanQualityIncludingMissed(),
        report.handler_stats.buffering_latency_us.mean());
  };

  AqKSlack::Options aq;
  aq.target_quality = 0.90;
  const auto [q_pt, l_pt] = run(DisorderHandlerSpec::PassThrough());
  const auto [q_aq, l_aq] = run(DisorderHandlerSpec::Aq(aq));
  const auto [q_mp, l_mp] = run(DisorderHandlerSpec::Mp({}));

  EXPECT_LT(q_pt, 0.9);
  EXPECT_GE(q_aq, 0.87);
  EXPECT_GT(q_mp, q_aq - 0.02);
  EXPECT_LT(l_pt, l_aq);
  EXPECT_LT(l_aq, l_mp);
}

TEST(IntegrationTest, TraceRoundTripReproducesRun) {
  // Save a workload as a trace, reload, and verify the pipeline produces
  // identical results — the replay path used for "real" traces.
  const auto w = testutil::DisorderedWorkload(3000);
  const std::string path = ::testing::TempDir() + "/integration_trace.csv";
  ASSERT_TRUE(SaveTrace(path, w.arrival_order).ok());
  auto loaded = LoadTrace(path);
  ASSERT_TRUE(loaded.ok());

  QueryExecutor a(QueryWith(DisorderHandlerSpec::Fixed(Millis(20))));
  QueryExecutor b(QueryWith(DisorderHandlerSpec::Fixed(Millis(20))));
  VectorSource sa(w.arrival_order), sb(loaded.value());
  const RunReport ra = a.Run(&sa);
  const RunReport rb = b.Run(&sb);
  ASSERT_EQ(ra.results.size(), rb.results.size());
  for (size_t i = 0; i < ra.results.size(); ++i) {
    EXPECT_DOUBLE_EQ(ra.results[i].value, rb.results[i].value);
  }
  std::remove(path.c_str());
}

TEST(IntegrationTest, KeyedPipelineMatchesOracleAcrossKeys) {
  WorkloadConfig cfg;
  cfg.num_events = 20000;
  cfg.num_keys = 8;
  cfg.key_zipf_s = 1.0;
  cfg.seed = 13;
  const auto w = GenerateWorkload(cfg);

  ContinuousQuery q = QueryWith(DisorderHandlerSpec::Fixed(Seconds(1000)));
  q.window.aggregate.kind = AggKind::kMean;
  QueryExecutor exec(q);
  VectorSource source(w.arrival_order);
  const RunReport report = exec.Run(&source);

  const OracleEvaluator oracle(w.arrival_order, q.window.window,
                               q.window.aggregate);
  const QualityReport quality = EvaluateQuality(report.results, oracle);
  EXPECT_EQ(quality.missed_windows, 0);
  EXPECT_NEAR(quality.value_quality.mean, 1.0, 1e-9);
}

TEST(IntegrationTest, BurstyWorkloadKeepsQualityUnderControl) {
  WorkloadConfig cfg;
  cfg.num_events = 50000;
  cfg.dynamics.kind = DynamicsKind::kBurst;
  cfg.dynamics.factor = 5.0;
  cfg.dynamics.t0 = Seconds(1);
  cfg.dynamics.period = Seconds(2);
  cfg.dynamics.duration = Millis(500);
  cfg.seed = 8;
  const auto w = GenerateWorkload(cfg);

  AqKSlack::Options aq;
  aq.target_quality = 0.9;
  QueryExecutor exec(QueryWith(DisorderHandlerSpec::Aq(aq)));
  VectorSource source(w.arrival_order);
  const RunReport report = exec.Run(&source);

  const OracleEvaluator oracle(w.arrival_order, WindowSpec::Tumbling(Millis(50)),
                               AggregateSpec{.kind = AggKind::kSum});
  const QualityReport quality = EvaluateQuality(report.results, oracle);
  // Bursts cost some transient quality; the controller must keep the mean
  // within a few points of target.
  EXPECT_GE(quality.MeanQualityIncludingMissed(), 0.85);
}

}  // namespace
}  // namespace streamq
