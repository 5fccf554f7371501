/// Randomized cross-cutting property tests: for a sweep of generated
/// workload shapes and handler configurations, the system-level invariants
/// must hold — ordering contract, tuple conservation, watermark
/// monotonicity, closed-form late-set characterization of K-slack, and
/// window production completeness.

#include <gtest/gtest.h>

#include <memory>

#include "core/executor.h"
#include "quality/oracle.h"
#include "quality/quality_metrics.h"
#include "stream/disorder_metrics.h"
#include "stream/generator.h"
#include "tests/test_util.h"

namespace streamq {
namespace {

/// Derives a random-but-reproducible workload from a seed.
WorkloadConfig RandomWorkload(uint64_t seed) {
  Rng rng(seed * 2654435761ULL + 17);
  WorkloadConfig cfg;
  cfg.num_events = 2000 + rng.NextInt(0, 4000);
  cfg.events_per_second = rng.NextUniform(2000.0, 30000.0);
  cfg.poisson_arrivals = rng.NextBool(0.7);
  cfg.num_keys = rng.NextInt(1, 16);
  cfg.key_zipf_s = rng.NextBool(0.5) ? rng.NextUniform(0.5, 1.5) : 0.0;
  switch (rng.NextInt(0, 4)) {
    case 0:
      cfg.delay.model = DelayModel::kExponential;
      cfg.delay.a = rng.NextUniform(1000.0, 50000.0);
      break;
    case 1:
      cfg.delay.model = DelayModel::kUniform;
      cfg.delay.a = 0.0;
      cfg.delay.b = rng.NextUniform(1000.0, 80000.0);
      break;
    case 2:
      cfg.delay.model = DelayModel::kLogNormal;
      cfg.delay.a = rng.NextUniform(7.0, 10.0);
      cfg.delay.b = rng.NextUniform(0.3, 1.2);
      break;
    case 3:
      cfg.delay.model = DelayModel::kPareto;
      cfg.delay.a = rng.NextUniform(500.0, 3000.0);
      cfg.delay.b = rng.NextUniform(1.2, 3.0);
      break;
    default:
      cfg.delay.model = DelayModel::kNormal;
      cfg.delay.a = rng.NextUniform(5000.0, 30000.0);
      cfg.delay.b = rng.NextUniform(1000.0, 10000.0);
      break;
  }
  if (rng.NextBool(0.4)) {
    cfg.dynamics.kind = DynamicsKind::kStep;
    cfg.dynamics.factor = rng.NextUniform(0.2, 6.0);
    cfg.dynamics.t0 = rng.NextInt(Millis(50), Millis(400));
  }
  cfg.seed = seed;
  return cfg;
}

/// Derives a random handler configuration from a seed.
DisorderHandlerSpec RandomHandler(uint64_t seed) {
  Rng rng(seed * 40503ULL + 3);
  switch (rng.NextInt(0, 5)) {
    case 0:
      return DisorderHandlerSpec::PassThrough();
    case 1:
      return DisorderHandlerSpec::Fixed(rng.NextInt(0, Millis(80)));
    case 2: {
      MpKSlack::Options mp;
      mp.mode = rng.NextBool(0.5) ? MpKSlack::Mode::kGrowOnly
                                  : MpKSlack::Mode::kSlidingMax;
      mp.window_size = rng.NextInt(100, 5000);
      return DisorderHandlerSpec::Mp(mp);
    }
    case 3: {
      AqKSlack::Options aq;
      aq.target_quality = rng.NextUniform(0.7, 0.999);
      aq.adaptation_interval = rng.NextInt(32, 1024);
      aq.sketch_window = static_cast<size_t>(rng.NextInt(256, 8192));
      return DisorderHandlerSpec::Aq(aq);
    }
    case 4: {
      LbKSlack::Options lb;
      lb.latency_budget = rng.NextInt(Millis(1), Millis(60));
      return DisorderHandlerSpec::Lb(lb);
    }
    default: {
      WatermarkReorderer::Options wm;
      wm.bound = rng.NextInt(0, Millis(60));
      wm.period_events = rng.NextInt(1, 128);
      wm.allowed_lateness = rng.NextInt(0, Millis(20));
      return DisorderHandlerSpec::Watermark(wm);
    }
  }
}

class RandomizedPipelineTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomizedPipelineTest, HandlerInvariantsHold) {
  const uint64_t seed = GetParam();
  const GeneratedWorkload w = GenerateWorkload(RandomWorkload(seed));
  auto handler = MakeDisorderHandlerOrDie(RandomHandler(seed));

  testutil::ContractCheckingSink sink;
  for (const Event& e : w.arrival_order) handler->OnEvent(e, &sink);
  handler->Flush(&sink);

  EXPECT_TRUE(sink.ordered) << "seed=" << seed;
  EXPECT_TRUE(sink.respects_watermark) << "seed=" << seed;
  EXPECT_TRUE(sink.watermarks_monotone) << "seed=" << seed;
  EXPECT_EQ(sink.current_watermark, kMaxTimestamp);

  const auto& stats = handler->stats();
  EXPECT_EQ(stats.events_in, static_cast<int64_t>(w.arrival_order.size()));
  EXPECT_EQ(stats.events_in, stats.events_out + stats.events_late);
  EXPECT_EQ(static_cast<int64_t>(sink.events.size()), stats.events_out);
  EXPECT_GE(stats.buffering_latency_us.min(), 0.0);
}

TEST_P(RandomizedPipelineTest, FixedKSlackLateSetIsExactlyLatenessAboveK) {
  // Closed-form differential oracle: FixedKSlack(K) diverts tuple i as late
  // iff lateness_i > K, where lateness_i is measured against the event-time
  // frontier of earlier arrivals.
  const uint64_t seed = GetParam();
  const GeneratedWorkload w = GenerateWorkload(RandomWorkload(seed));
  Rng rng(seed + 5);
  const DurationUs k = rng.NextInt(0, Millis(50));

  FixedKSlack handler(k);
  CollectingSink sink;
  testutil::RunHandler(&handler, w.arrival_order, &sink);

  const auto lateness = ComputeLateness(w.arrival_order);
  std::vector<int64_t> expected_late_ids;
  for (size_t i = 0; i < lateness.size(); ++i) {
    if (lateness[i] > k) expected_late_ids.push_back(w.arrival_order[i].id);
  }
  std::vector<int64_t> actual_late_ids;
  actual_late_ids.reserve(sink.late_events.size());
  for (const Event& e : sink.late_events) actual_late_ids.push_back(e.id);
  EXPECT_EQ(actual_late_ids, expected_late_ids) << "seed=" << seed;
}

TEST_P(RandomizedPipelineTest, FullPipelineProducesEveryWindowOnce) {
  const uint64_t seed = GetParam();
  const GeneratedWorkload w = GenerateWorkload(RandomWorkload(seed));

  ContinuousQuery q;
  q.name = "rand";
  q.handler = RandomHandler(seed);
  q.window.window = WindowSpec::Tumbling(Millis(20));
  q.window.aggregate.kind = AggKind::kSum;
  QueryExecutor exec(q);
  VectorSource source(w.arrival_order);
  const RunReport report = exec.Run(&source);

  const OracleEvaluator oracle(w.arrival_order, q.window.window,
                               q.window.aggregate);
  const QualityReport quality = EvaluateQuality(report.results, oracle);
  // A window can only go missing if every one of its tuples was dropped
  // (by the handler's allowed-lateness policy or by the window operator),
  // so each missed window needs at least one dropped tuple. With no drops
  // anywhere, every oracle window must appear.
  const int64_t dropped = report.handler_stats.events_dropped +
                          report.window_stats.late_dropped;
  EXPECT_LE(quality.missed_windows, dropped) << "seed=" << seed;
  if (dropped == 0) {
    EXPECT_EQ(quality.missed_windows, 0) << "seed=" << seed;
  }
  EXPECT_EQ(quality.spurious_windows, 0) << "seed=" << seed;
  // Quality and coverage are proper fractions.
  EXPECT_GE(quality.coverage.min, 0.0);
  EXPECT_LE(quality.coverage.max, 1.0);
  EXPECT_GE(quality.value_quality.min, 0.0);
  EXPECT_LE(quality.value_quality.max, 1.0);
  // Response latency is never negative.
  EXPECT_GE(quality.response_latency_us.min, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomizedPipelineTest,
                         ::testing::Range(uint64_t{1}, uint64_t{21}));

}  // namespace
}  // namespace streamq
