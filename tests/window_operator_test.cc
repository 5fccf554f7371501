#include "window/window_operator.h"

#include <gtest/gtest.h>

#include "disorder/fixed_kslack.h"
#include "disorder/pass_through.h"
#include "quality/oracle.h"
#include "tests/test_util.h"

namespace streamq {
namespace {

using testutil::E;

WindowedAggregation::Options Opt(DurationUs size, AggKind kind,
                                 DurationUs lateness = 0) {
  WindowedAggregation::Options o;
  o.window = WindowSpec::Tumbling(size);
  o.aggregate.kind = kind;
  o.allowed_lateness = lateness;
  return o;
}

TEST(WindowOperatorTest, FiresOnWatermarkPastEnd) {
  CollectingResultSink results;
  WindowedAggregation op(Opt(100, AggKind::kSum), &results);
  op.OnEvent(E(0, 10, 10));
  op.OnEvent(E(1, 20, 20));
  op.OnWatermark(99, 99);
  EXPECT_TRUE(results.results.empty());  // Window [0,100) not closed at 99.
  op.OnWatermark(100, 120);
  ASSERT_EQ(results.results.size(), 1u);
  const WindowResult& r = results.results[0];
  EXPECT_EQ(r.bounds, (WindowBounds{0, 100}));
  EXPECT_DOUBLE_EQ(r.value, 1.0);  // Values are ids: 0 + 1.
  EXPECT_EQ(r.tuple_count, 2);
  EXPECT_EQ(r.emit_stream_time, 120);
  EXPECT_FALSE(r.is_revision);
}

TEST(WindowOperatorTest, TerminalWatermarkFiresEverything) {
  CollectingResultSink results;
  WindowedAggregation op(Opt(100, AggKind::kCount), &results);
  op.OnEvent(E(0, 10, 10));
  op.OnEvent(E(1, 150, 150));
  op.OnEvent(E(2, 290, 290));
  op.OnWatermark(kMaxTimestamp, 300);
  ASSERT_EQ(results.results.size(), 3u);
  EXPECT_EQ(op.live_windows(), 0u);  // All purged.
}

TEST(WindowOperatorTest, KeyedWindowsAreIndependent) {
  CollectingResultSink results;
  WindowedAggregation op(Opt(100, AggKind::kSum), &results);
  op.OnEvent(E(10, 10, 10, /*key=*/1));
  op.OnEvent(E(20, 20, 20, /*key=*/2));
  op.OnEvent(E(30, 30, 30, /*key=*/1));
  op.OnWatermark(kMaxTimestamp, 100);
  ASSERT_EQ(results.results.size(), 2u);
  // Ordered by (start, key).
  EXPECT_EQ(results.results[0].key, 1);
  EXPECT_DOUBLE_EQ(results.results[0].value, 40.0);
  EXPECT_EQ(results.results[1].key, 2);
  EXPECT_DOUBLE_EQ(results.results[1].value, 20.0);
}

TEST(WindowOperatorTest, SlidingWindowsEachGetTheTuple) {
  WindowedAggregation::Options o;
  o.window = WindowSpec::Sliding(100, 50);
  o.aggregate.kind = AggKind::kCount;
  CollectingResultSink results;
  WindowedAggregation op(o, &results);
  op.OnEvent(E(0, 75, 75));  // Windows [0,100) and [50,150).
  op.OnWatermark(kMaxTimestamp, 200);
  ASSERT_EQ(results.results.size(), 2u);
  EXPECT_DOUBLE_EQ(results.results[0].value, 1.0);
  EXPECT_DOUBLE_EQ(results.results[1].value, 1.0);
}

TEST(WindowOperatorTest, LateEventDroppedWithoutLateness) {
  CollectingResultSink results;
  WindowedAggregation op(Opt(100, AggKind::kSum, /*lateness=*/0), &results);
  op.OnEvent(E(5, 10, 10));
  op.OnWatermark(100, 100);
  ASSERT_EQ(results.results.size(), 1u);
  op.OnLateEvent(E(7, 50, 120));  // Window gone (purged at watermark 100).
  EXPECT_EQ(op.stats().late_dropped, 1);
  EXPECT_EQ(results.results.size(), 1u);  // No revision.
}

TEST(WindowOperatorTest, LateEventAmendsWithinLateness) {
  CollectingResultSink results;
  WindowedAggregation op(Opt(100, AggKind::kSum, /*lateness=*/100), &results);
  op.OnEvent(E(5, 10, 10));
  op.OnWatermark(100, 100);  // Fires with value 5.
  ASSERT_EQ(results.results.size(), 1u);
  EXPECT_DOUBLE_EQ(results.results[0].value, 5.0);

  op.OnLateEvent(E(7, 50, 120));  // State still live until watermark 200.
  ASSERT_EQ(results.results.size(), 2u);
  const WindowResult& rev = results.results[1];
  EXPECT_TRUE(rev.is_revision);
  EXPECT_EQ(rev.revision_index, 1);
  EXPECT_DOUBLE_EQ(rev.value, 12.0);
  EXPECT_EQ(rev.emit_stream_time, 120);
  EXPECT_EQ(op.stats().late_applied, 1);
  EXPECT_EQ(op.stats().revisions, 1);
}

TEST(WindowOperatorTest, MultipleRevisionsIncrementIndex) {
  CollectingResultSink results;
  WindowedAggregation op(Opt(100, AggKind::kCount, 1000), &results);
  op.OnEvent(E(0, 10, 10));
  op.OnWatermark(100, 100);
  op.OnLateEvent(E(1, 20, 110));
  op.OnLateEvent(E(2, 30, 120));
  ASSERT_EQ(results.results.size(), 3u);
  EXPECT_EQ(results.results[1].revision_index, 1);
  EXPECT_EQ(results.results[2].revision_index, 2);
  EXPECT_DOUBLE_EQ(results.results[2].value, 3.0);
}

TEST(WindowOperatorTest, BatchRefinementEmitsOneRevisionAtPurge) {
  WindowedAggregation::Options o = Opt(100, AggKind::kCount, 1000);
  o.emit_revision_per_update = false;
  CollectingResultSink results;
  WindowedAggregation op(o, &results);
  op.OnEvent(E(0, 10, 10));
  op.OnWatermark(100, 100);
  op.OnLateEvent(E(1, 20, 110));
  op.OnLateEvent(E(2, 30, 120));
  EXPECT_EQ(results.results.size(), 1u);  // Amendments buffered.
  op.OnWatermark(kMaxTimestamp, 200);     // Purge flushes one revision.
  ASSERT_EQ(results.results.size(), 2u);
  EXPECT_TRUE(results.results[1].is_revision);
  EXPECT_DOUBLE_EQ(results.results[1].value, 3.0);
}

TEST(WindowOperatorTest, LateEventBeforeFireAccumulatesSilently) {
  // A tuple can be behind the handler watermark while its window is still
  // open (watermark inside the window). It must fold in with no revision.
  CollectingResultSink results;
  WindowedAggregation op(Opt(100, AggKind::kCount, 0), &results);
  op.OnEvent(E(0, 60, 60));
  op.OnWatermark(50, 60);
  op.OnLateEvent(E(1, 40, 70));  // Behind watermark 50, window [0,100) open.
  op.OnWatermark(100, 110);
  ASSERT_EQ(results.results.size(), 1u);
  EXPECT_DOUBLE_EQ(results.results[0].value, 2.0);
  EXPECT_EQ(op.stats().late_applied, 1);
  EXPECT_EQ(op.stats().revisions, 0);
}

TEST(WindowOperatorTest, LateEventCreatesMissingWindowWithinLateness) {
  // No on-time tuple ever created the window; a late one within lateness
  // must still produce a (first) result rather than vanish.
  CollectingResultSink results;
  WindowedAggregation op(Opt(100, AggKind::kSum, /*lateness=*/500), &results);
  op.OnEvent(E(0, 250, 250));
  op.OnWatermark(250, 250);  // Window [0,100) never existed; end 100 <= 250.
  op.OnLateEvent(E(9, 50, 260));
  ASSERT_EQ(results.results.size(), 1u);
  EXPECT_EQ(results.results[0].bounds.start, 0);
  EXPECT_DOUBLE_EQ(results.results[0].value, 9.0);
  EXPECT_FALSE(results.results[0].is_revision);
  // And the usual in-window path still fires later.
  op.OnWatermark(kMaxTimestamp, 400);
  EXPECT_EQ(results.results.size(), 2u);  // [200,300) window for event 0.
}

TEST(WindowOperatorTest, WatermarkMustAdvanceToHaveEffect) {
  CollectingResultSink results;
  WindowedAggregation op(Opt(100, AggKind::kCount), &results);
  op.OnEvent(E(0, 10, 10));
  op.OnWatermark(100, 100);
  const size_t n = results.results.size();
  op.OnWatermark(100, 150);  // Duplicate: no-op.
  op.OnWatermark(50, 160);   // Regression: ignored.
  EXPECT_EQ(results.results.size(), n);
}

TEST(WindowOperatorTest, EndToEndMatchesOracleWithSufficientSlack) {
  // Full-slack K-slack + windowed sum == oracle exactly.
  const auto w = testutil::DisorderedWorkload(5000);
  const WindowSpec spec = WindowSpec::Tumbling(Millis(50));
  AggregateSpec agg;
  agg.kind = AggKind::kSum;

  WindowedAggregation::Options o;
  o.window = spec;
  o.aggregate = agg;
  CollectingResultSink results;
  WindowedAggregation op(o, &results);
  FixedKSlack handler(Seconds(100));  // Effectively infinite.
  testutil::RunHandler(&handler, w.arrival_order, &op);

  const OracleEvaluator oracle(w.arrival_order, spec, agg);
  ASSERT_EQ(results.results.size(), oracle.results().size());
  for (size_t i = 0; i < results.results.size(); ++i) {
    EXPECT_EQ(results.results[i].bounds, oracle.results()[i].bounds);
    EXPECT_NEAR(results.results[i].value, oracle.results()[i].value, 1e-9);
    EXPECT_EQ(results.results[i].tuple_count,
              oracle.results()[i].tuple_count);
  }
}

TEST(WindowOperatorTest, SpeculativePipelineConvergesToOracle) {
  // PassThrough + unlimited lateness: first emissions are speculative and
  // possibly wrong, but the final revision per window matches the oracle.
  const auto w = testutil::DisorderedWorkload(3000);
  const WindowSpec spec = WindowSpec::Tumbling(Millis(50));
  AggregateSpec agg;
  agg.kind = AggKind::kCount;

  WindowedAggregation::Options o;
  o.window = spec;
  o.aggregate = agg;
  o.allowed_lateness = Seconds(1000);
  CollectingResultSink results;
  WindowedAggregation op(o, &results);
  PassThrough handler;
  testutil::RunHandler(&handler, w.arrival_order, &op);

  // Last emission per window.
  std::map<TimestampUs, WindowResult> final_result;
  for (const WindowResult& r : results.results) {
    final_result[r.bounds.start] = r;
  }
  const OracleEvaluator oracle(w.arrival_order, spec, agg);
  for (const WindowResult& truth : oracle.results()) {
    auto it = final_result.find(truth.bounds.start);
    ASSERT_NE(it, final_result.end());
    EXPECT_DOUBLE_EQ(it->second.value, truth.value)
        << truth.bounds.ToString();
  }
  EXPECT_GT(op.stats().revisions, 0);
}

// Allowed lateness keeps fired windows, and firing scans start past them at
// the fire frontier. A keyed OnEvent may still land behind the merged
// watermark (its own key's watermark lags): the slot it creates must fire on
// the next watermark, not wait for the terminal purge.
TEST(WindowOperatorTest, KeyedEventBehindMergedWatermarkFiresNextWatermark) {
  for (auto engine : {WindowedAggregation::Engine::kHot,
                      WindowedAggregation::Engine::kAmend}) {
    for (bool per_key : {false, true}) {
      SCOPED_TRACE(testing::Message()
                   << "engine " << static_cast<int>(engine) << " per_key "
                   << per_key);
      WindowedAggregation::Options o =
          Opt(100, AggKind::kSum, /*lateness=*/Seconds(100));
      o.engine = engine;
      o.per_key_watermarks = per_key;
      CollectingResultSink results;
      WindowedAggregation op(o, &results);
      op.OnEvent(E(1, 10, 10, /*key=*/1));
      op.OnEvent(E(2, 150, 150, /*key=*/1));
      op.OnWatermark(200, 200);  // Fires [0,100) and [100,200); both kept.
      op.OnWatermark(250, 250);  // Both kept windows are behind the frontier.
      ASSERT_EQ(results.results.size(), 2u);
      EXPECT_EQ(op.live_windows(), 2u);

      // Key 2's first tuple, behind the merged watermark.
      op.OnEvent(E(7, 50, 260, /*key=*/2));
      if (per_key) {
        op.OnKeyedWatermark(2, 120, 270);
      } else {
        op.OnWatermark(300, 270);
      }
      ASSERT_EQ(results.results.size(), 3u);
      const WindowResult& r = results.results.back();
      EXPECT_EQ(r.bounds, (WindowBounds{0, 100}));
      EXPECT_EQ(r.key, 2);
      EXPECT_DOUBLE_EQ(r.value, 7.0);
      EXPECT_FALSE(r.is_revision);
      EXPECT_EQ(r.emit_stream_time, 270);

      // Nothing fires twice, and the kept windows still take revisions.
      op.OnWatermark(400, 400);
      EXPECT_EQ(results.results.size(), 3u);
      op.OnLateEvent(E(9, 60, 410, /*key=*/2));
      ASSERT_EQ(results.results.size(), 4u);
      EXPECT_TRUE(results.results.back().is_revision);
      EXPECT_DOUBLE_EQ(results.results.back().value, 16.0);
    }
  }
}

TEST(WindowOperatorTest, StatsTrackLiveWindows) {
  CollectingResultSink results;
  WindowedAggregation op(Opt(100, AggKind::kCount), &results);
  op.OnEvent(E(0, 10, 10));
  op.OnEvent(E(1, 110, 110));
  op.OnEvent(E(2, 210, 210));
  EXPECT_EQ(op.live_windows(), 3u);
  EXPECT_EQ(op.stats().max_live_windows, 3);
  op.OnWatermark(kMaxTimestamp, 300);
  EXPECT_EQ(op.live_windows(), 0u);
}

TEST(WindowOperatorTest, RejectsBadOptions) {
  CollectingResultSink results;
  WindowedAggregation::Options bad = Opt(0, AggKind::kSum);
  EXPECT_DEATH(WindowedAggregation op(bad, &results), "Check failed");
  WindowedAggregation::Options bad2 = Opt(100, AggKind::kSum);
  bad2.allowed_lateness = -1;
  EXPECT_DEATH(WindowedAggregation op(bad2, &results), "Check failed");
}

}  // namespace
}  // namespace streamq
