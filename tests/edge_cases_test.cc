/// Edge cases across modules: extreme timestamps, empty streams, idle gaps,
/// degenerate configurations — the inputs that find arithmetic bugs.

#include <vector>

#include <gtest/gtest.h>

#include "core/executor.h"
#include "quality/oracle.h"
#include "disorder/fixed_kslack.h"
#include "disorder/mp_kslack.h"
#include "tests/test_util.h"
#include "window/window_operator.h"

namespace streamq {
namespace {

using testutil::E;

TEST(EdgeCaseTest, EmptyStreamThroughFullPipeline) {
  QueryExecutor exec(QueryBuilder("empty")
                         .Tumbling(Millis(10))
                         .Aggregate("sum")
                         .QualityTarget(0.95)
                         .Build());
  VectorSource source({});
  const RunReport report = exec.Run(&source);
  EXPECT_EQ(report.events_processed, 0);
  EXPECT_TRUE(report.results.empty());
}

TEST(EdgeCaseTest, SingleEventStream) {
  QueryExecutor exec(QueryBuilder("one")
                         .Tumbling(Millis(10))
                         .Aggregate("mean")
                         .FixedSlack(Millis(5))
                         .Build());
  exec.Feed(E(0, 1234, 1234));
  exec.Finish();
  ASSERT_EQ(exec.results().size(), 1u);
  EXPECT_DOUBLE_EQ(exec.results()[0].value, 0.0);  // Value == id == 0.
  EXPECT_EQ(exec.results()[0].tuple_count, 1);
}

TEST(EdgeCaseTest, NegativeEventTimes) {
  // The engine must handle negative timestamps (epochs before the origin).
  FixedKSlack handler(100);
  CollectingSink sink;
  handler.OnEvent(E(0, -1000, 10), &sink);
  handler.OnEvent(E(1, -900, 20), &sink);
  handler.OnEvent(E(2, -700, 30), &sink);  // Threshold -800: releases -1000.
  ASSERT_EQ(sink.events.size(), 2u);
  EXPECT_EQ(sink.events[0].event_time, -1000);
  handler.Flush(&sink);
  EXPECT_EQ(sink.events.size(), 3u);
  EXPECT_TRUE(IsEventTimeOrdered(sink.events));
}

TEST(EdgeCaseTest, NegativeTimesThroughWindows) {
  CollectingResultSink results;
  WindowedAggregation::Options o;
  o.window = WindowSpec::Tumbling(100);
  o.aggregate.kind = AggKind::kCount;
  WindowedAggregation op(o, &results);
  op.OnEvent(E(0, -150, 0));
  op.OnEvent(E(1, -50, 1));
  op.OnWatermark(kMaxTimestamp, 10);
  ASSERT_EQ(results.results.size(), 2u);
  EXPECT_EQ(results.results[0].bounds, (WindowBounds{-200, -100}));
  EXPECT_EQ(results.results[1].bounds, (WindowBounds{-100, 0}));
}

TEST(EdgeCaseTest, HugeSlackDoesNotOverflowThreshold) {
  // K near the full timestamp range: ReleaseThreshold must saturate rather
  // than wrap.
  FixedKSlack handler(kMaxTimestamp / 2);
  CollectingSink sink;
  handler.OnEvent(E(0, 0, 0), &sink);
  handler.OnEvent(E(1, 1000, 1000), &sink);
  EXPECT_TRUE(sink.events.empty());  // Nothing releasable; no crash.
  handler.Flush(&sink);
  EXPECT_EQ(sink.events.size(), 2u);
}

TEST(EdgeCaseTest, DuplicateTimestampsKeepStableIdOrder) {
  // K large enough that the equal-timestamp tuples sit in the buffer
  // together and are released as one batch: order must be by id.
  FixedKSlack handler(50);
  CollectingSink sink;
  handler.OnEvent(E(5, 100, 10), &sink);
  handler.OnEvent(E(3, 100, 11), &sink);
  handler.OnEvent(E(4, 100, 12), &sink);
  EXPECT_TRUE(sink.events.empty());
  handler.OnEvent(E(9, 200, 13), &sink);  // Threshold 150: releases batch.
  ASSERT_EQ(sink.events.size(), 3u);
  EXPECT_EQ(sink.events[0].id, 3);
  EXPECT_EQ(sink.events[1].id, 4);
  EXPECT_EQ(sink.events[2].id, 5);
  handler.Flush(&sink);
  EXPECT_EQ(sink.events.size(), 4u);
}

TEST(EdgeCaseTest, PanedOperatorSkipsLongIdleGaps) {
  // An hour of idle event time between two bursts on the pane-sharing
  // path (tiling sliding count window, batched folds), with a window still
  // live across the gap: firing must jump the empty window starts, not
  // walk millions of them, and the store must not size itself to the gap.
  CollectingResultSink results;
  WindowedAggregation::Options o;
  o.window = WindowSpec::Sliding(Millis(2), Millis(1));
  o.aggregate.kind = AggKind::kCount;
  WindowedAggregation op(o, &results);
  ASSERT_TRUE(op.uses_pane_sharing());
  const std::vector<Event> before = {E(0, 0, 0)};
  op.OnEvents(before);
  op.OnWatermark(Millis(1), 1);
  ASSERT_EQ(results.results.size(), 1u);  // [-1ms, 1ms).
  EXPECT_EQ(op.live_windows(), 1u);       // [0, 2ms) spans the gap.
  const std::vector<Event> after = {E(1, Seconds(3600), Seconds(3600)),
                                    E(2, Seconds(3600), Seconds(3600))};
  op.OnEvents(after);
  EXPECT_EQ(op.live_windows(), 3u);
  op.OnWatermark(Seconds(3600) + Millis(1), Seconds(3600) + 1);
  ASSERT_EQ(results.results.size(), 3u);  // Returns promptly.
  EXPECT_EQ(results.results[1].bounds.start, 0);
  EXPECT_EQ(results.results[1].tuple_count, 1);
  EXPECT_EQ(results.results[2].bounds.start, Seconds(3600) - Millis(1));
  EXPECT_EQ(results.results[2].tuple_count, 2);
  EXPECT_EQ(op.live_windows(), 1u);  // [3600s, 3600s + 2ms) stays open.
}

TEST(EdgeCaseTest, WindowOperatorIdleGapFiresAllPendingWindows) {
  CollectingResultSink results;
  WindowedAggregation::Options o;
  o.window = WindowSpec::Tumbling(Millis(1));
  o.aggregate.kind = AggKind::kCount;
  WindowedAggregation op(o, &results);
  op.OnEvent(E(0, 0, 0));
  op.OnEvent(E(1, Seconds(100), Seconds(100)));
  op.OnWatermark(Seconds(100), Seconds(100));
  ASSERT_EQ(results.results.size(), 1u);  // Only the old window.
  EXPECT_EQ(op.live_windows(), 1u);       // The new one stays open.
}

TEST(EdgeCaseTest, MpKSlackHandlesInOrderStreamWithZeroSlack) {
  // Fully in-order input: bound stays 0 and everything passes with zero
  // buffering latency.
  MpKSlack handler(MpKSlack::Options{});
  CollectingSink sink;
  for (int i = 0; i < 100; ++i) {
    handler.OnEvent(E(i, i * 100, i * 100), &sink);
  }
  handler.Flush(&sink);
  EXPECT_EQ(handler.current_slack(), 0);
  EXPECT_EQ(sink.events.size(), 100u);
  EXPECT_TRUE(sink.late_events.empty());
}

TEST(EdgeCaseTest, QuantileAggregateOverSingleValue) {
  auto agg = MakeAggregator(
      AggregateSpec{.kind = AggKind::kQuantile, .quantile_q = 0.99});
  agg->Add(7.0);
  EXPECT_DOUBLE_EQ(agg->Value(), 7.0);
}

TEST(EdgeCaseTest, ZeroLengthStreamOracle) {
  const OracleEvaluator oracle({}, WindowSpec::Tumbling(100),
                               AggregateSpec{.kind = AggKind::kSum});
  EXPECT_EQ(oracle.total_windows(), 0);
}

TEST(EdgeCaseTest, HeartbeatOnlyStream) {
  // A stream of pure heartbeats produces watermarks but no results.
  QueryExecutor exec(QueryBuilder("hb-only")
                         .Tumbling(Millis(10))
                         .Aggregate("sum")
                         .FixedSlack(Millis(5))
                         .Build());
  exec.FeedHeartbeat(Millis(100), Millis(100));
  exec.FeedHeartbeat(Millis(200), Millis(200));
  exec.Finish();
  EXPECT_TRUE(exec.results().empty());
}

TEST(EdgeCaseTest, IdenticalArrivalTimesProcessDeterministically) {
  // Batched arrivals (equal arrival_time) are a common real pattern.
  WorkloadConfig cfg;
  cfg.num_events = 1000;
  cfg.delay.model = DelayModel::kConstant;
  cfg.delay.a = 0.0;
  cfg.events_per_second = 1e9;  // Microsecond collisions guaranteed.
  cfg.seed = 3;
  const auto w = GenerateWorkload(cfg);
  QueryExecutor a(QueryBuilder("b").Tumbling(Millis(1)).Aggregate("sum")
                      .FixedSlack(Millis(1)).Build());
  QueryExecutor b(QueryBuilder("b").Tumbling(Millis(1)).Aggregate("sum")
                      .FixedSlack(Millis(1)).Build());
  VectorSource sa(w.arrival_order), sb(w.arrival_order);
  const RunReport ra = a.Run(&sa);
  const RunReport rb = b.Run(&sb);
  ASSERT_EQ(ra.results.size(), rb.results.size());
  for (size_t i = 0; i < ra.results.size(); ++i) {
    EXPECT_DOUBLE_EQ(ra.results[i].value, rb.results[i].value);
  }
}

}  // namespace
}  // namespace streamq
