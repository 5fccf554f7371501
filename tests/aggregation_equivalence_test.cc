// Engine-equivalence property test: the devirtualized hot path (inline
// states + flat store + fold-plan memo + pane-shared batch folding) must be
// indistinguishable from the std::map + virtual-Aggregator reference in
// tests/reference/ — byte-identical WindowResult sequences and window
// stats — for every aggregate kind, window family, handler spec, revision
// mode, and feed granularity, including late-tuple, revision and
// allowed-lateness paths.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/continuous_query.h"
#include "core/executor.h"
#include "stream/generator.h"
#include "tests/reference/reference_window.h"
#include "tests/test_util.h"
#include "window/window.h"
#include "window/window_operator.h"

namespace streamq {
namespace {

using Engine = WindowedAggregation::Engine;
using reference::RunReference;

const std::vector<AggKind> kAllKinds = {
    AggKind::kCount,    AggKind::kSum,    AggKind::kMean,
    AggKind::kMin,      AggKind::kMax,    AggKind::kVariance,
    AggKind::kStdDev,   AggKind::kMedian, AggKind::kQuantile,
    AggKind::kDistinctCount};

struct Shape {
  const char* name;
  WindowSpec spec;
};

const std::vector<Shape>& Shapes() {
  static const std::vector<Shape> shapes = {
      {"tumbling", WindowSpec::Tumbling(Millis(40))},
      {"sliding_tiling", WindowSpec::Sliding(Millis(50), Millis(25))},
      {"sliding_nontiling", WindowSpec::Sliding(Millis(50), Millis(30))},
      {"sampling", WindowSpec::Sliding(Millis(20), Millis(50))},
  };
  return shapes;
}

std::vector<DisorderHandlerSpec> HandlerSpecs() {
  std::vector<DisorderHandlerSpec> specs;
  specs.push_back(DisorderHandlerSpec::PassThrough());
  specs.push_back(DisorderHandlerSpec::Fixed(Millis(30)));
  {
    WatermarkReorderer::Options wm;
    wm.bound = Millis(30);
    wm.period_events = 7;
    wm.allowed_lateness = Millis(10);
    specs.push_back(DisorderHandlerSpec::Watermark(wm));
  }
  {
    AqKSlack::Options aq;
    aq.target_quality = 0.95;
    specs.push_back(DisorderHandlerSpec::Aq(aq));
  }
  specs.push_back(DisorderHandlerSpec::Fixed(Millis(30)).PerKey());
  return specs;
}

const std::vector<Event>& TestStream() {
  static const std::vector<Event>* events = [] {
    WorkloadConfig cfg;
    cfg.num_events = 3000;
    cfg.events_per_second = 10000.0;
    cfg.num_keys = 4;
    cfg.delay.model = DelayModel::kExponential;
    cfg.delay.a = 20000.0;  // Heavy disorder: plenty of late tuples.
    cfg.seed = 1234;
    return new std::vector<Event>(GenerateWorkload(cfg).arrival_order);
  }();
  return *events;
}

ContinuousQuery MakeQuery(AggKind kind, const WindowSpec& shape,
                          const DisorderHandlerSpec& handler,
                          bool emit_revision_per_update) {
  ContinuousQuery q;
  q.name = "agg_equiv";
  q.handler = handler;
  q.window.window = shape;
  q.window.aggregate.kind = kind;
  if (kind == AggKind::kQuantile) q.window.aggregate.quantile_q = 0.9;
  q.window.allowed_lateness = Millis(20);
  q.window.emit_revision_per_update = emit_revision_per_update;
  q.window.per_key_watermarks = handler.per_key;
  return q;
}

/// TestStream with heavy ties and zeros of both signs.
const std::vector<Event>& TiedStream() {
  static const std::vector<Event>* events =
      new std::vector<Event>(testutil::WithTiesAndSignedZeros(TestStream()));
  return *events;
}

RunReport RunQuery(const ContinuousQuery& q, bool batched,
                   std::span<const Event> events = TestStream()) {
  QueryExecutor exec(q);
  if (batched) {
    exec.FeedBatch(events);
  } else {
    for (const Event& e : events) exec.Feed(e);
  }
  exec.Finish();
  return exec.Report();
}

void ExpectBitIdentical(const RunReport& want, const RunReport& got) {
  EXPECT_EQ(want.events_processed, got.events_processed);
  ASSERT_EQ(want.results.size(), got.results.size());
  for (size_t i = 0; i < want.results.size(); ++i) {
    // operator== would treat two NaNs as different; compare value bits and
    // everything else structurally.
    const WindowResult& a = want.results[i];
    const WindowResult& b = got.results[i];
    EXPECT_EQ(a.bounds, b.bounds) << "result " << i;
    EXPECT_EQ(a.key, b.key) << "result " << i;
    EXPECT_EQ(std::bit_cast<uint64_t>(a.value),
              std::bit_cast<uint64_t>(b.value))
        << "result " << i << ": " << a.value << " vs " << b.value;
    EXPECT_EQ(a.tuple_count, b.tuple_count) << "result " << i;
    EXPECT_EQ(a.emit_stream_time, b.emit_stream_time) << "result " << i;
    EXPECT_EQ(a.is_revision, b.is_revision) << "result " << i;
    EXPECT_EQ(a.revision_index, b.revision_index) << "result " << i;
  }

  const WindowedAggregation::Stats& wa = want.window_stats;
  const WindowedAggregation::Stats& wb = got.window_stats;
  EXPECT_EQ(wa.events, wb.events);
  EXPECT_EQ(wa.late_applied, wb.late_applied);
  EXPECT_EQ(wa.late_dropped, wb.late_dropped);
  EXPECT_EQ(wa.windows_fired, wb.windows_fired);
  EXPECT_EQ(wa.revisions, wb.revisions);
  EXPECT_EQ(wa.max_live_windows, wb.max_live_windows);

  // The handler runs upstream of the engine under test; identical stats
  // confirm the engines cannot perturb it.
  EXPECT_EQ(want.handler_stats.events_out, got.handler_stats.events_out);
  EXPECT_EQ(want.handler_stats.events_late, got.handler_stats.events_late);
  EXPECT_EQ(want.final_slack, got.final_slack);
}

using Param = std::tuple<int, int>;  // (kind index, shape index)

class AggregationEquivalenceTest : public ::testing::TestWithParam<Param> {};

// Hot engine == the std::map reference, bit for bit, per-event and
// batched, in both revision modes, under every handler spec.
TEST_P(AggregationEquivalenceTest, HotMatchesLegacyBitwise) {
  const auto [kind_index, shape_index] = GetParam();
  const AggKind kind = kAllKinds[static_cast<size_t>(kind_index)];
  const Shape& shape = Shapes()[static_cast<size_t>(shape_index)];
  for (const DisorderHandlerSpec& handler : HandlerSpecs()) {
    for (bool per_update : {true, false}) {
      SCOPED_TRACE(handler.Describe() + (per_update ? " perupdate" : " batchrev"));
      const ContinuousQuery hot_q =
          MakeQuery(kind, shape.spec, handler, per_update);
      const RunReport reference =
          RunReference(hot_q, TestStream(), /*batched=*/false);
      ExpectBitIdentical(reference,
                         RunReference(hot_q, TestStream(), /*batched=*/true));
      ExpectBitIdentical(reference, RunQuery(hot_q, /*batched=*/false));
      ExpectBitIdentical(reference, RunQuery(hot_q, /*batched=*/true));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKindsAllShapes, AggregationEquivalenceTest,
    ::testing::Combine(::testing::Range(0, 10), ::testing::Range(0, 4)),
    [](const ::testing::TestParamInfo<Param>& info) {
      AggregateSpec spec;
      spec.kind = kAllKinds[static_cast<size_t>(std::get<0>(info.param))];
      std::string name = spec.Describe();
      name.erase(std::remove_if(name.begin(), name.end(),
                                [](char c) { return !std::isalnum(c); }),
                 name.end());
      name += "_";
      name += Shapes()[static_cast<size_t>(std::get<1>(info.param))].name;
      return name;
    });

// Many panes per window: median and quantile(0.9) select across 8 sorted
// pane runs, and across 65, past the fold plan's memo of 64 slots, over
// heavy ties and zeros of both signs. Bit for bit against the reference
// under every handler spec, both revision modes, per-event and batched.
const std::vector<Shape>& ManyPaneShapes() {
  static const std::vector<Shape> shapes = {
      {"tiling8", WindowSpec::Sliding(Millis(80), Millis(10))},
      {"tiling65", WindowSpec::Sliding(Millis(130), Millis(2))},
  };
  return shapes;
}

class ManyPaneQuantileTest : public ::testing::TestWithParam<Param> {};

TEST_P(ManyPaneQuantileTest, MatchesReferenceBitwise) {
  const auto [kind_index, shape_index] = GetParam();
  const AggKind kind = kind_index == 0 ? AggKind::kMedian : AggKind::kQuantile;
  const Shape& shape = ManyPaneShapes()[static_cast<size_t>(shape_index)];
  for (const DisorderHandlerSpec& handler : HandlerSpecs()) {
    for (bool per_update : {true, false}) {
      SCOPED_TRACE(handler.Describe() +
                   (per_update ? " perupdate" : " batchrev"));
      const ContinuousQuery q =
          MakeQuery(kind, shape.spec, handler, per_update);
      const RunReport reference =
          RunReference(q, TiedStream(), /*batched=*/false);
      EXPECT_GT(reference.window_stats.late_applied, 0);
      for (bool batched : {false, true}) {
        ExpectBitIdentical(reference, RunQuery(q, batched, TiedStream()));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    QuantileKinds, ManyPaneQuantileTest,
    ::testing::Combine(::testing::Range(0, 2), ::testing::Range(0, 2)),
    [](const ::testing::TestParamInfo<Param>& info) {
      std::string name =
          std::get<0>(info.param) == 0 ? "median_" : "quantile090_";
      name += ManyPaneShapes()[static_cast<size_t>(std::get<1>(info.param))]
                  .name;
      return name;
    });

// Which windows store one sorted run per pane: median and quantile whose
// size is a multiple of the slide, tumbling included.
TEST(EngineSelectionTest, PaneRunsForTilingQuantiles) {
  CollectingResultSink sink;
  struct Case {
    AggKind kind;
    WindowSpec window;
    bool pane_runs;
  };
  const Case cases[] = {
      {AggKind::kMedian, WindowSpec::Tumbling(Millis(100)), true},
      {AggKind::kQuantile, WindowSpec::Sliding(Millis(100), Millis(25)), true},
      {AggKind::kMedian, WindowSpec::Sliding(Millis(100), Millis(30)), false},
      {AggKind::kMedian, WindowSpec::Sliding(Millis(20), Millis(50)), false},
      {AggKind::kDistinctCount, WindowSpec::Sliding(Millis(100), Millis(25)),
       false},
      {AggKind::kMax, WindowSpec::Sliding(Millis(100), Millis(25)), false},
  };
  for (const Case& c : cases) {
    WindowedAggregation::Options o;
    o.window = c.window;
    o.aggregate.kind = c.kind;
    if (c.kind == AggKind::kQuantile) o.aggregate.quantile_q = 0.9;
    WindowedAggregation op(o, &sink);
    EXPECT_EQ(op.uses_pane_runs(), c.pane_runs)
        << o.aggregate.Describe() << " " << c.window.size << "/"
        << c.window.slide;
  }
}

// Engine/pane plumbing sanity.
TEST(EngineSelectionTest, DefaultsAndGates) {
  CollectingResultSink sink;
  {
    WindowedAggregation::Options o;
    o.window = WindowSpec::Sliding(Millis(100), Millis(25));
    o.aggregate.kind = AggKind::kMax;
    WindowedAggregation op(o, &sink);
    EXPECT_TRUE(op.uses_inline_states());
    EXPECT_TRUE(op.uses_pane_sharing());  // Exact kind, tiling window.
  }
  {
    WindowedAggregation::Options o;
    o.window = WindowSpec::Sliding(Millis(100), Millis(25));
    o.aggregate.kind = AggKind::kSum;
    WindowedAggregation op(o, &sink);
    EXPECT_TRUE(op.uses_inline_states());
    EXPECT_FALSE(op.uses_pane_sharing());  // Merging partials is inexact.
  }
  {
    WindowedAggregation::Options o;
    o.window = WindowSpec::Tumbling(Millis(100));
    o.aggregate.kind = AggKind::kCount;
    WindowedAggregation op(o, &sink);
    EXPECT_FALSE(op.uses_pane_sharing());  // No overlap to share.
  }
  {
    WindowedAggregation::Options o;
    o.window = WindowSpec::Sliding(Millis(100), Millis(30));
    o.aggregate.kind = AggKind::kCount;
    WindowedAggregation op(o, &sink);
    EXPECT_FALSE(op.uses_pane_sharing());  // Non-tiling.
  }
  {
    WindowedAggregation::Options o;
    o.aggregate.kind = AggKind::kMedian;
    WindowedAggregation op(o, &sink);
    EXPECT_FALSE(op.uses_inline_states());  // Heavy kind.
  }
}

std::string KindName(AggKind kind) {
  AggregateSpec spec;
  spec.kind = kind;
  return spec.Describe();
}

Event MakeEvent(TimestampUs ts, int64_t key, double v) {
  Event e;
  e.event_time = ts;
  e.arrival_time = ts;
  e.key = key;
  e.value = v;
  return e;
}

// Regression for the fold-plan dangling-pointer hazard: a late event that
// inserts a NEW key into buckets the plan memo is caching reallocates those
// buckets' slot arrays. The epoch check must force a plan rebuild — under
// ASan a miss here is a use-after-free; here it shows up as wrong sums.
TEST(FoldPlanInvalidationTest, LateInsertIntoCachedBucketForcesRebuild) {
  for (Engine engine : {Engine::kHot, Engine::kAmend}) {
    SCOPED_TRACE(engine == Engine::kHot ? "hot" : "amend");
    WindowedAggregation::Options o;
    o.window = WindowSpec::Sliding(Seconds(4), Seconds(1));
    o.aggregate.kind = AggKind::kSum;
    o.allowed_lateness = Seconds(100);
    o.engine = engine;
    CollectingResultSink sink;
    WindowedAggregation op(o, &sink);
    // Prime the plan memo for key 0 in the pane at t=10s. No watermark in
    // between: only the store's epoch stands between the memo and the
    // reallocation below.
    op.OnEvent(MakeEvent(Seconds(10), 0, 1.0));
    // Late tuples for a DIFFERENT key land in the same buckets the plan is
    // caching and grow their slot tables (several keys to force realloc).
    for (int64_t k = 1; k <= 8; ++k) {
      op.OnLateEvent(MakeEvent(Seconds(10) + k, k, 100.0));
    }
    // Same pane, same key as the primed plan: must fold into valid slots.
    op.OnEvent(MakeEvent(Seconds(10) + 1, 0, 2.0));
    op.OnWatermark(kMaxTimestamp, Seconds(20));

    double key0_window_sum = 0.0;
    int64_t key0_results = 0;
    for (const WindowResult& r : sink.results) {
      if (r.key == 0 && r.bounds.start == Seconds(7)) {
        key0_window_sum = r.value;
        ++key0_results;
      }
    }
    EXPECT_EQ(key0_results, 1);
    EXPECT_EQ(key0_window_sum, 3.0);  // Both folds survived the realloc.
  }
}

// A watermark keeps every plan: only the store epoch, which each purge
// bumps, stands between a plan and the slots a purge frees. Key 0's plan
// caches the four windows covering t=10s; a watermark with allowed
// lateness 0 fires and purges all of them. The next tuple for the same
// pane and key must rebuild the plan and fold into fresh windows — under
// ASan a stale plan here is a use-after-free.
TEST(FoldPlanInvalidationTest, PurgeOfCachedWindowsForcesRebuild) {
  for (Engine engine : {Engine::kHot, Engine::kAmend}) {
    for (AggKind kind : {AggKind::kSum, AggKind::kMedian}) {
      SCOPED_TRACE(std::string(engine == Engine::kHot ? "hot " : "amend ") +
                   KindName(kind));
      WindowedAggregation::Options o;
      o.window = WindowSpec::Sliding(Seconds(4), Seconds(1));
      o.aggregate.kind = kind;
      o.allowed_lateness = 0;
      o.engine = engine;
      CollectingResultSink sink;
      WindowedAggregation op(o, &sink);

      op.OnEvent(MakeEvent(Seconds(10), 0, 1.0));
      op.OnWatermark(Seconds(20), Seconds(20));
      ASSERT_EQ(op.live_windows(), 0u);
      op.OnEvent(MakeEvent(Seconds(10) + 1, 0, 2.0));
      EXPECT_EQ(op.live_windows(), 4u);
      op.OnWatermark(kMaxTimestamp, Seconds(21));

      std::vector<double> window7;
      for (const WindowResult& r : sink.results) {
        if (r.key == 0 && r.bounds.start == Seconds(7)) {
          window7.push_back(r.value);
        }
      }
      EXPECT_EQ(window7, (std::vector<double>{1.0, 2.0}));
    }
  }
}

/// `events` with keys reassigned round-robin from `keys`, in arrival
/// order: consecutive tuples never share a key.
std::vector<Event> Interleaved(std::span<const Event> events,
                               const std::vector<int64_t>& keys) {
  std::vector<Event> out(events.begin(), events.end());
  for (size_t i = 0; i < out.size(); ++i) out[i].key = keys[i % keys.size()];
  return out;
}

/// Engine results on `stream` against the reference (kHot under the
/// speculative handler, whose out-of-order folds the reference does not
/// model), both engines, per-event and batched.
void ExpectEnginesMatchReference(const ContinuousQuery& query,
                                 std::span<const Event> stream) {
  const bool speculative =
      query.handler.kind == DisorderHandlerSpec::Kind::kSpeculative;
  ContinuousQuery hot_q = query;
  hot_q.window.engine = Engine::kHot;
  ContinuousQuery amend_q = query;
  amend_q.window.engine = Engine::kAmend;
  const RunReport reference =
      speculative ? RunQuery(hot_q, /*batched=*/false, stream)
                  : RunReference(hot_q, stream, /*batched=*/false);
  for (bool batched : {false, true}) {
    SCOPED_TRACE(batched ? "batched" : "per-event");
    ExpectBitIdentical(reference, RunQuery(hot_q, batched, stream));
    ExpectBitIdentical(reference, RunQuery(amend_q, batched, stream));
  }
}

// Two keys sharing one plan way, interleaved tuple by tuple: every tuple
// evicts the other key's plan. Each fold path (inline, pane-shared, pane
// runs, heavy accumulators) must still match the reference bit for bit.
TEST(FoldPlanTableTest, KeysSharingAWayMatchReference) {
  int64_t other = 1;
  while (WindowedAggregation::PlanWayOf(other) !=
         WindowedAggregation::PlanWayOf(0)) {
    ++other;
  }
  const std::vector<Event> stream = Interleaved(TestStream(), {0, other});
  for (AggKind kind : {AggKind::kSum, AggKind::kMax, AggKind::kMedian,
                       AggKind::kDistinctCount}) {
    for (const DisorderHandlerSpec& handler :
         {DisorderHandlerSpec::PassThrough(),
          DisorderHandlerSpec::Fixed(Millis(30))}) {
      SCOPED_TRACE(KindName(kind) + " " + handler.Describe());
      ExpectEnginesMatchReference(
          MakeQuery(kind, WindowSpec::Sliding(Millis(50), Millis(10)),
                    handler, /*emit_revision_per_update=*/true),
          stream);
    }
  }
}

// Eight keys interleaved tuple by tuple, each on its own plan, over five
// panes per window: median and sum against the reference under every
// handler spec, and under the speculative handler.
TEST(FoldPlanTableTest, EightInterleavedKeysMatchReference) {
  const std::vector<Event> stream =
      Interleaved(TestStream(), {0, 1, 2, 3, 4, 5, 6, 7});
  std::vector<DisorderHandlerSpec> handlers = HandlerSpecs();
  SpeculativeHandler::Options sp;
  sp.target_quality = 0.95;
  handlers.push_back(DisorderHandlerSpec::Speculative(sp));
  for (AggKind kind : {AggKind::kMedian, AggKind::kSum}) {
    for (const DisorderHandlerSpec& handler : handlers) {
      SCOPED_TRACE(KindName(kind) + " " + handler.Describe());
      ExpectEnginesMatchReference(
          MakeQuery(kind, WindowSpec::Sliding(Millis(50), Millis(10)),
                    handler, /*emit_revision_per_update=*/true),
          stream);
    }
  }
}

}  // namespace
}  // namespace streamq
