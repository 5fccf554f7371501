// Amend-engine equivalence: the kAmend B-tree store must be
// indistinguishable from the std::map reference in tests/reference/ (and
// therefore from kHot) — byte-identical WindowResult sequences and stats —
// for every aggregate kind, window family, handler spec, and feed
// granularity. On top, the
// speculative emit-then-amend mode is pinned two ways: kAmend and kHot
// produce bit-identical emission logs under the same speculative handler,
// and the *final revision* per window matches a fully-buffered run
// byte-for-byte for the order-insensitive exact aggregate kinds.

#include <algorithm>
#include <bit>
#include <cctype>
#include <cstdint>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/continuous_query.h"
#include "core/executor.h"
#include "core/session_options.h"
#include "quality/speculation.h"
#include "stream/generator.h"
#include "tests/reference/reference_window.h"
#include "tests/test_util.h"
#include "window/amend_window_store.h"
#include "window/window.h"
#include "window/window_operator.h"

namespace streamq {
namespace {

using Engine = WindowedAggregation::Engine;

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
  {
    SpeculativeHandler::Options sp;
    sp.target_quality = 0.95;
    specs.push_back(DisorderHandlerSpec::Speculative(sp));
  }
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
                          const DisorderHandlerSpec& handler, Engine engine,
                          DurationUs lateness = Millis(20)) {
  ContinuousQuery q;
  q.name = "amend_equiv";
  q.handler = handler;
  q.window.window = shape;
  q.window.aggregate.kind = kind;
  if (kind == AggKind::kQuantile) q.window.aggregate.quantile_q = 0.9;
  q.window.allowed_lateness = lateness;
  q.window.emit_revision_per_update = true;
  q.window.per_key_watermarks = handler.per_key;
  q.window.engine = engine;
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
  EXPECT_EQ(want.results_amended, got.results_amended);
  EXPECT_EQ(want.handler_stats.events_out, got.handler_stats.events_out);
  EXPECT_EQ(want.handler_stats.events_late, got.handler_stats.events_late);
  EXPECT_EQ(want.final_slack, got.final_slack);
}

using Param = std::tuple<int, int>;  // (kind index, shape index)

class AmendEquivalenceTest : public ::testing::TestWithParam<Param> {};

// kAmend == reference == kHot, bit for bit, per-event and batched, under
// every handler spec — including the speculative handler, which feeds the
// engines out-of-order tuples directly (the in-order reference cannot
// absorb those, so kHot serves as the reference there).
TEST_P(AmendEquivalenceTest, AmendMatchesReferenceBitwise) {
  const auto [kind_index, shape_index] = GetParam();
  const AggKind kind = kAllKinds[static_cast<size_t>(kind_index)];
  const Shape& shape = Shapes()[static_cast<size_t>(shape_index)];
  for (const DisorderHandlerSpec& handler : HandlerSpecs()) {
    SCOPED_TRACE(handler.Describe());
    const bool speculative =
        handler.kind == DisorderHandlerSpec::Kind::kSpeculative;
    const ContinuousQuery hot_q =
        MakeQuery(kind, shape.spec, handler, Engine::kHot);
    const ContinuousQuery amend_q =
        MakeQuery(kind, shape.spec, handler, Engine::kAmend);
    auto run_reference = [&](bool batched) {
      return speculative
                 ? RunQuery(hot_q, batched)
                 : reference::RunReference(hot_q, TestStream(), batched);
    };
    const RunReport reference = run_reference(/*batched=*/false);
    ExpectBitIdentical(reference, run_reference(/*batched=*/true));
    ExpectBitIdentical(reference, RunQuery(amend_q, /*batched=*/false));
    ExpectBitIdentical(reference, RunQuery(amend_q, /*batched=*/true));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKindsAllShapes, AmendEquivalenceTest,
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

// Many panes per window on the amend store: median and quantile(0.9) over
// 8 sorted pane runs, and over 65 (past the fold plan's memo), with heavy
// ties and zeros of both signs, in both revision modes. kAmend matches the
// reference bit for bit under every buffered handler; under the
// speculative handler, whose out-of-order folds the reference does not
// model, it matches kHot.
class ManyPaneAmendTest : public ::testing::TestWithParam<Param> {};

TEST_P(ManyPaneAmendTest, AmendMatchesReferenceBitwise) {
  const auto [kind_index, shape_index] = GetParam();
  const AggKind kind = kind_index == 0 ? AggKind::kMedian : AggKind::kQuantile;
  const WindowSpec shape = shape_index == 0
                               ? WindowSpec::Sliding(Millis(80), Millis(10))
                               : WindowSpec::Sliding(Millis(130), Millis(2));
  for (const DisorderHandlerSpec& handler : HandlerSpecs()) {
    for (bool per_update : {true, false}) {
      SCOPED_TRACE(handler.Describe() +
                   (per_update ? " perupdate" : " batchrev"));
      ContinuousQuery hot_q = MakeQuery(kind, shape, handler, Engine::kHot);
      ContinuousQuery amend_q = MakeQuery(kind, shape, handler, Engine::kAmend);
      hot_q.window.emit_revision_per_update = per_update;
      amend_q.window.emit_revision_per_update = per_update;
      const RunReport reference =
          handler.kind == DisorderHandlerSpec::Kind::kSpeculative
              ? RunQuery(hot_q, /*batched=*/false, TiedStream())
              : reference::RunReference(hot_q, TiedStream(), /*batched=*/false);
      EXPECT_GT(reference.window_stats.late_applied, 0);
      ExpectBitIdentical(reference,
                         RunQuery(amend_q, /*batched=*/false, TiedStream()));
      ExpectBitIdentical(reference,
                         RunQuery(amend_q, /*batched=*/true, TiedStream()));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    QuantileKinds, ManyPaneAmendTest,
    ::testing::Combine(::testing::Range(0, 2), ::testing::Range(0, 2)),
    [](const ::testing::TestParamInfo<Param>& info) {
      std::string name =
          std::get<0>(info.param) == 0 ? "median" : "quantile090";
      name += std::get<1>(info.param) == 0 ? "_tiling8" : "_tiling65";
      return name;
    });

// With 100 s of allowed lateness every fired window is kept until the end
// of the stream, so firing scans start at the fire frontier instead of
// walking the kept windows. Both engines must still match the reference bit
// for bit, per-event and batched.
const std::vector<AggKind> kFrontierKinds = {AggKind::kSum, AggKind::kMedian,
                                             AggKind::kQuantile};

class FireFrontierEquivalenceTest : public ::testing::TestWithParam<Param> {};

TEST_P(FireFrontierEquivalenceTest, KeptWindowsMatchReferenceBitwise) {
  const auto [kind_index, shape_index] = GetParam();
  const AggKind kind = kFrontierKinds[static_cast<size_t>(kind_index)];
  const Shape& shape = Shapes()[static_cast<size_t>(shape_index)];
  SpeculativeHandler::Options sp;
  sp.target_quality = 0.95;
  AqKSlack::Options aq;
  aq.target_quality = 0.95;
  for (const DisorderHandlerSpec& handler :
       {DisorderHandlerSpec::Speculative(sp), DisorderHandlerSpec::Aq(aq),
        DisorderHandlerSpec::Fixed(Millis(30)).PerKey()}) {
    SCOPED_TRACE(handler.Describe());
    const ContinuousQuery hot_q = MakeQuery(kind, shape.spec, handler,
                                            Engine::kHot, Seconds(100));
    const ContinuousQuery amend_q = MakeQuery(kind, shape.spec, handler,
                                              Engine::kAmend, Seconds(100));
    const RunReport reference =
        reference::RunReference(hot_q, TestStream(), /*batched=*/false);
    EXPECT_GT(reference.window_stats.revisions, 0);
    ExpectBitIdentical(reference, reference::RunReference(
                                      hot_q, TestStream(), /*batched=*/true));
    for (const ContinuousQuery* q : {&hot_q, &amend_q}) {
      ExpectBitIdentical(reference, RunQuery(*q, /*batched=*/false));
      ExpectBitIdentical(reference, RunQuery(*q, /*batched=*/true));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    KindsShapes, FireFrontierEquivalenceTest,
    ::testing::Combine(::testing::Range(0, 3), ::testing::Range(0, 4)),
    [](const ::testing::TestParamInfo<Param>& info) {
      AggregateSpec spec;
      spec.kind = kFrontierKinds[static_cast<size_t>(std::get<0>(info.param))];
      std::string name = spec.Describe();
      name.erase(std::remove_if(name.begin(), name.end(),
                                [](char c) { return !std::isalnum(c); }),
                 name.end());
      name += "_";
      name += Shapes()[static_cast<size_t>(std::get<1>(info.param))].name;
      return name;
    });

// The speculative contract: with enough allowed lateness for every tuple
// to land, the *final revision* per window from an emit-then-amend run
// equals what a fully buffered run produces — byte for byte — for the
// aggregate kinds whose value is independent of fold order. (Sum-family
// kinds agree only to rounding, because the two modes fold tuples in
// different orders; the bench gates them via the same exact-kind subset.)
TEST(SpeculativeFinalResultTest, FinalRevisionsMatchBufferedBitwise) {
  const std::vector<AggKind> order_insensitive = {
      AggKind::kCount, AggKind::kMin, AggKind::kMax, AggKind::kMedian,
      AggKind::kDistinctCount};
  for (AggKind kind : order_insensitive) {
    for (const Shape& shape : Shapes()) {
      SCOPED_TRACE(std::string(shape.name) + " kind " +
                   std::to_string(static_cast<int>(kind)));
      SpeculativeHandler::Options sp;
      sp.target_quality = 0.9;
      const ContinuousQuery spec_q =
          MakeQuery(kind, shape.spec, DisorderHandlerSpec::Speculative(sp),
                    Engine::kAmend, /*lateness=*/Seconds(100));
      // Fully buffered reference: slack far beyond the delay tail, so no
      // tuple is ever late and every first emission is already final.
      const ContinuousQuery buffered_q =
          MakeQuery(kind, shape.spec, DisorderHandlerSpec::Fixed(Seconds(1)),
                    Engine::kHot, /*lateness=*/Seconds(100));
      const RunReport speculative = RunQuery(spec_q, /*batched=*/true);
      const RunReport buffered = RunQuery(buffered_q, /*batched=*/true);

      const std::vector<WindowResult> got = FinalResults(speculative.results);
      const std::vector<WindowResult> want = FinalResults(buffered.results);
      ASSERT_EQ(want.size(), got.size());
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(want[i].bounds, got[i].bounds) << i;
        EXPECT_EQ(want[i].key, got[i].key) << i;
        EXPECT_EQ(want[i].tuple_count, got[i].tuple_count) << i;
        EXPECT_EQ(std::bit_cast<uint64_t>(want[i].value),
                  std::bit_cast<uint64_t>(got[i].value))
            << i << ": " << want[i].value << " vs " << got[i].value;
      }
      EXPECT_EQ(FinalChecksum(buffered.results),
                FinalChecksum(speculative.results));

      // The accounting the bench reports: the speculative run published
      // amendments, the buffered one did not.
      EXPECT_EQ(buffered.results_amended, 0);
      EXPECT_EQ(speculative.results_amended,
                speculative.window_stats.revisions);
    }
  }
}

// The amend store itself: out-of-order inserts land in start order, the
// back finger keeps in-order appends cheap, and bulk evict via Scan purges
// whole leaves.
TEST(AmendWindowStoreTest, OutOfOrderInsertScanAndEvict) {
  AmendWindowStore store(Millis(10));
  // Shuffled starts, several keys each.
  const std::vector<int64_t> starts = {50, 10, 90, 30, 70, 20, 0, 80, 60, 40};
  for (int64_t s : starts) {
    for (int64_t key = 0; key < 3; ++key) {
      bool created = false;
      auto* slot = store.GetOrCreate(Millis(s), key, &created);
      ASSERT_NE(slot, nullptr);
      EXPECT_TRUE(created);
      slot->key = key;
    }
  }
  EXPECT_EQ(store.size(), starts.size() * 3);
  EXPECT_EQ(store.live_buckets(), starts.size());

  // Scan must visit in ascending start order.
  std::vector<TimestampUs> seen;
  store.Scan(kMinTimestamp, [&](AmendWindowStore::Bucket& b) {
    seen.push_back(b.start());
    return AmendWindowStore::Visit::kKeep;
  });
  std::vector<TimestampUs> want_order = seen;
  std::sort(want_order.begin(), want_order.end());
  EXPECT_EQ(seen, want_order);
  EXPECT_EQ(seen.size(), starts.size());

  // Find hits every inserted pair, misses absent ones.
  EXPECT_NE(store.Find(Millis(30), 2), nullptr);
  EXPECT_EQ(store.Find(Millis(30), 3), nullptr);
  EXPECT_EQ(store.Find(Millis(35), 0), nullptr);

  // Bulk evict everything below 50ms; the rest stays scannable in order.
  const uint64_t epoch_before = store.epoch();
  store.Scan(kMinTimestamp, [&](AmendWindowStore::Bucket& b) {
    return b.start() < Millis(50) ? AmendWindowStore::Visit::kPurge
                                  : AmendWindowStore::Visit::kKeep;
  });
  EXPECT_EQ(store.live_buckets(), 5u);
  EXPECT_EQ(store.size(), 15u);
  EXPECT_GT(store.epoch(), epoch_before);
  seen.clear();
  store.Scan(kMinTimestamp, [&](AmendWindowStore::Bucket& b) {
    seen.push_back(b.start());
    return AmendWindowStore::Visit::kKeep;
  });
  EXPECT_EQ(seen, (std::vector<TimestampUs>{Millis(50), Millis(60), Millis(70),
                                            Millis(80), Millis(90)}));
  // Early-out stops the scan.
  int visited = 0;
  store.Scan(kMinTimestamp, [&](AmendWindowStore::Bucket&) {
    ++visited;
    return AmendWindowStore::Visit::kStop;
  });
  EXPECT_EQ(visited, 1);
}

// Leaf splits: enough distinct starts to force several splits, inserted
// adversarially (alternating front/back), must stay ordered and findable.
TEST(AmendWindowStoreTest, SplitsPreserveOrderAndFind) {
  AmendWindowStore store(Millis(1));
  std::vector<int64_t> starts;
  for (int64_t i = 0; i < 300; ++i) {
    starts.push_back(i % 2 == 0 ? i : 600 - i);
  }
  for (int64_t s : starts) {
    bool created = false;
    store.GetOrCreate(Millis(s), /*key=*/7, &created);
    EXPECT_TRUE(created) << s;
  }
  EXPECT_EQ(store.size(), starts.size());
  for (int64_t s : starts) {
    EXPECT_NE(store.Find(Millis(s), 7), nullptr) << s;
  }
  std::vector<TimestampUs> seen;
  store.Scan(kMinTimestamp, [&](AmendWindowStore::Bucket& b) {
    seen.push_back(b.start());
    return AmendWindowStore::Visit::kKeep;
  });
  ASSERT_EQ(seen.size(), starts.size());
  EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
}

// Scan(from, ...) starts with a root and a leaf binary search: it must
// visit exactly the live starts >= from for bounds on a leaf's first or
// last bucket, between leaves, inside a leaf, and outside the stored range
// — before and after bulk evictions reshape the leaves.
TEST(AmendWindowStoreTest, ScanFromBoundAcrossLeafBoundaries) {
  AmendWindowStore store(Millis(1));
  std::vector<TimestampUs> starts;
  // 200 starts (several leaves), in-order and out-of-order inserts mixed so
  // both the back finger and mid-tree splits shape the leaves.
  for (int64_t i = 0; i < 200; ++i) {
    starts.push_back(Millis(i % 3 == 0 ? 400 - 2 * i : 2 * i + 1));
  }
  for (TimestampUs s : starts) {
    bool created = false;
    store.GetOrCreate(s, /*key=*/1, &created);
  }
  auto expect_exact = [&store](std::vector<TimestampUs> live) {
    std::sort(live.begin(), live.end());
    live.erase(std::unique(live.begin(), live.end()), live.end());
    ASSERT_EQ(store.live_buckets(), live.size());
    std::vector<TimestampUs> bounds = {kMinTimestamp, kMaxTimestamp};
    for (TimestampUs s : live) bounds.insert(bounds.end(), {s - 1, s, s + 1});
    for (TimestampUs from : bounds) {
      std::vector<TimestampUs> want;
      for (TimestampUs s : live) {
        if (s >= from) want.push_back(s);
      }
      std::vector<TimestampUs> seen;
      store.Scan(from, [&](AmendWindowStore::Bucket& b) {
        seen.push_back(b.start());
        return AmendWindowStore::Visit::kKeep;
      });
      ASSERT_EQ(seen, want) << "from " << from;
    }
  };
  expect_exact(starts);

  // Bounded bulk eviction of a middle range spanning several leaves.
  store.Scan(Millis(101), [](AmendWindowStore::Bucket& b) {
    return b.start() < Millis(250) ? AmendWindowStore::Visit::kPurge
                                   : AmendWindowStore::Visit::kStop;
  });
  std::erase_if(starts, [](TimestampUs s) {
    return s >= Millis(101) && s < Millis(250);
  });
  expect_exact(starts);
}

// Window emission reads later panes while a purge is running: Find on the
// visited bucket or a later one must work from inside a purging visitor,
// while the buckets already purged in the same leaf await compaction.
// (Under ASan a null dereference here is a crash.)
TEST(AmendWindowStoreTest, FindLaterBucketsDuringPurgingScan) {
  AmendWindowStore store(Millis(1));
  constexpr int64_t kStarts = 100;  // Several leaves.
  for (int64_t i = 0; i < kStarts; ++i) {
    for (int64_t key = 0; key < 2; ++key) {
      bool created = false;
      store.GetOrCreate(Millis(i), key, &created)->key = key;
    }
  }
  int64_t visited = 0;
  store.Scan(kMinTimestamp, [&](AmendWindowStore::Bucket& b) {
    ++visited;
    for (int64_t ahead = 0; ahead < 8; ++ahead) {
      const TimestampUs start = b.start() + Millis(ahead);
      AmendWindowStore::Slot* s = store.Find(start, 1);
      if (start < Millis(kStarts)) {
        EXPECT_EQ(s == nullptr ? -1 : s->key, 1) << "start " << start;
      } else {
        EXPECT_EQ(s, nullptr) << "start " << start;
      }
    }
    EXPECT_EQ(store.Find(b.start() + Millis(1) / 2, 1), nullptr);
    return b.start() < Millis(70) ? AmendWindowStore::Visit::kPurge
                                  : AmendWindowStore::Visit::kKeep;
  });
  EXPECT_EQ(visited, kStarts);
  EXPECT_EQ(store.live_buckets(), 30u);
  EXPECT_EQ(store.Find(Millis(69), 1), nullptr);
  EXPECT_NE(store.Find(Millis(70), 0), nullptr);
}

// The retired legacy engine is a configuration error with a hint, not a
// silent downgrade.
TEST(SpeculativeValidationTest, LegacyEngineRejected) {
  WindowedAggregation::Engine engine = Engine::kAmend;
  const Status status = ParseWindowEngineName("legacy", &engine);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("did you mean --window-engine=hot"),
            std::string::npos)
      << status.ToString();
  EXPECT_EQ(engine, Engine::kAmend);  // Untouched on error.
}

// The builder's Speculative() keeps whichever engine the caller chose:
// both absorb out-of-order folds.
TEST(SpeculativeValidationTest, BuilderPairsSpeculativeWithAmendEngine) {
  for (Engine engine : {Engine::kHot, Engine::kAmend}) {
    const ContinuousQuery q = QueryBuilder("spec")
                                  .Sliding(Millis(50), Millis(25))
                                  .Aggregate("count")
                                  .WindowEngine(engine)
                                  .Speculative(0.9)
                                  .Build();
    EXPECT_EQ(q.window.engine, engine);
    EXPECT_EQ(q.handler.kind, DisorderHandlerSpec::Kind::kSpeculative);
    EXPECT_TRUE(q.Validate().ok());
  }
}

}  // namespace
}  // namespace streamq
