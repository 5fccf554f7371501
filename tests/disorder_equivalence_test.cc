// Ring-vs-heap equivalence above the buffer: every buffering handler kind,
// global and per-key, fed per-event and batched, including mid-stream
// heartbeats and the end-of-stream flush, must emit exactly the signals a
// handler buffering in the reference binary heap would. A per-event run
// mirrors every buffered tuple into reference::HeapReorderBuffer (one per
// key for keyed handlers) and checks each release against the heap's pops;
// batched runs must then match that run signal for signal, and the full
// pipeline must match, RunReport for RunReport, a window operator fed by
// the heap's pops. Pop order is fully determined by the total order
// (event_time, id), so any divergence is a buffer bug, not a tie-break.
// The runs also check the handler contract: releases in event-time order
// (per key for keyed handlers) and never behind the watermark, monotone
// watermarks, and in == out + late + shed.

#include <algorithm>
#include <cstddef>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/continuous_query.h"
#include "core/executor.h"
#include "disorder/handler_factory.h"
#include "stream/generator.h"
#include "tests/reference/reference_reorder_buffer.h"
#include "tests/test_util.h"
#include "window/window.h"
#include "window/window_operator.h"

namespace streamq {
namespace {

/// The five buffering handler kinds (pass-through has no buffer and thus no
/// releases to compare).
std::vector<DisorderHandlerSpec> BufferingSpecs() {
  std::vector<DisorderHandlerSpec> specs;
  specs.push_back(DisorderHandlerSpec::Fixed(Millis(30)));
  {
    MpKSlack::Options mp;  // Default: sliding estimation window.
    specs.push_back(DisorderHandlerSpec::Mp(mp));
  }
  {
    AqKSlack::Options aq;
    aq.target_quality = 0.95;
    specs.push_back(DisorderHandlerSpec::Aq(aq));
  }
  {
    LbKSlack::Options lb;
    specs.push_back(DisorderHandlerSpec::Lb(lb));
  }
  {
    WatermarkReorderer::Options wm;
    wm.bound = Millis(30);
    wm.period_events = 7;  // Off-stride from the batch sizes under test.
    wm.allowed_lateness = Millis(10);
    specs.push_back(DisorderHandlerSpec::Watermark(wm));
  }
  return specs;
}

const std::vector<Event>& TestStream() {
  static const std::vector<Event>* events = [] {
    WorkloadConfig cfg;
    cfg.num_events = 4000;
    cfg.events_per_second = 10000.0;
    cfg.num_keys = 8;
    cfg.delay.model = DelayModel::kExponential;
    cfg.delay.a = 20000.0;
    cfg.seed = 42;
    return new std::vector<Event>(GenerateWorkload(cfg).arrival_order);
  }();
  return *events;
}

/// The heap side of the comparison. Mirrors every tuple the handler buffers
/// into a reference heap (one per key for keyed handlers, whose shards each
/// own a buffer) and pops the heap alongside each release: every released
/// run must equal the heap's pops element for element, and no watermark may
/// pass a tuple the heap still holds. The heap's pops, not the handler's, go
/// on to `downstream` together with the other signals, so an operator
/// behind the mirror sees the stream a heap-buffered handler would emit.
///
/// Which arrivals were buffered is read off the signals of a per-event
/// step: the arrival is buffered unless it comes back through OnLateEvent
/// or is dropped outright, and every handler ingests before it releases.
/// So the arrival enters the heap at the step's first release or watermark,
/// or when the step is settled.
class HeapMirror {
 public:
  HeapMirror(bool per_key, EventSink* downstream)
      : per_key_(per_key), downstream_(downstream) {}

  /// Starts a per-event step for arrival `e`.
  void Arrive(const Event& e) { pending_ = e; }

  /// Ends the step: an arrival not yet resolved was buffered unless the
  /// handler dropped it.
  void Settle(bool dropped) {
    if (!dropped) BufferPending();
    pending_.reset();
  }

  void OnLate(const Event& e) {
    if (pending_.has_value() && pending_->id == e.id) pending_.reset();
    if (downstream_ != nullptr) downstream_->OnLateEvent(e);
  }

  void OnRelease(std::span<const Event> events) {
    BufferPending();
    reference::HeapReorderBuffer& heap = HeapFor(events.front().key);
    popped_.clear();
    for (size_t i = 0; i < events.size() && !heap.empty(); ++i) {
      Event e;
      heap.PopMin(&e);
      popped_.push_back(e);
    }
    matches_ &= std::equal(events.begin(), events.end(), popped_.begin(),
                           popped_.end());
    compared_ += static_cast<int64_t>(events.size());
    if (downstream_ != nullptr) downstream_->OnEvents(popped_);
  }

  void OnWatermark(TimestampUs watermark, TimestampUs stream_time) {
    BufferPending();
    // A keyed handler's merged watermark trails every key's own; the keyed
    // watermarks carry the per-buffer check.
    if (!per_key_) CheckHeld(HeapFor(0), watermark);
    if (downstream_ != nullptr) {
      downstream_->OnWatermark(watermark, stream_time);
    }
  }

  void OnKeyedWatermark(int64_t key, TimestampUs watermark,
                        TimestampUs stream_time) {
    BufferPending();
    CheckHeld(HeapFor(key), watermark);
    if (downstream_ != nullptr) {
      downstream_->OnKeyedWatermark(key, watermark, stream_time);
    }
  }

  /// True iff every release matched the heap's pops, no watermark passed a
  /// held tuple, and the heaps are empty (call after the flush).
  bool MatchedAndDrained() const {
    bool drained = true;
    for (const auto& [key, heap] : heaps_) drained &= heap.empty();
    return matches_ && drained;
  }

  /// Released tuples compared against the heap.
  int64_t compared() const { return compared_; }

 private:
  reference::HeapReorderBuffer& HeapFor(int64_t key) {
    return heaps_[per_key_ ? key : 0];
  }

  void BufferPending() {
    if (!pending_.has_value()) return;
    HeapFor(pending_->key).Push(*pending_);
    pending_.reset();
  }

  void CheckHeld(const reference::HeapReorderBuffer& heap,
                 TimestampUs watermark) {
    matches_ &= heap.empty() || heap.MinEventTime() > watermark;
  }

  bool per_key_;
  EventSink* downstream_;
  std::map<int64_t, reference::HeapReorderBuffer> heaps_;
  std::optional<Event> pending_;
  std::vector<Event> popped_;
  bool matches_ = true;
  int64_t compared_ = 0;
};

/// Checks the ordering contract as signals arrive and records every sink
/// callback with full payloads, in call order, so two handler runs can be
/// compared signal for signal; forwards every signal to the heap mirror
/// when one is attached. Keyed handlers promise order and watermark per key
/// only: shards interleave, and a key first seen after the merged watermark
/// passed its event times starts below it. So the per-key checks run
/// against each key's own watermark.
struct RecordingSink : testutil::ContractCheckingSink {
  using ContractCheckingSink::OnEvents;

  void OnEvents(std::span<const Event> events) override {
    if (heap.has_value() && !events.empty()) heap->OnRelease(events);
    ContractCheckingSink::OnEvents(events);
  }
  void OnEvent(const Event& e) override {
    const auto [last, fresh] = last_per_key.try_emplace(e.key, e.event_time);
    if (!fresh) {
      ordered_per_key &= last->second <= e.event_time;
      last->second = e.event_time;
    }
    const auto key_wm = watermark_per_key.find(e.key);
    if (key_wm != watermark_per_key.end()) {
      respects_key_watermark &= e.event_time >= key_wm->second;
    }
    ContractCheckingSink::OnEvent(e);
  }
  void OnWatermark(TimestampUs watermark, TimestampUs stream_time) override {
    if (heap.has_value()) heap->OnWatermark(watermark, stream_time);
    watermarks.emplace_back(watermark, stream_time);
    ContractCheckingSink::OnWatermark(watermark, stream_time);
  }
  void OnKeyedWatermark(int64_t key, TimestampUs watermark,
                        TimestampUs stream_time) override {
    if (heap.has_value()) heap->OnKeyedWatermark(key, watermark, stream_time);
    keyed_watermarks.emplace_back(key, watermark, stream_time);
    const auto [key_wm, fresh] = watermark_per_key.try_emplace(key, watermark);
    if (!fresh) {
      key_watermarks_monotone &= watermark >= key_wm->second;
      key_wm->second = watermark;
    }
  }
  void OnLateEvent(const Event& e) override {
    if (heap.has_value()) heap->OnLate(e);
    ContractCheckingSink::OnLateEvent(e);
  }

  std::optional<HeapMirror> heap;
  std::map<int64_t, TimestampUs> last_per_key;
  std::map<int64_t, TimestampUs> watermark_per_key;
  bool ordered_per_key = true;
  bool respects_key_watermark = true;
  bool key_watermarks_monotone = true;
  std::vector<std::pair<TimestampUs, TimestampUs>> watermarks;
  std::vector<std::tuple<int64_t, TimestampUs, TimestampUs>> keyed_watermarks;
};

struct HandlerRun {
  RecordingSink sink;
  DisorderHandlerStats stats;
  DurationUs final_slack = 0;
};

/// Drives a bare handler over the test stream with heartbeats every 512
/// arrivals (bound = event-time frontier of the prefix) and a final Flush,
/// then checks the contract on the recorded signals and the handler stats.
/// A per-event run (batch_size 0) is also checked against the heap mirror,
/// which forwards the heap-buffered signal stream to `heap_downstream`.
HandlerRun RunHandler(const DisorderHandlerSpec& spec, size_t batch_size,
                      EventSink* heap_downstream = nullptr,
                      PipelineObserver* observer = nullptr) {
  std::unique_ptr<DisorderHandler> handler = MakeDisorderHandlerOrDie(spec);
  if (observer != nullptr) handler->set_observer(observer);
  HandlerRun run;
  RecordingSink& sink = run.sink;
  if (batch_size == 0) sink.heap.emplace(spec.per_key, heap_downstream);
  const std::span<const Event> stream(TestStream());
  TimestampUs frontier = kMinTimestamp;
  size_t fed = 0;
  while (fed < stream.size()) {
    const size_t n =
        std::min(batch_size == 0 ? size_t{1} : batch_size,
                 stream.size() - fed);
    const std::span<const Event> chunk = stream.subspan(fed, n);
    for (const Event& e : chunk) frontier = std::max(frontier, e.event_time);
    if (batch_size == 0) {
      for (const Event& e : chunk) {
        const int64_t dropped = handler->stats().events_dropped;
        sink.heap->Arrive(e);
        handler->OnEvent(e, &sink);
        sink.heap->Settle(handler->stats().events_dropped > dropped);
      }
    } else {
      handler->OnBatch(chunk, &sink);
    }
    fed += n;
    if (fed % 512 == 0) {
      handler->OnHeartbeat(frontier, chunk.back().arrival_time, &sink);
    }
  }
  handler->Flush(&sink);

  EXPECT_TRUE(sink.ordered_per_key);
  EXPECT_TRUE(sink.respects_key_watermark);
  EXPECT_TRUE(sink.key_watermarks_monotone);
  if (spec.per_key) {
    EXPECT_FALSE(sink.keyed_watermarks.empty());
  } else {
    EXPECT_TRUE(sink.ordered);
    EXPECT_TRUE(sink.respects_watermark);
  }
  EXPECT_TRUE(sink.watermarks_monotone);
  EXPECT_EQ(sink.current_watermark, kMaxTimestamp);
  EXPECT_EQ(handler->buffered(), 0u);
  const DisorderHandlerStats& hs = handler->stats();
  EXPECT_EQ(hs.events_in, static_cast<int64_t>(stream.size()));
  EXPECT_EQ(hs.events_in, hs.events_out + hs.events_late + hs.events_shed);
  EXPECT_EQ(static_cast<int64_t>(sink.events.size()), hs.events_out);
  // Dropped tuples are counted late but never reach the sink.
  EXPECT_EQ(static_cast<int64_t>(sink.late.size()),
            hs.events_late - hs.events_dropped);
  if (sink.heap.has_value()) {
    EXPECT_TRUE(sink.heap->MatchedAndDrained());
    EXPECT_EQ(sink.heap->compared(), hs.events_out);
  }
  run.stats = hs;
  run.final_slack = handler->current_slack();
  return run;
}

void ExpectSameSignals(const RecordingSink& heap_checked,
                       const RecordingSink& ring) {
  EXPECT_EQ(heap_checked.events, ring.events);
  EXPECT_EQ(heap_checked.watermarks, ring.watermarks);
  EXPECT_EQ(heap_checked.late, ring.late);
  EXPECT_EQ(heap_checked.keyed_watermarks, ring.keyed_watermarks);
}

using HandlerParam = std::tuple<int, bool, size_t>;  // (spec, keyed, batch)

std::string ParamName(const ::testing::TestParamInfo<HandlerParam>& info) {
  std::string name = "spec";  // += avoids GCC 12 -Wrestrict (PR105651).
  name += std::to_string(std::get<0>(info.param));
  name += std::get<1>(info.param) ? "_keyed" : "_global";
  const size_t b = std::get<2>(info.param);
  name += b == 0 ? std::string("_perevent") : "_batch" + std::to_string(b);
  return name;
}

DisorderHandlerSpec SpecFor(const HandlerParam& param) {
  DisorderHandlerSpec spec =
      BufferingSpecs()[static_cast<size_t>(std::get<0>(param))];
  return std::get<1>(param) ? spec.PerKey() : spec;
}

class DisorderEngineEquivalenceTest
    : public ::testing::TestWithParam<HandlerParam> {};

// The heap-checked side is always the per-event run; the perevent parameter
// repeats it, which also pins run-to-run determinism.
TEST_P(DisorderEngineEquivalenceTest, RingMatchesHeapSignalForSignal) {
  const DisorderHandlerSpec spec = SpecFor(GetParam());
  const size_t batch_size = std::get<2>(GetParam());
  SCOPED_TRACE(spec.Describe() + " batch=" + std::to_string(batch_size));
  ExpectSameSignals(RunHandler(spec, 0).sink,
                    RunHandler(spec, batch_size).sink);
}

INSTANTIATE_TEST_SUITE_P(
    AllSpecs, DisorderEngineEquivalenceTest,
    ::testing::Combine(::testing::Range(0, 5), ::testing::Bool(),
                       ::testing::Values<size_t>(0, 1, 64)),
    ParamName);

// --- Full-pipeline RunReport equivalence ---------------------------------

ContinuousQuery QueryFor(const DisorderHandlerSpec& spec) {
  ContinuousQuery q;
  q.name = "engine-equiv";
  q.handler = spec;
  q.window.window = WindowSpec::Sliding(Millis(50), Millis(25));
  q.window.aggregate.kind = AggKind::kSum;
  q.window.allowed_lateness = Millis(20);
  q.window.per_key_watermarks = spec.per_key;
  return q;
}

RunReport RunPipeline(const ContinuousQuery& q, size_t batch_size,
                      PipelineObserver* observer = nullptr) {
  QueryExecutor exec(q);
  if (observer != nullptr) exec.SetObserver(observer);
  const std::span<const Event> events(TestStream());
  size_t fed = 0;
  TimestampUs frontier = kMinTimestamp;
  while (fed < events.size()) {
    const size_t n = std::min(batch_size == 0 ? size_t{1} : batch_size,
                              events.size() - fed);
    const std::span<const Event> chunk = events.subspan(fed, n);
    for (const Event& e : chunk) frontier = std::max(frontier, e.event_time);
    if (batch_size == 0) {
      for (const Event& e : chunk) exec.Feed(e);
    } else {
      exec.FeedBatch(chunk);
    }
    fed += n;
    if (fed % 512 == 0) {
      exec.FeedHeartbeat(frontier, chunk.back().arrival_time);
    }
  }
  exec.Finish();
  return exec.Report();
}

void ExpectIdenticalReports(const RunReport& heap, const RunReport& ring) {
  EXPECT_EQ(heap.events_processed, ring.events_processed);
  EXPECT_EQ(heap.results, ring.results);

  const DisorderHandlerStats& a = heap.handler_stats;
  const DisorderHandlerStats& b = ring.handler_stats;
  EXPECT_EQ(a.events_in, b.events_in);
  EXPECT_EQ(a.events_out, b.events_out);
  EXPECT_EQ(a.events_late, b.events_late);
  EXPECT_EQ(a.events_dropped, b.events_dropped);
  EXPECT_EQ(a.max_buffer_size, b.max_buffer_size);
  EXPECT_EQ(a.buffering_latency_us.count(), b.buffering_latency_us.count());
  EXPECT_EQ(a.buffering_latency_us.mean(), b.buffering_latency_us.mean());
  EXPECT_EQ(a.buffering_latency_us.min(), b.buffering_latency_us.min());
  EXPECT_EQ(a.buffering_latency_us.max(), b.buffering_latency_us.max());

  const WindowedAggregation::Stats& wa = heap.window_stats;
  const WindowedAggregation::Stats& wb = ring.window_stats;
  EXPECT_EQ(wa.events, wb.events);
  EXPECT_EQ(wa.late_applied, wb.late_applied);
  EXPECT_EQ(wa.late_dropped, wb.late_dropped);
  EXPECT_EQ(wa.windows_fired, wb.windows_fired);
  EXPECT_EQ(wa.revisions, wb.revisions);
  EXPECT_EQ(wa.max_live_windows, wb.max_live_windows);

  EXPECT_EQ(heap.final_slack, ring.final_slack);
}

/// The RunReport a heap-buffered handler yields: the heap mirror of a
/// per-event handler run feeds a window operator built from the query.
RunReport HeapReplayReport(const ContinuousQuery& q,
                           PipelineObserver* observer = nullptr) {
  CollectingResultSink results;
  WindowedAggregation window(q.window, &results);
  const HandlerRun run = RunHandler(q.handler, 0, &window, observer);
  RunReport report;
  report.events_processed = static_cast<int64_t>(TestStream().size());
  report.results = results.results;
  report.handler_stats = run.stats;
  report.window_stats = window.stats();
  report.final_slack = run.final_slack;
  return report;
}

class DisorderEnginePipelineTest
    : public ::testing::TestWithParam<HandlerParam> {};

TEST_P(DisorderEnginePipelineTest, RingMatchesHeapReportForReport) {
  const DisorderHandlerSpec spec = SpecFor(GetParam());
  const size_t batch_size = std::get<2>(GetParam());
  SCOPED_TRACE(spec.Describe() + " batch=" + std::to_string(batch_size));
  const ContinuousQuery q = QueryFor(spec);
  ExpectIdenticalReports(HeapReplayReport(q), RunPipeline(q, batch_size));

  LatencyRecorder heap;
  LatencyRecorder ring;
  HeapReplayReport(q, &heap);
  RunPipeline(q, batch_size, &ring);
  EXPECT_EQ(heap.series(), ring.series());
}

INSTANTIATE_TEST_SUITE_P(
    AllSpecs, DisorderEnginePipelineTest,
    ::testing::Combine(::testing::Range(0, 5), ::testing::Bool(),
                       ::testing::Values<size_t>(0, 1, 64)),
    ParamName);

// Sanity: the workload actually stresses the buffer (lateness, deep
// buffers, heartbeat drains), so the equivalence above is not vacuous.
TEST(DisorderEngineWorkload, ExercisesBufferingAndLateness) {
  LatencyRecorder latencies;
  const RunReport r = RunPipeline(
      QueryFor(DisorderHandlerSpec::Fixed(Millis(30))), 0, &latencies);
  EXPECT_GT(r.handler_stats.events_late, 0);
  EXPECT_GT(r.handler_stats.max_buffer_size, 16);
  EXPECT_FALSE(latencies.series().empty());
}

}  // namespace
}  // namespace streamq
