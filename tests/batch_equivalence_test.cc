// OnBatch/FeedBatch equivalence: for EVERY factory handler and EVERY chunk
// size, the batched path must be indistinguishable from the per-event path —
// byte-identical WindowResult sequences, identical handler stats, and the
// same per-release latency series recorded through the observer. This is
// the contract that lets Run() batch by default.

#include <algorithm>
#include <cstddef>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/continuous_query.h"
#include "core/executor.h"
#include "disorder/speculative.h"
#include "stream/generator.h"
#include "tests/test_util.h"
#include "window/window.h"

namespace streamq {
namespace {

/// All handler kinds the factory can build, in both flat and per-key form
/// where per-key applies.
std::vector<DisorderHandlerSpec> AllSpecs() {
  std::vector<DisorderHandlerSpec> specs;
  specs.push_back(DisorderHandlerSpec::PassThrough());
  specs.push_back(DisorderHandlerSpec::Fixed(Millis(30)));
  {
    MpKSlack::Options mp;  // Default: sliding estimation window.
    specs.push_back(DisorderHandlerSpec::Mp(mp));
  }
  {
    MpKSlack::Options mp;
    mp.mode = MpKSlack::Mode::kGrowOnly;
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
    wm.period_events = 7;  // Off-stride from every batch size under test.
    wm.allowed_lateness = Millis(10);
    specs.push_back(DisorderHandlerSpec::Watermark(wm));
  }
  specs.push_back(DisorderHandlerSpec::Fixed(Millis(30)).PerKey());
  {
    AqKSlack::Options aq;
    aq.target_quality = 0.95;
    specs.push_back(DisorderHandlerSpec::Aq(aq).PerKey());
  }
  {
    SpeculativeHandler::Options sp;
    sp.target_quality = 0.95;
    specs.push_back(DisorderHandlerSpec::Speculative(sp));
    specs.push_back(DisorderHandlerSpec::Speculative(sp).PerKey());
  }
  return specs;
}

ContinuousQuery QueryFor(const DisorderHandlerSpec& spec) {
  ContinuousQuery q;
  q.name = "equiv";
  q.handler = spec;
  q.window.window = WindowSpec::Sliding(Millis(50), Millis(25));
  q.window.aggregate.kind = AggKind::kSum;
  q.window.allowed_lateness = Millis(20);
  q.window.per_key_watermarks = spec.per_key;
  if (spec.kind == DisorderHandlerSpec::Kind::kSpeculative) {
    q.window.engine = WindowedAggregation::Engine::kAmend;
  }
  return q;
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

RunReport RunPerEvent(const ContinuousQuery& q,
                      PipelineObserver* observer = nullptr) {
  QueryExecutor exec(q);
  if (observer != nullptr) exec.SetObserver(observer);
  for (const Event& e : TestStream()) exec.Feed(e);
  exec.Finish();
  return exec.Report();
}

RunReport RunBatched(const ContinuousQuery& q, size_t batch_size,
                     PipelineObserver* observer = nullptr) {
  QueryExecutor exec(q);
  if (observer != nullptr) exec.SetObserver(observer);
  const std::span<const Event> events(TestStream());
  if (batch_size == 0) {
    exec.FeedBatch(events);  // Whole stream as one batch.
  } else {
    for (size_t i = 0; i < events.size(); i += batch_size) {
      exec.FeedBatch(
          events.subspan(i, std::min(batch_size, events.size() - i)));
    }
  }
  exec.Finish();
  return exec.Report();
}

void ExpectIdentical(const RunReport& base, const RunReport& batched) {
  EXPECT_EQ(base.events_processed, batched.events_processed);
  EXPECT_EQ(base.results, batched.results);

  const DisorderHandlerStats& a = base.handler_stats;
  const DisorderHandlerStats& b = batched.handler_stats;
  EXPECT_EQ(a.events_in, b.events_in);
  EXPECT_EQ(a.events_out, b.events_out);
  EXPECT_EQ(a.events_late, b.events_late);
  EXPECT_EQ(a.events_dropped, b.events_dropped);
  EXPECT_EQ(a.max_buffer_size, b.max_buffer_size);
  EXPECT_EQ(a.buffering_latency_us.count(), b.buffering_latency_us.count());
  EXPECT_EQ(a.buffering_latency_us.mean(), b.buffering_latency_us.mean());
  EXPECT_EQ(a.buffering_latency_us.min(), b.buffering_latency_us.min());
  EXPECT_EQ(a.buffering_latency_us.max(), b.buffering_latency_us.max());

  const WindowedAggregation::Stats& wa = base.window_stats;
  const WindowedAggregation::Stats& wb = batched.window_stats;
  EXPECT_EQ(wa.events, wb.events);
  EXPECT_EQ(wa.late_applied, wb.late_applied);
  EXPECT_EQ(wa.late_dropped, wb.late_dropped);
  EXPECT_EQ(wa.windows_fired, wb.windows_fired);
  EXPECT_EQ(wa.revisions, wb.revisions);
  EXPECT_EQ(wa.max_live_windows, wb.max_live_windows);

  EXPECT_EQ(base.final_slack, batched.final_slack);
}

using Param = std::tuple<int, size_t>;  // (spec index, batch size; 0 = all)

class BatchEquivalenceTest : public ::testing::TestWithParam<Param> {};

TEST_P(BatchEquivalenceTest, BatchedRunMatchesPerEventRun) {
  const auto [spec_index, batch_size] = GetParam();
  const DisorderHandlerSpec spec = AllSpecs()[static_cast<size_t>(spec_index)];
  SCOPED_TRACE(spec.Describe() + " batch=" + std::to_string(batch_size));
  const ContinuousQuery q = QueryFor(spec);
  ExpectIdentical(RunPerEvent(q), RunBatched(q, batch_size));

  LatencyRecorder per_event;
  LatencyRecorder batched;
  RunPerEvent(q, &per_event);
  RunBatched(q, batch_size, &batched);
  EXPECT_EQ(per_event.series(), batched.series());
}

INSTANTIATE_TEST_SUITE_P(
    AllHandlersAllBatchSizes, BatchEquivalenceTest,
    ::testing::Combine(::testing::Range(0, 11),
                       ::testing::Values<size_t>(1, 3, 16, 257, 0)),
    [](const ::testing::TestParamInfo<Param>& info) {
      const size_t b = std::get<1>(info.param);
      std::string name = "spec";  // += avoids GCC 12 -Wrestrict (PR105651).
      name += std::to_string(std::get<0>(info.param));
      name += "_batch";
      name += b == 0 ? std::string("all") : std::to_string(b);
      return name;
    });

// Sanity: the test stream actually exercises every interesting path.
TEST(BatchEquivalenceWorkload, ExercisesLatenessAndBuffering) {
  const ContinuousQuery q = QueryFor(DisorderHandlerSpec::Fixed(Millis(30)));
  LatencyRecorder latencies;
  const RunReport r = RunPerEvent(q, &latencies);
  EXPECT_GT(r.handler_stats.events_late, 0);
  EXPECT_GT(r.handler_stats.max_buffer_size, 0);
  EXPECT_GT(r.window_stats.revisions + r.window_stats.late_applied, 0);
  EXPECT_FALSE(latencies.series().empty());
}

// The bench percentiles summarize the observer's latency series, so that
// series must hold exactly one entry per released tuple, with the latencies
// the report's moments hold: for every factory spec, uncapped and under
// each shed policy with a cap that sheds.
using ShedParam = std::tuple<int, int>;  // (spec index, policy; -1 = no cap)

class ObservedLatencySeriesTest : public ::testing::TestWithParam<ShedParam> {
};

TEST_P(ObservedLatencySeriesTest, OneEntryPerRelease) {
  const auto [spec_index, policy] = GetParam();
  DisorderHandlerSpec spec = AllSpecs()[static_cast<size_t>(spec_index)];
  if (policy >= 0) {
    spec = spec.WithBufferCap(64, static_cast<ShedPolicy>(policy));
  }
  SCOPED_TRACE(spec.Describe());
  LatencyRecorder latencies;
  const RunReport r = RunBatched(QueryFor(spec), 16, &latencies);
  const DisorderHandlerStats& hs = r.handler_stats;
  EXPECT_EQ(static_cast<int64_t>(latencies.series().size()), hs.events_out);
  // And it is the series the report's moments fold, per-key wrappers too:
  // they charge every release, flushed ones included, as the key's own
  // handler does.
  const RunningMoments observed = testutil::MomentsOf(latencies.series());
  EXPECT_EQ(observed.count(), hs.buffering_latency_us.count());
  EXPECT_EQ(observed.mean(), hs.buffering_latency_us.mean());
  EXPECT_EQ(observed.min(), hs.buffering_latency_us.min());
  EXPECT_EQ(observed.max(), hs.buffering_latency_us.max());
  EXPECT_EQ(hs.events_in, hs.events_out + hs.events_late + hs.events_shed);
  const bool buffers = spec.kind != DisorderHandlerSpec::Kind::kPassThrough &&
                       spec.kind != DisorderHandlerSpec::Kind::kSpeculative;
  if (policy >= 0 && buffers) {
    EXPECT_GT(hs.events_shed + hs.events_force_released, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllHandlersAllShedPolicies, ObservedLatencySeriesTest,
    ::testing::Combine(::testing::Range(0, 11), ::testing::Range(-1, 3)),
    [](const ::testing::TestParamInfo<ShedParam>& info) {
      const int policy = std::get<1>(info.param);
      std::string name = "spec";  // += avoids GCC 12 -Wrestrict (PR105651).
      name += std::to_string(std::get<0>(info.param));
      name += '_';
      name += policy < 0 ? "uncapped"
                         : ShedPolicyName(static_cast<ShedPolicy>(policy));
      // gtest names allow only alphanumerics and underscores.
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

/// Logs every sink call in order, a forwarded run as its tuples: the
/// sequence a window operator folds and fires by.
class CallLogSink : public EventSink {
 public:
  void OnEvent(const Event& e) override {
    log.emplace_back('e', e.id, e.event_time);
  }
  void OnEvents(std::span<const Event> events) override {
    ++runs;
    for (const Event& e : events) OnEvent(e);
  }
  void OnWatermark(TimestampUs watermark, TimestampUs stream_time) override {
    log.emplace_back('w', watermark, stream_time);
  }
  void OnLateEvent(const Event& e) override {
    log.emplace_back('l', e.id, e.event_time);
  }

  std::vector<std::tuple<char, int64_t, int64_t>> log;
  int64_t runs = 0;
};

// The speculative handler's OnBatch forwards runs of in-band tuples, cut
// at every late tuple and every watermark move: its sink sees exactly the
// per-event call sequence, in fewer calls.
TEST(SpeculativeRunForwarding, SinkSeesThePerEventCallSequence) {
  SpeculativeHandler::Options sp;
  sp.target_quality = 0.95;
  SpeculativeHandler per_event(sp);
  SpeculativeHandler batched(sp);
  CallLogSink a;
  CallLogSink b;
  for (const Event& e : TestStream()) per_event.OnEvent(e, &a);
  batched.OnBatch(TestStream(), &b);
  per_event.Flush(&a);
  batched.Flush(&b);
  EXPECT_EQ(a.log, b.log);
  EXPECT_GT(batched.stats().events_late, 0);
  EXPECT_LT(b.runs, batched.stats().events_out / 2);
}

}  // namespace
}  // namespace streamq
