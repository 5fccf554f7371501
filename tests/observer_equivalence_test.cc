// The observer contract: installing a PipelineObserver is strictly
// read-only. For every factory handler kind (same spec set as
// batch_equivalence_test) the run with a full MetricsObserver attached must
// be byte-identical to the run without one — results, handler stats,
// window stats, final slack — and must deliver the same per-release latency
// series as a run observed by a bare recorder. A second set of
// checks pins the observer's counters to the pipeline's own stats, so the
// hooks can't silently under- or over-fire.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/continuous_query.h"
#include "core/executor.h"
#include "core/metrics_observer.h"
#include "stream/generator.h"
#include "tests/test_util.h"
#include "window/window.h"

namespace streamq {
namespace {

/// Mirrors batch_equivalence_test's AllSpecs(): every handler kind the
/// factory can build, in both flat and per-key form where per-key applies.
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
    wm.period_events = 7;
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
  q.name = "observer-equiv";
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

RunReport RunWith(const ContinuousQuery& q, PipelineObserver* observer) {
  QueryExecutor exec(q);
  if (observer != nullptr) exec.SetObserver(observer);
  VectorSource source(TestStream());
  return exec.Run(&source);
}

void ExpectIdentical(const RunReport& base, const RunReport& observed) {
  EXPECT_EQ(base.events_processed, observed.events_processed);
  EXPECT_EQ(base.results, observed.results);

  const DisorderHandlerStats& a = base.handler_stats;
  const DisorderHandlerStats& b = observed.handler_stats;
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
  const WindowedAggregation::Stats& wb = observed.window_stats;
  EXPECT_EQ(wa.events, wb.events);
  EXPECT_EQ(wa.late_applied, wb.late_applied);
  EXPECT_EQ(wa.late_dropped, wb.late_dropped);
  EXPECT_EQ(wa.windows_fired, wb.windows_fired);
  EXPECT_EQ(wa.revisions, wb.revisions);
  EXPECT_EQ(wa.max_live_windows, wb.max_live_windows);

  EXPECT_EQ(base.final_slack, observed.final_slack);
}

/// A full MetricsObserver that also records the latency series it is fed.
class RecordingMetricsObserver : public MetricsObserver {
 public:
  void OnBufferingLatency(double latency_us) override {
    MetricsObserver::OnBufferingLatency(latency_us);
    latencies.OnBufferingLatency(latency_us);
  }

  LatencyRecorder latencies;
};

class ObserverEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(ObserverEquivalenceTest, ObserverDoesNotPerturbResults) {
  const DisorderHandlerSpec spec =
      AllSpecs()[static_cast<size_t>(GetParam())];
  SCOPED_TRACE(spec.Describe());
  const ContinuousQuery q = QueryFor(spec);

  const RunReport base = RunWith(q, nullptr);
  RecordingMetricsObserver observer;
  const RunReport observed = RunWith(q, &observer);
  ExpectIdentical(base, observed);

  LatencyRecorder bare;
  ExpectIdentical(base, RunWith(q, &bare));
  EXPECT_EQ(observer.latencies.series(), bare.series());

  // The hooks must also have fired consistently with the pipeline's own
  // accounting (true for every spec, flat or per-key: per-key propagates
  // the observer to the inner shard handlers only, so nothing is counted
  // twice).
  const MetricsSnapshot snap = observer.Snapshot();
  EXPECT_EQ(snap.counters.at("streamq.source.events_total"),
            observed.events_processed);
  EXPECT_EQ(snap.counters.at("streamq.handler.released_events_total"),
            observed.handler_stats.events_out);
  EXPECT_EQ(snap.counters.at("streamq.handler.late_events_total"),
            observed.handler_stats.events_late);
  EXPECT_EQ(snap.counters.at("streamq.handler.dropped_events_total"),
            observed.handler_stats.events_dropped);
  EXPECT_EQ(snap.histograms.at("streamq.handler.buffering_latency_us").count,
            observed.handler_stats.buffering_latency_us.count());
  EXPECT_EQ(snap.counters.at("streamq.window.fired_total"),
            observed.window_stats.windows_fired);
  EXPECT_EQ(snap.counters.at("streamq.window.revisions_total"),
            observed.window_stats.revisions);
  EXPECT_EQ(snap.counters.at("streamq.window.late_dropped_total"),
            observed.window_stats.late_dropped);
  EXPECT_EQ(snap.counters.at("streamq.runs_total"), 1);
}

INSTANTIATE_TEST_SUITE_P(AllHandlers, ObserverEquivalenceTest,
                         ::testing::Range(0, 11),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "spec" + std::to_string(info.param);
                         });

// Re-running through the same executor-with-observer accumulates rather
// than resets (registries are owned by the observer, not the run).
TEST(ObserverReuse, CountersAccumulateAcrossRuns) {
  const ContinuousQuery q = QueryFor(DisorderHandlerSpec::Fixed(Millis(30)));
  MetricsObserver observer;
  RunWith(q, &observer);
  RunWith(q, &observer);
  const MetricsSnapshot snap = observer.Snapshot();
  EXPECT_EQ(snap.counters.at("streamq.runs_total"), 2);
  EXPECT_EQ(snap.counters.at("streamq.source.events_total"),
            2 * static_cast<int64_t>(TestStream().size()));
}

}  // namespace
}  // namespace streamq
