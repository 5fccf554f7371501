// Observability layer: FixedHistogram bucketing/quantiles, registry
// thread-safety under concurrent record + snapshot, Series gating, and
// golden Prometheus/JSON exports (the exporters are deterministic by
// construction — name-sorted maps, fixed number formatting — which is what
// makes exact-string goldens possible). Also pins the speculative
// handler's release and watermark reports to its own accounting.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "core/continuous_query.h"
#include "core/executor.h"
#include "core/metrics_observer.h"
#include "disorder/speculative.h"
#include "stream/generator.h"

namespace streamq {
namespace {

FixedHistogram::Options SmallOptions() {
  // Three decade buckets over [1, 1000): bounds 1, 10, 100, 1000, +Inf.
  FixedHistogram::Options o;
  o.min = 1.0;
  o.max = 1000.0;
  o.buckets = 3;
  return o;
}

TEST(FixedHistogramTest, RoutesValuesToLogBuckets) {
  FixedHistogram h(SmallOptions());
  EXPECT_EQ(h.bucket_count(), 5u);  // 3 log + underflow + overflow.

  h.Record(0.5);    // Underflow (< min).
  h.Record(5.0);    // [1, 10)
  h.Record(50.0);   // [10, 100)
  h.Record(5000.0); // Overflow (>= max).

  const HistogramSnapshot s = h.Snapshot();
  ASSERT_EQ(s.upper_bounds.size(), 5u);
  EXPECT_DOUBLE_EQ(s.upper_bounds[0], 1.0);
  EXPECT_NEAR(s.upper_bounds[1], 10.0, 1e-9);
  EXPECT_NEAR(s.upper_bounds[2], 100.0, 1e-9);
  EXPECT_DOUBLE_EQ(s.upper_bounds[3], 1000.0);  // Exact top edge.
  EXPECT_TRUE(std::isinf(s.upper_bounds[4]));

  EXPECT_EQ(s.counts, (std::vector<int64_t>{1, 1, 1, 0, 1}));
  EXPECT_EQ(s.count, 4);
  EXPECT_DOUBLE_EQ(s.sum, 5055.5);
  EXPECT_DOUBLE_EQ(s.min, 0.5);
  EXPECT_DOUBLE_EQ(s.max, 5000.0);
}

TEST(FixedHistogramTest, ExactStatsAndZeroWhenEmpty) {
  FixedHistogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_DOUBLE_EQ(h.min_seen(), 0.0);
  EXPECT_DOUBLE_EQ(h.max_seen(), 0.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 0.0);

  h.Record(3.0);
  h.Record(7.0);
  EXPECT_EQ(h.count(), 2);
  EXPECT_DOUBLE_EQ(h.sum(), 10.0);
  EXPECT_DOUBLE_EQ(h.min_seen(), 3.0);
  EXPECT_DOUBLE_EQ(h.max_seen(), 7.0);

  h.Reset();
  EXPECT_EQ(h.count(), 0);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
  EXPECT_DOUBLE_EQ(h.min_seen(), 0.0);
}

TEST(FixedHistogramTest, QuantilesHaveRelativeBucketError) {
  // ~5% relative bucket width: estimates must land within one bucket
  // (factor gamma) of the true quantile, and inside the exact envelope.
  FixedHistogram::Options o;
  o.min = 1.0;
  o.max = 1e6;
  o.buckets = 288;
  const double gamma = std::pow(o.max / o.min, 1.0 / 288.0);
  FixedHistogram h(o);
  for (int i = 1; i <= 10000; ++i) h.Record(static_cast<double>(i));

  for (double q : {0.1, 0.5, 0.9, 0.99}) {
    const double truth = q * 10000.0;
    const double est = h.Quantile(q);
    EXPECT_GE(est, truth / gamma) << "q=" << q;
    EXPECT_LE(est, truth * gamma) << "q=" << q;
  }
  EXPECT_GE(h.Quantile(0.0), h.min_seen());
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), h.max_seen());
}

TEST(FixedHistogramTest, SingleValueQuantilesAreExact) {
  // Everything in one bucket clamps to the exact [min, max] envelope.
  FixedHistogram h(SmallOptions());
  for (int i = 0; i < 4; ++i) h.Record(5.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.99), 5.0);
}

TEST(FixedHistogramTest, MemoryIsBoundedByConstruction) {
  // The whole point: bucket count never depends on how much was recorded.
  FixedHistogram h(SmallOptions());
  const size_t buckets = h.bucket_count();
  for (int i = 0; i < 100000; ++i) h.Record(static_cast<double>(i % 997));
  EXPECT_EQ(h.bucket_count(), buckets);
  EXPECT_EQ(h.count(), 100000);
}

TEST(MetricsRegistryTest, ConcurrentRecordAndSnapshot) {
  MetricsRegistry reg;
  Counter* c = reg.counter("ops");
  FixedHistogram* h = reg.histogram("lat");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50000;

  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        c->Increment();
        h->Record(static_cast<double>(t * kPerThread + i + 1));
      }
    });
  }
  // Snapshots taken mid-flight must be internally consistent (bucket sum
  // never exceeds what the total count will become) and never crash.
  for (int i = 0; i < 50; ++i) {
    const MetricsSnapshot snap = reg.Snapshot();
    const HistogramSnapshot& hs = snap.histograms.at("lat");
    int64_t bucket_sum = 0;
    for (int64_t b : hs.counts) bucket_sum += b;
    EXPECT_LE(bucket_sum, int64_t{kThreads} * kPerThread);
  }
  for (auto& w : writers) w.join();

  const MetricsSnapshot final_snap = reg.Snapshot();
  EXPECT_EQ(final_snap.counters.at("ops"), int64_t{kThreads} * kPerThread);
  const HistogramSnapshot& hs = final_snap.histograms.at("lat");
  EXPECT_EQ(hs.count, int64_t{kThreads} * kPerThread);
  int64_t bucket_sum = 0;
  for (int64_t b : hs.counts) bucket_sum += b;
  EXPECT_EQ(bucket_sum, hs.count);
  EXPECT_DOUBLE_EQ(hs.min, 1.0);
  EXPECT_DOUBLE_EQ(hs.max, static_cast<double>(kThreads * kPerThread));
}

TEST(MetricsRegistryTest, SeriesGatedByOptions) {
  MetricsRegistry off;  // Default: production-safe, Series disabled.
  off.series("s")->Record(1.0);
  EXPECT_FALSE(off.series("s")->enabled());
  EXPECT_TRUE(off.Snapshot().series.empty());

  MetricsRegistry on(MetricsRegistry::Options{.enable_series = true});
  on.series("s")->Record(1.0);
  EXPECT_TRUE(on.series("s")->enabled());
  EXPECT_EQ(on.Snapshot().series.at("s").count, 1);
}

TEST(MetricsSnapshotTest, GoldenPrometheusText) {
  MetricsRegistry reg;
  reg.counter("events_total")->Increment(42);
  reg.gauge("slack_us")->Set(1500.5);
  FixedHistogram* h = reg.histogram("lat", SmallOptions());
  h->Record(0.5);
  h->Record(5.0);
  h->Record(50.0);
  h->Record(5000.0);

  EXPECT_EQ(reg.Snapshot().ToPrometheusText(),
            "# TYPE events_total counter\n"
            "events_total 42\n"
            "# TYPE slack_us gauge\n"
            "slack_us 1500.5\n"
            "# TYPE lat histogram\n"
            "lat_bucket{le=\"1\"} 1\n"
            "lat_bucket{le=\"10\"} 2\n"
            "lat_bucket{le=\"100\"} 3\n"
            "lat_bucket{le=\"1000\"} 3\n"
            "lat_bucket{le=\"+Inf\"} 4\n"
            "lat_sum 5055.5\n"
            "lat_count 4\n");
}

TEST(MetricsSnapshotTest, PrometheusNamesAreSanitized) {
  MetricsRegistry reg;
  reg.counter("streamq.source.events_total")->Increment();
  const std::string text = reg.Snapshot().ToPrometheusText();
  EXPECT_NE(text.find("streamq_source_events_total 1"), std::string::npos);
  EXPECT_EQ(text.find("streamq.source"), std::string::npos);
}

TEST(MetricsSnapshotTest, GoldenJson) {
  MetricsRegistry reg;
  reg.counter("events_total")->Increment(42);
  reg.gauge("slack_us")->Set(1500.5);
  // Single repeated value: every quantile clamps to the exact envelope, so
  // the JSON is fully deterministic.
  FixedHistogram* h = reg.histogram("lat", SmallOptions());
  for (int i = 0; i < 4; ++i) h->Record(5.0);

  EXPECT_EQ(reg.Snapshot().ToJson(),
            "{\n"
            "  \"counters\": {\n"
            "    \"events_total\": 42\n"
            "  },\n"
            "  \"gauges\": {\n"
            "    \"slack_us\": 1500.5\n"
            "  },\n"
            "  \"histograms\": {\n"
            "    \"lat\": {\"count\": 4, \"sum\": 20, \"min\": 5, "
            "\"max\": 5, \"p50\": 5, \"p90\": 5, \"p99\": 5, "
            "\"buckets\": [{\"le\": 10, \"count\": 4}]}\n"
            "  },\n"
            "  \"series\": {}\n"
            "}\n");
}

TEST(MetricsSnapshotTest, JsonEscapesNames) {
  MetricsRegistry reg;
  reg.counter("weird\"name")->Increment();
  const std::string json = reg.Snapshot().ToJson();
  EXPECT_NE(json.find("\"weird\\\"name\": 1"), std::string::npos);
}

std::vector<Event> DisorderedStream() {
  WorkloadConfig cfg;
  cfg.num_events = 3000;
  cfg.events_per_second = 10000.0;
  cfg.num_keys = 8;
  cfg.delay.model = DelayModel::kExponential;
  cfg.delay.a = 20000.0;
  cfg.seed = 7;
  return GenerateWorkload(cfg).arrival_order;
}

// Every tuple the speculative handler forwards is reported as released,
// flat and per key, per-event and batched.
TEST(SpeculativeObserverTest, ReleasedEventsMatchEventsOut) {
  const std::vector<Event> stream = DisorderedStream();
  for (bool per_key : {false, true}) {
    for (bool batched : {false, true}) {
      SCOPED_TRACE(std::string(per_key ? "keyed" : "flat") +
                   (batched ? " batched" : " per-event"));
      SpeculativeHandler::Options sp;
      sp.target_quality = 0.95;
      ContinuousQuery q;
      q.handler = DisorderHandlerSpec::Speculative(sp).PerKey(per_key);
      q.window.window = WindowSpec::Sliding(Millis(50), Millis(25));
      q.window.allowed_lateness = Millis(20);
      q.window.engine = WindowedAggregation::Engine::kAmend;
      MetricsObserver observer;
      QueryExecutor exec(q);
      exec.SetObserver(&observer);
      if (batched) {
        exec.FeedBatch(stream);
      } else {
        for (const Event& e : stream) exec.Feed(e);
      }
      exec.Finish();
      const RunReport r = exec.Report();
      ASSERT_GT(r.handler_stats.events_late, 0);
      const MetricsSnapshot snap = observer.Snapshot();
      EXPECT_EQ(snap.counters.at("streamq.handler.released_events_total"),
                r.handler_stats.events_out);
      EXPECT_EQ(snap.counters.at("streamq.handler.late_events_total"),
                r.handler_stats.events_late);
    }
  }
}

// A heartbeat that releases the hold moves the watermark gauge with it.
TEST(SpeculativeObserverTest, HeartbeatUpdatesWatermarkGauge) {
  SpeculativeHandler::Options sp;
  sp.target_quality = 0.95;
  SpeculativeHandler handler(sp);
  MetricsObserver observer;
  handler.set_observer(&observer);
  CollectingSink sink;
  const std::vector<Event> stream = DisorderedStream();
  handler.OnBatch(stream, &sink);
  const TimestampUs bound = sink.watermarks.back() + Seconds(1);
  handler.OnHeartbeat(bound, stream.back().arrival_time + 1, &sink);
  ASSERT_EQ(sink.watermarks.back(), bound);
  const MetricsSnapshot snap = observer.Snapshot();
  EXPECT_EQ(snap.gauges.at("streamq.handler.watermark_us"),
            static_cast<double>(bound));
  EXPECT_EQ(snap.counters.at("streamq.handler.released_events_total"),
            handler.stats().events_out);
}

}  // namespace
}  // namespace streamq
