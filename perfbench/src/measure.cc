#include "measure.h"

#include <cstdio>
#include <string>
#include <thread>

#include "core/spsc_queue.h"
#include "ledger.h"
#include "net/frame.h"
#include "quality/quality_metrics.h"

namespace perfbench {

using streamq::Event;

QualityScore ScoreQuality(const std::vector<streamq::WindowResult>& results,
                          const streamq::OracleEvaluator& oracle) {
  QualityScore score;
  const streamq::QualityReport report =
      streamq::EvaluateQuality(results, oracle);
  score.mean = report.MeanQualityIncludingMissed();
  score.target_frac = report.FractionMeeting(0.95);
  std::vector<double> latency_ms = streamq::ResponseLatencies(results);
  for (double& v : latency_ms) v /= 1e3;
  score.windows = latency_ms.size();
  score.latency_p50_ms = Quantile(latency_ms, 0.50);
  score.latency_p99_ms = Quantile(latency_ms, 0.99);
  return score;
}

void AddEndToEnd(const EndToEnd& e2e, Outcome* out) {
  out->Add("throughput_eps", e2e.throughput_eps, "events/s");
  out->Add("result_latency_p50_ms", e2e.quality.latency_p50_ms, "ms");
  out->Add("result_latency_p99_ms", e2e.quality.latency_p99_ms, "ms");
  out->Add("quality_mean", e2e.quality.mean, "ratio");
  out->Add("quality_target_frac", e2e.quality.target_frac, "ratio");
  out->Add("ingest_latency_p50_us", e2e.ingest_latency_p50_us, "us");
  out->Add("setup_s", e2e.setup_s, "s");
  out->Add("peak_heap_mb", e2e.peak_heap_mb, "MB");
}

void AddLayers(const Layers& l, Outcome* out) {
  out->Add("stream.source_ns_per_event", l.source_ns_per_event, "ns/event");
  out->Add("disorder.self_ns_per_event", l.disorder_self_ns_per_event,
           "ns/event");
  out->Add("disorder.release_calls_per_kevent", l.release_calls_per_kevent,
           "count");
  out->Add("disorder.late_frac", l.late_frac, "ratio");
  out->Add("disorder.buffering_latency_mean_ms", l.buffering_latency_mean_ms,
           "ms");
  out->Add("disorder.buffer_max", l.buffer_max, "count");
  out->Add("window.fold_ns_per_event", l.fold_ns_per_event, "ns/event");
  out->Add("window.fire_ns_per_watermark", l.fire_ns_per_watermark,
           "ns/watermark");
  out->Add("window.watermarks", l.watermarks, "count");
  out->Add("window.late_ns_per_event", l.late_ns_per_event, "ns/event");
  out->Add("window.revisions_per_window", l.revisions_per_window, "ratio");
  out->Add("window.max_live_windows", l.max_live_windows, "count");
  out->Add("sink.ns_per_result", l.sink_ns_per_result, "ns/result");
  out->Add("core.residual_ns_per_event", l.residual_ns_per_event, "ns/event");
  out->Add("core.critical_shard_ns_per_event", l.critical_shard_ns_per_event,
           "ns/event");
  out->Add("core.shard_skew", l.shard_skew, "ratio");
  out->Add("core.queue_hop_ns_per_batch", l.queue_hop_ns_per_batch,
           "ns/batch");
  out->Add("core.runtime_overhead_ns_per_event",
           l.runtime_overhead_ns_per_event, "ns/event");
  out->Add("core.speedup_vs_seq", l.speedup_vs_seq, "x");
  out->Add("core.session_ns_per_event", l.session_ns_per_event, "ns/event");
  out->Add("core.metrics_observer_ns_per_event",
           l.metrics_observer_ns_per_event, "ns/event");
  out->Add("net.encode_ns_per_event", l.encode_ns_per_event, "ns/event");
  out->Add("net.decode_ns_per_event", l.decode_ns_per_event, "ns/event");
  out->Add("net.bytes_per_event", l.bytes_per_event, "B/event");
  out->Add("net.frames", l.frames, "count");
  out->Add("net.protocol_errors", l.protocol_errors, "count");
  out->Add("trace.overhead_pct", l.trace_overhead_pct, "%");
}

CodecCost MeasureCodec(const std::vector<Event>& events) {
  CodecCost cost;
  if (events.empty()) return cost;
  std::vector<std::string> payloads;
  payloads.reserve(events.size() / kBatch + 1);
  const int64_t t0 = NowNs();
  for (size_t begin = 0; begin < events.size(); begin += kBatch) {
    const size_t n = std::min(kBatch, events.size() - begin);
    std::string payload;
    streamq::EncodeEventBatch(
        std::span<const Event>(events.data() + begin, n), &payload);
    payloads.push_back(std::move(payload));
  }
  const int64_t t1 = NowNs();
  std::vector<Event> decoded;
  std::vector<Event> frame;
  bool ok = true;
  size_t bytes = 0;
  for (const std::string& payload : payloads) {
    frame.clear();
    ok &= streamq::DecodeEventBatch(payload, &frame).ok();
    decoded.insert(decoded.end(), frame.begin(), frame.end());
    bytes += payload.size() + streamq::kFrameHeaderBytes;
  }
  const int64_t t2 = NowNs();
  const double n = static_cast<double>(events.size());
  cost.encode_ns_per_event = static_cast<double>(t1 - t0) / n;
  cost.decode_ns_per_event = static_cast<double>(t2 - t1) / n;
  cost.bytes_per_event = static_cast<double>(bytes) / n;
  cost.round_trip_ok = ok && decoded == events;
  return cost;
}

double MeasureQueueHopNsPerBatch() {
  constexpr int kRounds = 5;
  constexpr int64_t kBatches = 20000;
  std::vector<double> per_batch;
  for (int round = 0; round < kRounds; ++round) {
    streamq::SpscQueue<int64_t> queue(64);
    int64_t popped_sum = 0;
    const int64_t t0 = NowNs();
    std::thread consumer([&queue, &popped_sum] {
      int64_t v = 0;
      while (queue.Pop(&v)) popped_sum += v;
    });
    for (int64_t i = 0; i < kBatches; ++i) queue.Push(i);
    queue.Close();
    consumer.join();
    const int64_t t1 = NowNs();
    if (popped_sum != kBatches * (kBatches - 1) / 2) return -1.0;
    per_batch.push_back(static_cast<double>(t1 - t0) /
                        static_cast<double>(kBatches));
  }
  return Median(per_batch);
}

void CheckPercentileSupport(const std::string& what, size_t samples,
                            double pct, Outcome* out) {
  const double top = HighestSupportedPercentile(samples);
  std::printf("samples %-22s n=%zu highest percentile with >=10 beyond: p%g\n",
              what.c_str(), samples, top);
  out->Check(top >= pct, what + " has >=10 samples beyond p" +
                             std::to_string(static_cast<int>(pct)));
}

void PrintLayerLine(const std::string& layer, double ns_per_event,
                    double e2e_ns_per_event) {
  std::printf("layer   %-28s %10.1f ns/event  %5.1f%% of e2e\n",
              layer.c_str(), ns_per_event,
              e2e_ns_per_event > 0 ? 100.0 * ns_per_event / e2e_ns_per_event
                                   : 0.0);
}

}  // namespace perfbench
