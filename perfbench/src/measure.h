#ifndef PERFBENCH_MEASURE_H_
#define PERFBENCH_MEASURE_H_

// Measurements shared by the workloads: result quality against the oracle,
// the frame codec and the queue hop timed alone, and the fixed metric sets
// every run prints.

#include <string>
#include <vector>

#include "quality/oracle.h"
#include "report.h"
#include "stream/event.h"
#include "window/window.h"

namespace perfbench {

/// Events per batch at every entry point (QueryExecutor::Run's default, the
/// sharded runner's default, and the service's frame size).
inline constexpr size_t kBatch = 512;

/// Setups per untraced run; setup_s is their median.
inline constexpr int kSetupRepeats = 5;

/// Quality and result latency of first emissions against the oracle.
struct QualityScore {
  double latency_p50_ms = 0.0;
  double latency_p99_ms = 0.0;
  double mean = 0.0;
  double target_frac = 0.0;
  size_t windows = 0;  // First emissions scored (latency sample count).
};
QualityScore ScoreQuality(const std::vector<streamq::WindowResult>& results,
                          const streamq::OracleEvaluator& oracle);

/// The end-to-end metrics, in BENCHMARK.json order.
struct EndToEnd {
  double throughput_eps = 0.0;
  QualityScore quality;
  double ingest_latency_p50_us = 0.0;
  double setup_s = 0.0;
  double peak_heap_mb = 0.0;
};
void AddEndToEnd(const EndToEnd& e2e, Outcome* out);

/// The per-layer metrics, in BENCHMARK.json order. A layer a workload does
/// not run stays 0.
struct Layers {
  double source_ns_per_event = 0.0;
  double disorder_self_ns_per_event = 0.0;
  double release_calls_per_kevent = 0.0;
  double late_frac = 0.0;
  double buffering_latency_mean_ms = 0.0;
  double buffer_max = 0.0;
  double fold_ns_per_event = 0.0;
  double fire_ns_per_watermark = 0.0;
  double watermarks = 0.0;
  double late_ns_per_event = 0.0;
  double revisions_per_window = 0.0;
  double max_live_windows = 0.0;
  double sink_ns_per_result = 0.0;
  double residual_ns_per_event = 0.0;
  double critical_shard_ns_per_event = 0.0;
  double shard_skew = 1.0;
  double queue_hop_ns_per_batch = 0.0;
  double runtime_overhead_ns_per_event = 0.0;
  double speedup_vs_seq = 1.0;
  double session_ns_per_event = 0.0;
  double metrics_observer_ns_per_event = 0.0;
  double encode_ns_per_event = 0.0;
  double decode_ns_per_event = 0.0;
  double bytes_per_event = 0.0;
  double frames = 0.0;
  double protocol_errors = 0.0;
  double trace_overhead_pct = 0.0;
};
void AddLayers(const Layers& layers, Outcome* out);

/// Frame codec alone over `events` cut into kBatch-event frames: encode and
/// decode cost, and wire bytes (header included) per event. `round_trip_ok`
/// is whether every frame decoded back to the events encoded.
struct CodecCost {
  double encode_ns_per_event = 0.0;
  double decode_ns_per_event = 0.0;
  double bytes_per_event = 0.0;
  bool round_trip_ok = false;
};
CodecCost MeasureCodec(const std::vector<streamq::Event>& events);

/// SpscQueue push -> pop of batch handles between two threads, alone:
/// median wall time per batch over a few rounds.
double MeasureQueueHopNsPerBatch();

/// Checks that a reported percentile has at least ten samples beyond it and
/// prints the highest percentile that does.
void CheckPercentileSupport(const std::string& what, size_t samples,
                            double pct, Outcome* out);

/// Prints one ledger line: a layer's self time per event and its share.
void PrintLayerLine(const std::string& layer, double ns_per_event,
                    double e2e_ns_per_event);

}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_H_
