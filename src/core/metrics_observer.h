#ifndef STREAMQ_CORE_METRICS_OBSERVER_H_
#define STREAMQ_CORE_METRICS_OBSERVER_H_

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "common/metrics.h"
#include "core/pipeline_observer.h"

namespace streamq {

/// The standard PipelineObserver: routes every hook into a bounded-memory
/// MetricsRegistry (counters, gauges, log-bucketed histograms — no
/// unbounded Series), ready for Prometheus/JSON export via Snapshot().
///
/// Thread-safe: all referenced metrics are atomic, so one MetricsObserver
/// may be shared by a whole parallel run (driver + workers + shards).
/// Hot-path hooks use pointers cached at construction; only the per-shard
/// counters take a lock, and only on first sight of a shard.
class MetricsObserver : public PipelineObserver {
 public:
  explicit MetricsObserver(
      const MetricsRegistry::Options& options = MetricsRegistry::Options{});

  MetricsRegistry& registry() { return registry_; }
  const MetricsRegistry& registry() const { return registry_; }
  MetricsSnapshot Snapshot() const { return registry_.Snapshot(); }

  // Source / executor.
  void OnSourceBatch(int64_t events) override;
  void OnRunCompleted(int64_t events, double wall_seconds) override;

  // Disorder handler.
  void OnHandlerRelease(int64_t released, size_t buffered_after,
                        TimestampUs watermark) override;
  void OnBufferingLatency(double latency_us) override;
  void OnLateEvent(const Event& e) override;
  void OnEventDropped(const Event& e) override;
  void OnSlackChanged(DurationUs old_k, DurationUs new_k) override;
  void OnAdaptation(const AdaptationSample& sample) override;
  void OnShed(int64_t count, ShedPolicy policy) override;
  void OnEventRejected(const Event& e) override;

  // Window operator.
  void OnWindowFired(const WindowResult& result) override;
  void OnAmend(const WindowResult& result) override;
  void OnWindowPurged(TimestampUs window_end, size_t live_windows) override;
  void OnWindowLateDropped(const Event& e) override;

  // Parallel runners.
  void OnQueueDepth(size_t worker, size_t depth) override;
  void OnBackpressureStall(size_t worker) override;
  void OnShardBatch(size_t shard, int64_t events) override;
  void OnSegmentSteal(size_t victim, size_t thief, size_t shard) override;

 private:
  /// Lazily-created per-worker scheduler metrics (same pattern as
  /// ShardCounter: a lock on the lookup, atomic metrics after).
  struct WorkerMetrics {
    Gauge* queue_depth = nullptr;
    Counter* segments_stolen = nullptr;
    Counter* segments_donated = nullptr;
  };
  WorkerMetrics& WorkerEntry(size_t worker);

  Counter* ShardCounter(size_t shard);

  MetricsRegistry registry_;

  // Cached metric pointers (stable for the registry's lifetime).
  Counter* source_batches_;
  Counter* source_events_;
  Counter* runs_;
  Gauge* run_wall_seconds_;
  Gauge* run_throughput_eps_;
  Counter* handler_releases_;
  Counter* handler_released_;
  FixedHistogram* buffer_occupancy_;
  FixedHistogram* buffering_latency_us_;
  Gauge* watermark_us_;
  Counter* late_events_;
  Counter* dropped_events_;
  Gauge* slack_us_;
  Counter* slack_changes_;
  Counter* shed_events_;
  Counter* force_released_events_;
  Counter* rejected_events_;
  Counter* adaptations_;
  Gauge* measured_quality_;
  Gauge* setpoint_;
  Counter* windows_fired_;
  Counter* window_revisions_;
  Counter* window_amends_;
  Gauge* amend_rate_;
  Counter* windows_purged_;
  Gauge* live_windows_;
  Counter* window_late_dropped_;
  FixedHistogram* queue_depth_;
  Counter* backpressure_stalls_;
  Counter* shard_batches_;
  Counter* segments_stolen_;

  std::mutex shard_mu_;
  std::vector<Counter*> shard_events_;
  std::vector<WorkerMetrics> worker_metrics_;
};

}  // namespace streamq

#endif  // STREAMQ_CORE_METRICS_OBSERVER_H_
