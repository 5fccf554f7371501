#include "core/metrics_observer.h"

#include <string>

#include "disorder/disorder_handler.h"
#include "stream/event.h"
#include "window/window.h"

namespace streamq {

namespace {

FixedHistogram::Options LatencyBuckets() {
  // 1us .. 100s of stream time, ~5% relative bucket width.
  FixedHistogram::Options o;
  o.min = 1.0;
  o.max = 1e8;
  o.buckets = 96;
  return o;
}

FixedHistogram::Options OccupancyBuckets() {
  // 1 .. 10M buffered tuples.
  FixedHistogram::Options o;
  o.min = 1.0;
  o.max = 1e7;
  o.buckets = 48;
  return o;
}

FixedHistogram::Options DepthBuckets() {
  // 1 .. 64k queued batches.
  FixedHistogram::Options o;
  o.min = 1.0;
  o.max = 65536.0;
  o.buckets = 32;
  return o;
}

}  // namespace

MetricsObserver::MetricsObserver(const MetricsRegistry::Options& options)
    : registry_(options),
      source_batches_(registry_.counter("streamq.source.batches_total")),
      source_events_(registry_.counter("streamq.source.events_total")),
      runs_(registry_.counter("streamq.runs_total")),
      run_wall_seconds_(registry_.gauge("streamq.run.wall_seconds")),
      run_throughput_eps_(registry_.gauge("streamq.run.throughput_eps")),
      handler_releases_(registry_.counter("streamq.handler.releases_total")),
      handler_released_(
          registry_.counter("streamq.handler.released_events_total")),
      buffer_occupancy_(registry_.histogram("streamq.handler.buffer_occupancy",
                                            OccupancyBuckets())),
      buffering_latency_us_(registry_.histogram(
          "streamq.handler.buffering_latency_us", LatencyBuckets())),
      watermark_us_(registry_.gauge("streamq.handler.watermark_us")),
      late_events_(registry_.counter("streamq.handler.late_events_total")),
      dropped_events_(
          registry_.counter("streamq.handler.dropped_events_total")),
      slack_us_(registry_.gauge("streamq.handler.slack_us")),
      slack_changes_(registry_.counter("streamq.handler.slack_changes_total")),
      shed_events_(registry_.counter("streamq.handler.shed_events_total")),
      force_released_events_(
          registry_.counter("streamq.handler.force_released_events_total")),
      rejected_events_(
          registry_.counter("streamq.ingest.rejected_events_total")),
      adaptations_(registry_.counter("streamq.handler.adaptations_total")),
      measured_quality_(registry_.gauge("streamq.handler.measured_quality")),
      setpoint_(registry_.gauge("streamq.handler.setpoint")),
      windows_fired_(registry_.counter("streamq.window.fired_total")),
      window_revisions_(registry_.counter("streamq.window.revisions_total")),
      window_amends_(registry_.counter("streamq.window.amends_total")),
      amend_rate_(registry_.gauge("streamq.window.amend_rate")),
      windows_purged_(registry_.counter("streamq.window.purged_total")),
      live_windows_(registry_.gauge("streamq.window.live_windows")),
      window_late_dropped_(
          registry_.counter("streamq.window.late_dropped_total")),
      queue_depth_(
          registry_.histogram("streamq.queue.depth", DepthBuckets())),
      backpressure_stalls_(
          registry_.counter("streamq.queue.backpressure_stalls_total")),
      shard_batches_(registry_.counter("streamq.shard.batches_total")),
      segments_stolen_(
          registry_.counter("streamq.scheduler.segments_stolen_total")) {}

void MetricsObserver::OnSourceBatch(int64_t events) {
  source_batches_->Increment();
  source_events_->Increment(events);
}

void MetricsObserver::OnRunCompleted(int64_t events, double wall_seconds) {
  runs_->Increment();
  run_wall_seconds_->Set(wall_seconds);
  run_throughput_eps_->Set(
      wall_seconds > 0.0 ? static_cast<double>(events) / wall_seconds : 0.0);
}

void MetricsObserver::OnHandlerRelease(int64_t released, size_t buffered_after,
                                       TimestampUs watermark) {
  handler_releases_->Increment();
  handler_released_->Increment(released);
  buffer_occupancy_->Record(static_cast<double>(buffered_after));
  watermark_us_->Set(static_cast<double>(watermark));
}

void MetricsObserver::OnBufferingLatency(double latency_us) {
  buffering_latency_us_->Record(latency_us);
}

void MetricsObserver::OnLateEvent(const Event& e) {
  (void)e;
  late_events_->Increment();
}

void MetricsObserver::OnEventDropped(const Event& e) {
  (void)e;
  dropped_events_->Increment();
}

void MetricsObserver::OnSlackChanged(DurationUs old_k, DurationUs new_k) {
  (void)old_k;
  slack_changes_->Increment();
  slack_us_->Set(static_cast<double>(new_k));
}

void MetricsObserver::OnShed(int64_t count, ShedPolicy policy) {
  if (policy == ShedPolicy::kEmitEarly) {
    force_released_events_->Increment(count);
  } else {
    shed_events_->Increment(count);
  }
}

void MetricsObserver::OnEventRejected(const Event& e) {
  (void)e;
  rejected_events_->Increment();
}

void MetricsObserver::OnAdaptation(const AdaptationSample& sample) {
  adaptations_->Increment();
  measured_quality_->Set(sample.measured);
  setpoint_->Set(sample.setpoint);
  slack_us_->Set(static_cast<double>(sample.k));
}

void MetricsObserver::OnWindowFired(const WindowResult& result) {
  if (result.is_revision) {
    window_revisions_->Increment();
  } else {
    windows_fired_->Increment();
  }
}

void MetricsObserver::OnAmend(const WindowResult& result) {
  (void)result;
  window_amends_->Increment();
  // Fraction of all emissions that were amendments — the signal the
  // speculative controller trades against latency.
  const double amends = static_cast<double>(window_amends_->value());
  const double fired = static_cast<double>(windows_fired_->value());
  const double total = amends + fired;
  amend_rate_->Set(total > 0.0 ? amends / total : 0.0);
}

void MetricsObserver::OnWindowPurged(TimestampUs window_end,
                                     size_t live_windows) {
  (void)window_end;
  windows_purged_->Increment();
  live_windows_->Set(static_cast<double>(live_windows));
}

void MetricsObserver::OnWindowLateDropped(const Event& e) {
  (void)e;
  window_late_dropped_->Increment();
}

void MetricsObserver::OnQueueDepth(size_t worker, size_t depth) {
  queue_depth_->Record(static_cast<double>(depth));
  WorkerEntry(worker).queue_depth->Set(static_cast<double>(depth));
}

void MetricsObserver::OnBackpressureStall(size_t worker) {
  (void)worker;
  backpressure_stalls_->Increment();
}

void MetricsObserver::OnShardBatch(size_t shard, int64_t events) {
  shard_batches_->Increment();
  ShardCounter(shard)->Increment(events);
}

void MetricsObserver::OnSegmentSteal(size_t victim, size_t thief,
                                     size_t shard) {
  (void)shard;
  segments_stolen_->Increment();
  WorkerEntry(thief).segments_stolen->Increment();
  WorkerEntry(victim).segments_donated->Increment();
}

Counter* MetricsObserver::ShardCounter(size_t shard) {
  std::lock_guard<std::mutex> lock(shard_mu_);
  if (shard >= shard_events_.size()) {
    shard_events_.resize(shard + 1, nullptr);
  }
  if (shard_events_[shard] == nullptr) {
    shard_events_[shard] = registry_.counter(
        "streamq.shard." + std::to_string(shard) + ".events_total");
  }
  return shard_events_[shard];
}

MetricsObserver::WorkerMetrics& MetricsObserver::WorkerEntry(size_t worker) {
  std::lock_guard<std::mutex> lock(shard_mu_);
  if (worker >= worker_metrics_.size()) {
    worker_metrics_.resize(worker + 1);
  }
  WorkerMetrics& m = worker_metrics_[worker];
  if (m.queue_depth == nullptr) {
    const std::string prefix = "streamq.worker." + std::to_string(worker);
    m.queue_depth = registry_.gauge(prefix + ".queue_depth");
    m.segments_stolen = registry_.counter(prefix + ".segments_stolen_total");
    m.segments_donated =
        registry_.counter(prefix + ".segments_donated_total");
  }
  return m;
}

}  // namespace streamq
