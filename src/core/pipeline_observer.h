#ifndef STREAMQ_CORE_PIPELINE_OBSERVER_H_
#define STREAMQ_CORE_PIPELINE_OBSERVER_H_

#include <cstddef>
#include <cstdint>

#include "common/time.h"

namespace streamq {

struct Event;
struct WindowResult;
enum class ShedPolicy : int;

/// One adaptation step of an adaptive disorder handler (AqKSlack,
/// SpeculativeHandler, LbKSlack), reported through
/// PipelineObserver::OnAdaptation. Scalar-only so the observer layer has no
/// dependency on concrete handler types.
struct AdaptationSample {
  int64_t tuple_index = 0;
  TimestampUs stream_time = 0;
  /// Smoothed measured quality (AqKSlack, SpeculativeHandler) or interval
  /// mean latency in us (LbKSlack) — whatever the handler's control loop
  /// measures.
  double measured = 0.0;
  /// Current quantile setpoint p.
  double setpoint = 0.0;
  /// Slack bound K after this step, in event-time microseconds.
  DurationUs k = 0;
  /// Buffered tuples after this step (0 for SpeculativeHandler, which
  /// buffers nothing).
  size_t buffer_size = 0;
};

/// Read-only instrumentation hooks along the pipeline:
///
///   EventSource -> DisorderHandler -> WindowedAggregation -> results
///                (+ parallel runners: queues, shards)
///
/// Every hook defaults to a no-op; implementations override what they need.
/// The contract that keeps observation free when unused and exact when
/// used:
///
///  * Zero-cost when off. Instrumented components hold a raw
///    `PipelineObserver*` that defaults to nullptr and guard every
///    notification with a pointer check — no virtual call happens in the
///    per-tuple hot loop unless an observer is installed.
///  * Results are never affected. Hooks receive const references and fire
///    after the observed action; an installed observer must not change any
///    emitted result, watermark, or stat (enforced by
///    observer_equivalence_test).
///  * Threading follows the pipeline. A single-threaded pipeline invokes
///    hooks on its one thread; the parallel runners invoke them from
///    driver and worker threads concurrently, so observers shared across a
///    parallel run must be thread-safe (MetricsObserver is).
class PipelineObserver {
 public:
  virtual ~PipelineObserver() = default;

  // --- Source / executor level. ---

  /// A batch of `events` arrivals was pulled from the source.
  virtual void OnSourceBatch(int64_t events) { (void)events; }

  /// A whole-stream run finished (QueryExecutor::Run or a parallel runner).
  virtual void OnRunCompleted(int64_t events, double wall_seconds) {
    (void)events;
    (void)wall_seconds;
  }

  // --- Disorder handler level. ---

  /// The handler released `released` tuples in one go and (possibly)
  /// advanced its output watermark; `buffered_after` is the buffer
  /// occupancy after the release.
  virtual void OnHandlerRelease(int64_t released, size_t buffered_after,
                                TimestampUs watermark) {
    (void)released;
    (void)buffered_after;
    (void)watermark;
  }

  /// Per released tuple: stream-time gap between arrival and release.
  virtual void OnBufferingLatency(double latency_us) { (void)latency_us; }

  /// A tuple arrived behind the output watermark and was diverted late.
  virtual void OnLateEvent(const Event& e) { (void)e; }

  /// A tuple was discarded entirely (beyond allowed lateness).
  virtual void OnEventDropped(const Event& e) { (void)e; }

  /// The slack bound K changed (adaptive handlers).
  virtual void OnSlackChanged(DurationUs old_k, DurationUs new_k) {
    (void)old_k;
    (void)new_k;
  }

  /// An adaptive handler completed one control step.
  virtual void OnAdaptation(const AdaptationSample& sample) { (void)sample; }

  /// The buffer cap forced `count` tuples out under `policy`: either
  /// discarded (kDropNewest/kDropOldest) or force-released early with the
  /// watermark advanced past them (kEmitEarly).
  virtual void OnShed(int64_t count, ShedPolicy policy) {
    (void)count;
    (void)policy;
  }

  /// Ingest validation rejected a malformed arrival before the handler.
  virtual void OnEventRejected(const Event& e) { (void)e; }

  // --- Window operator level. ---

  /// A window result was emitted (first firing or revision).
  virtual void OnWindowFired(const WindowResult& result) { (void)result; }

  /// A previously-emitted result was amended: `result` is the revision
  /// emission patching the earlier value (speculative emit-then-amend and
  /// allowed-lateness refinement). Fires in addition to OnWindowFired.
  virtual void OnAmend(const WindowResult& result) { (void)result; }

  /// Window state was purged; `live_windows` is the count remaining.
  virtual void OnWindowPurged(TimestampUs window_end, size_t live_windows) {
    (void)window_end;
    (void)live_windows;
  }

  /// A late tuple's window was already gone: a permanent quality loss.
  virtual void OnWindowLateDropped(const Event& e) { (void)e; }

  // --- Parallel runner level. ---

  /// Depth of `worker`'s input queue (in batches) sampled at publish time.
  virtual void OnQueueDepth(size_t worker, size_t depth) {
    (void)worker;
    (void)depth;
  }

  /// The driver found `worker`'s queue full and had to block.
  virtual void OnBackpressureStall(size_t worker) { (void)worker; }

  /// `events` tuples were routed to shard `shard` (ShardedKeyedRunner).
  virtual void OnShardBatch(size_t shard, int64_t events) {
    (void)shard;
    (void)events;
  }

  /// Starving worker `thief` pulled virtual shard `shard` from the
  /// backlogged worker `victim` at a watermark-aligned safe point
  /// (ShardedKeyedRunner with ParallelOptions::steal). Fires when the
  /// driver publishes the release marker, before the old owner drains.
  virtual void OnSegmentSteal(size_t victim, size_t thief, size_t shard) {
    (void)victim;
    (void)thief;
    (void)shard;
  }
};

}  // namespace streamq

#endif  // STREAMQ_CORE_PIPELINE_OBSERVER_H_
