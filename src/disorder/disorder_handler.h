#ifndef STREAMQ_DISORDER_DISORDER_HANDLER_H_
#define STREAMQ_DISORDER_DISORDER_HANDLER_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "common/stats.h"
#include "common/time.h"
#include "disorder/event_sink.h"
#include "stream/event.h"

namespace streamq {

class PipelineObserver;

/// What a capped handler does with the excess tuple when an arrival finds
/// the reorder buffer at its `max_buffered_events` bound. Every policy
/// keeps the memory bound hard; they differ in *which* tuple pays and in
/// whether it is still visible downstream.
enum class ShedPolicy : int {
  /// Force-release the oldest buffered tuples now, advancing the output
  /// watermark to the last released event time. Nothing is discarded —
  /// the quality loss is indirect: tuples later than the force-advanced
  /// watermark are diverted late. The default.
  kEmitEarly,
  /// Discard the incoming tuple (counted in events_shed).
  kDropNewest,
  /// Discard the oldest buffered tuple (counted in events_shed). The
  /// watermark does not move, so ordering guarantees are unaffected.
  kDropOldest,
};

/// Short stable name, e.g. "emit-early".
const char* ShedPolicyName(ShedPolicy policy);

/// Instrumentation shared by all disorder handlers.
///
/// Accounting identity (after Flush): events_in == events_out +
/// events_late + events_shed. events_dropped is a subset of events_late;
/// events_force_released is a subset of events_out.
struct DisorderHandlerStats {
  int64_t events_in = 0;
  int64_t events_out = 0;
  /// Tuples that missed the output watermark and were diverted to
  /// OnLateEvent.
  int64_t events_late = 0;
  /// Tuples discarded entirely (beyond a handler's allowed lateness); a
  /// subset of the quality loss that is not even visible downstream.
  int64_t events_dropped = 0;
  /// Tuples discarded by the buffer cap (kDropNewest/kDropOldest): quality
  /// loss the memory bound charged directly.
  int64_t events_shed = 0;
  /// Tuples the cap forced out early (kEmitEarly). They still reached the
  /// sink (and are counted in events_out); the loss shows up as extra
  /// events_late behind the force-advanced watermark.
  int64_t events_force_released = 0;
  /// Largest buffer occupancy observed.
  int64_t max_buffer_size = 0;

  /// Per-tuple buffering latency in microseconds of stream (arrival) time:
  /// the gap between a tuple's arrival and the arrival that triggered its
  /// release. Zero for tuples forwarded immediately. Moments only: the
  /// percentiles come from the per-release series that
  /// PipelineObserver::OnBufferingLatency delivers.
  RunningMoments buffering_latency_us;

  std::string ToString() const;
};

/// A disorder handler consumes an arrival-ordered stream and produces an
/// event-time-ordered stream plus watermarks (see EventSink contract).
///
/// Handlers are single-threaded and driven purely by arrivals: "now" is the
/// arrival timestamp of the tuple being processed, which makes every run
/// deterministic and lets experiments measure buffering latency exactly.
class DisorderHandler {
 public:
  DisorderHandler() = default;
  virtual ~DisorderHandler() = default;

  DisorderHandler(const DisorderHandler&) = delete;
  DisorderHandler& operator=(const DisorderHandler&) = delete;

  /// Stable identifier, e.g. "fixed-kslack".
  virtual std::string_view name() const = 0;

  /// Processes one arrival. May call sink->OnEvent / OnWatermark /
  /// OnLateEvent zero or more times.
  virtual void OnEvent(const Event& e, EventSink* sink) = 0;

  /// Processes a chunk of consecutive arrivals. Semantically identical to
  /// calling OnEvent for each element in order — same sink calls, same
  /// stats — but overridable so buffering handlers can amortize per-tuple
  /// dispatch and use bulk buffer operations. Default: per-event loop.
  virtual void OnBatch(std::span<const Event> batch, EventSink* sink) {
    for (const Event& e : batch) OnEvent(e, sink);
  }

  /// Source-issued heartbeat (punctuation): a promise that no future tuple
  /// carries event_time < `event_time_bound`. Lets buffers drain and
  /// windows close during idle periods, when no arrival would otherwise
  /// advance the frontier. `stream_time` is "now" on the arrival clock.
  /// Default: ignored (handlers that do not buffer need no progress).
  virtual void OnHeartbeat(TimestampUs event_time_bound,
                           TimestampUs stream_time, EventSink* sink) {
    (void)event_time_bound;
    (void)stream_time;
    (void)sink;
  }

  /// End of stream: drains any buffered tuples in order and emits a final
  /// watermark of kMaxTimestamp.
  virtual void Flush(EventSink* sink) = 0;

  /// The current slack bound K in event-time microseconds (0 for
  /// non-buffering handlers). Instrumentation only.
  virtual DurationUs current_slack() const { return 0; }

  /// Current buffer occupancy in tuples.
  virtual size_t buffered() const { return 0; }

  /// Hard bound on buffered tuples (0 = unbounded, the default). When an
  /// arrival finds the buffer at the cap, the handler sheds per `policy`
  /// and accounts the loss in events_shed / events_force_released. A keyed
  /// handler treats the cap as a *global* budget across all keys. No-op
  /// for handlers that do not buffer.
  virtual void set_buffer_cap(size_t max_buffered_events, ShedPolicy policy) {
    (void)max_buffered_events;
    (void)policy;
  }

  /// Clamp on the slack K an adaptive handler may request (0 = unbounded,
  /// the default). Bounds the buffer the LB/AQ/MP control loops can ask
  /// for even when their estimators say otherwise. No-op for handlers with
  /// a static bound.
  virtual void set_max_slack(DurationUs max_slack) { (void)max_slack; }

  /// Sheds buffered tuples until occupancy is at most `target`, applying
  /// `policy` (kEmitEarly emits through `sink`; kDropOldest discards;
  /// kDropNewest is an arrival-side policy and sheds nothing here).
  /// Returns the number of tuples removed. Used by composite handlers to
  /// reclaim budget from their fullest shard.
  virtual size_t ShedToOccupancy(size_t target, ShedPolicy policy,
                                 TimestampUs now, EventSink* sink) {
    (void)target;
    (void)policy;
    (void)now;
    (void)sink;
    return 0;
  }

  const DisorderHandlerStats& stats() const { return stats_; }

  /// Installs a read-only instrumentation observer (nullptr = none, the
  /// default). When unset, the hot path pays only a pointer null-check —
  /// no virtual calls (the zero-cost-when-off contract of
  /// core/pipeline_observer.h). Virtual so composite handlers
  /// (KeyedDisorderHandler) can propagate to their inner handlers.
  virtual void set_observer(PipelineObserver* observer) {
    observer_ = observer;
  }
  PipelineObserver* observer() const { return observer_; }

 protected:
  /// Records a released tuple's buffering latency; `now` is the arrival time
  /// of the tuple whose processing triggered the release.
  void RecordRelease(const Event& released, TimestampUs now);

  DisorderHandlerStats stats_;
  PipelineObserver* observer_ = nullptr;
};

}  // namespace streamq

#endif  // STREAMQ_DISORDER_DISORDER_HANDLER_H_
