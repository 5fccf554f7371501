#ifndef STREAMQ_DISORDER_BUFFERED_HANDLER_BASE_H_
#define STREAMQ_DISORDER_BUFFERED_HANDLER_BASE_H_

#include <algorithm>
#include <span>
#include <vector>

#include "core/pipeline_observer.h"
#include "disorder/disorder_handler.h"
#include "disorder/reorder_buffer.h"

namespace streamq {

/// Shared machinery for every buffering handler: the reorder buffer, the
/// event-time frontier `t_max`, the output watermark, and the release
/// procedure. Subclasses only decide *when* and *up to where* to release.
///
/// The hot-path members (Ingest, ReleaseUpTo, ProcessBatch) are defined
/// inline so a subclass's OnBatch compiles into one tight loop with no
/// per-tuple virtual dispatch: the only virtual calls left are the sink
/// notifications, and releases go out through a single OnEvents call per
/// release instead of one OnEvent per tuple.
class BufferedHandlerBase : public DisorderHandler {
 public:
  size_t buffered() const override { return buffer_.size(); }

  void set_buffer_cap(size_t max_buffered_events, ShedPolicy policy) override {
    max_buffered_events_ = max_buffered_events;
    shed_policy_ = policy;
  }

  void set_max_slack(DurationUs max_slack) override {
    max_slack_ = max_slack < 0 ? 0 : max_slack;
  }

  /// Sheds down to `target` occupancy (see DisorderHandler). Out-of-line:
  /// this only runs when the cap is hit, never on the uncapped hot path.
  size_t ShedToOccupancy(size_t target, ShedPolicy policy, TimestampUs now,
                         EventSink* sink) override;

  /// Advances the frontier to the promised bound and releases with the
  /// handler's current slack. Works for every buffered handler because the
  /// release bound is current_slack(), which subclasses keep up to date.
  void OnHeartbeat(TimestampUs event_time_bound, TimestampUs stream_time,
                   EventSink* sink) override;

  /// Event-time frontier: max event time seen so far.
  TimestampUs frontier() const { return t_max_; }

  /// Current output watermark (last emitted).
  TimestampUs watermark() const { return emitted_frontier_; }

 protected:
  /// Inserts `e` into the buffer unless it is already behind the output
  /// watermark, in which case it is diverted to OnLateEvent. Updates t_max
  /// and stats. Returns true if the event was buffered.
  bool Ingest(const Event& e, EventSink* sink) {
    ++stats_.events_in;
    last_activity_ = std::max(last_activity_, e.arrival_time);
    t_max_ = (t_max_ == kMinTimestamp) ? e.event_time
                                       : std::max(t_max_, e.event_time);
    if (max_buffered_events_ != 0 &&
        buffer_.size() >= max_buffered_events_) [[unlikely]] {
      if (!MakeRoomForIngest(e, sink)) return false;
    }
    if (emitted_frontier_ != kMinTimestamp &&
        e.event_time < emitted_frontier_) {
      ++stats_.events_late;
      if (observer_ != nullptr) observer_->OnLateEvent(e);
      sink->OnLateEvent(e);
      return false;
    }
    buffer_.Push(e);
    stats_.max_buffer_size = std::max(
        stats_.max_buffer_size, static_cast<int64_t>(buffer_.size()));
    return true;
  }

  /// Releases (in order) all buffered events with event_time <= threshold,
  /// advances the watermark to max(watermark, threshold) and notifies the
  /// sink. `now` is the arrival time driving latency accounting.
  void ReleaseUpTo(TimestampUs threshold, TimestampUs now, EventSink* sink) {
    if (threshold == kMinTimestamp) return;
    release_scratch_.clear();
    if (buffer_.PopUpTo(threshold, &release_scratch_) > 0) {
      for (const Event& e : release_scratch_) RecordRelease(e, now);
      sink->OnEvents(release_scratch_, now);
      if (observer_ != nullptr) {
        observer_->OnHandlerRelease(
            static_cast<int64_t>(release_scratch_.size()), buffer_.size(),
            threshold);
      }
    }
    if (emitted_frontier_ == kMinTimestamp || threshold > emitted_frontier_) {
      emitted_frontier_ = threshold;
      sink->OnWatermark(emitted_frontier_, now);
    }
  }

  /// Batched hot loop shared by the K-slack family's OnBatch overrides.
  /// Replays exactly the per-event sequence — lateness check, buffer
  /// insert, release, watermark — for each element of `batch`, with the
  /// subclass's per-event control logic supplied statically via `policy`
  /// so everything inlines.
  ///
  /// Policy contract (each member invoked once per event, in this order):
  ///   policy.BeforeIngest(e)           — runs before t_max advances
  ///                                      (lateness observation, counters);
  ///   policy.AfterIngest(e, buffered)  — runs after the ingest decision
  ///                                      (adaptation steps); `buffered` is
  ///                                      false iff the event was diverted
  ///                                      late;
  ///   policy.slack()                   — slack bound for this event's
  ///                                      release (post-adaptation).
  template <typename Policy>
  void ProcessBatch(std::span<const Event> batch, EventSink* sink,
                    Policy&& policy) {
    for (const Event& e : batch) {
      policy.BeforeIngest(e);
      const bool was_buffered = Ingest(e, sink);
      policy.AfterIngest(e, was_buffered);
      if (was_buffered) {
        ReleaseUpTo(ReleaseThreshold(policy.slack()), e.arrival_time, sink);
      }
    }
  }

  /// Computes `t_max - slack` without underflow. Returns kMinTimestamp when
  /// no event has been seen.
  TimestampUs ReleaseThreshold(DurationUs slack) const {
    if (t_max_ == kMinTimestamp) return kMinTimestamp;
    if (slack < 0) slack = 0;
    if (t_max_ < kMinTimestamp + slack) return kMinTimestamp;
    return t_max_ - slack;
  }

  /// Drains the entire buffer (end of stream) and emits kMaxTimestamp.
  void DrainAll(TimestampUs now, EventSink* sink);

  /// Applies the adaptive-K clamp (no-op when max_slack is unset).
  /// Subclasses call this on every recomputed K so control loops cannot
  /// request a buffer the cap forbids.
  DurationUs ClampSlack(DurationUs k) const {
    return (max_slack_ > 0 && k > max_slack_) ? max_slack_ : k;
  }

  DurationUs max_slack() const { return max_slack_; }

  ReorderBuffer buffer_;
  TimestampUs t_max_ = kMinTimestamp;
  TimestampUs emitted_frontier_ = kMinTimestamp;
  /// Arrival time of the latest activity (event or heartbeat); used as
  /// "now" for terminal flushes.
  TimestampUs last_activity_ = 0;

 private:
  /// Cold path of Ingest: the buffer is at its cap. Returns true if the
  /// caller should proceed to buffer `e` (room was made, or `e` will be
  /// diverted late anyway), false if `e` was consumed (kDropNewest).
  bool MakeRoomForIngest(const Event& e, EventSink* sink);

  size_t max_buffered_events_ = 0;
  ShedPolicy shed_policy_ = ShedPolicy::kEmitEarly;
  DurationUs max_slack_ = 0;
  std::vector<Event> release_scratch_;
};

}  // namespace streamq

#endif  // STREAMQ_DISORDER_BUFFERED_HANDLER_BASE_H_
