#include "disorder/buffered_handler_base.h"

namespace streamq {

void BufferedHandlerBase::OnHeartbeat(TimestampUs event_time_bound,
                                      TimestampUs stream_time,
                                      EventSink* sink) {
  last_activity_ = std::max(last_activity_, stream_time);
  t_max_ = (t_max_ == kMinTimestamp) ? event_time_bound
                                     : std::max(t_max_, event_time_bound);
  ReleaseUpTo(ReleaseThreshold(current_slack()), stream_time, sink);
}

size_t BufferedHandlerBase::ShedToOccupancy(size_t target, ShedPolicy policy,
                                            TimestampUs now, EventSink* sink) {
  if (buffer_.size() <= target) return 0;
  // kDropNewest is an arrival-side policy: the tuple to discard is the one
  // that has not been buffered yet, so there is nothing to shed here.
  if (policy == ShedPolicy::kDropNewest) return 0;
  const size_t excess = buffer_.size() - target;

  if (policy == ShedPolicy::kDropOldest) {
    Event e;
    for (size_t i = 0; i < excess; ++i) buffer_.PopMin(&e);
    stats_.events_shed += static_cast<int64_t>(excess);
    if (observer_ != nullptr) {
      observer_->OnShed(static_cast<int64_t>(excess), policy);
    }
    return excess;
  }

  // kEmitEarly: release the oldest tuples now, exactly as a normal release
  // would, and advance the watermark to the last released event time. Every
  // tuple still in the buffer is >= that time (PopMin order), so downstream
  // ordering and watermark monotonicity are preserved; the quality cost is
  // that later arrivals behind the advanced watermark divert late.
  release_scratch_.clear();
  release_scratch_.reserve(excess);
  Event e;
  for (size_t i = 0; i < excess; ++i) {
    buffer_.PopMin(&e);
    RecordRelease(e, now);
    release_scratch_.push_back(std::move(e));
  }
  stats_.events_force_released += static_cast<int64_t>(excess);
  sink->OnEvents(release_scratch_, now);
  if (observer_ != nullptr) {
    observer_->OnShed(static_cast<int64_t>(excess), policy);
    observer_->OnHandlerRelease(static_cast<int64_t>(excess), buffer_.size(),
                                release_scratch_.back().event_time);
  }
  const TimestampUs wm = release_scratch_.back().event_time;
  if (emitted_frontier_ == kMinTimestamp || wm > emitted_frontier_) {
    emitted_frontier_ = wm;
    sink->OnWatermark(emitted_frontier_, now);
  }
  return excess;
}

bool BufferedHandlerBase::MakeRoomForIngest(const Event& e, EventSink* sink) {
  // A tuple already behind the watermark will be diverted late, never
  // buffered: no room needed.
  if (emitted_frontier_ != kMinTimestamp && e.event_time < emitted_frontier_) {
    return true;
  }
  // Prefer a legitimate release over shedding: Ingest already advanced
  // t_max for this arrival, so tuples the handler's current slack would
  // release on this step may free room at zero quality cost. Without this,
  // kDropNewest under sustained pressure would wedge — failed ingests skip
  // the caller's release, so the buffer would never drain.
  ReleaseUpTo(ReleaseThreshold(current_slack()), e.arrival_time, sink);
  if (buffer_.size() < max_buffered_events_) {
    return true;
  }
  if (shed_policy_ == ShedPolicy::kDropNewest) {
    ++stats_.events_shed;
    if (observer_ != nullptr) observer_->OnShed(1, shed_policy_);
    return false;
  }
  // After shedding (kEmitEarly may advance the watermark past e), the
  // caller's lateness check decides whether e is buffered or diverted.
  ShedToOccupancy(max_buffered_events_ - 1, shed_policy_, e.arrival_time,
                  sink);
  return true;
}

void BufferedHandlerBase::DrainAll(TimestampUs now, EventSink* sink) {
  release_scratch_.clear();
  if (buffer_.DrainInto(&release_scratch_) > 0) {
    for (const Event& e : release_scratch_) RecordRelease(e, now);
    sink->OnEvents(release_scratch_, now);
    if (observer_ != nullptr) {
      // The last drained event time, not kMaxTimestamp: the watermark
      // gauge keeps a real time.
      observer_->OnHandlerRelease(
          static_cast<int64_t>(release_scratch_.size()), 0,
          release_scratch_.back().event_time);
    }
  }
  emitted_frontier_ = kMaxTimestamp;
  sink->OnWatermark(kMaxTimestamp, now);
}

}  // namespace streamq
