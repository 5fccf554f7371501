#include "disorder/pass_through.h"

#include <algorithm>

#include "core/pipeline_observer.h"

namespace streamq {

void PassThrough::OnEvent(const Event& e, EventSink* sink) {
  ++stats_.events_in;
  if (frontier_ != kMinTimestamp && e.event_time < frontier_) {
    ++stats_.events_late;
    if (observer_ != nullptr) observer_->OnLateEvent(e);
    sink->OnLateEvent(e);
    return;
  }
  frontier_ = e.event_time;
  last_arrival_ = e.arrival_time;
  RecordRelease(e, e.arrival_time);  // Zero buffering latency by definition.
  if (observer_ != nullptr) observer_->OnHandlerRelease(1, 0, frontier_);
  sink->OnEvent(e);
  sink->OnWatermark(frontier_, e.arrival_time);
}

void PassThrough::OnHeartbeat(TimestampUs event_time_bound,
                              TimestampUs stream_time, EventSink* sink) {
  last_arrival_ = std::max(last_arrival_, stream_time);
  if (frontier_ == kMinTimestamp || event_time_bound > frontier_) {
    frontier_ = event_time_bound;
    sink->OnWatermark(frontier_, stream_time);
  }
}

void PassThrough::Flush(EventSink* sink) {
  sink->OnWatermark(kMaxTimestamp, last_arrival_);
}

}  // namespace streamq
