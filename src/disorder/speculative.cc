#include "disorder/speculative.h"

#include <algorithm>

#include "core/pipeline_observer.h"

namespace streamq {

SpeculativeHandler::SpeculativeHandler(
    const Options& options, std::unique_ptr<QualityModel> quality_model,
    bool collect_latency_samples)
    : DisorderHandler(collect_latency_samples),
      controller_(options, std::move(quality_model)) {}

void SpeculativeHandler::OnEvent(const Event& e, EventSink* sink) {
  ++stats_.events_in;
  last_arrival_ = e.arrival_time;

  // Observe lateness against the pre-update frontier — the hold a zero-
  // amendment policy would have needed for this tuple.
  if (frontier_ != kMinTimestamp && e.event_time < frontier_) {
    controller_.Observe(static_cast<double>(frontier_ - e.event_time));
  } else {
    controller_.Observe(0.0);
    frontier_ = e.event_time;
  }

  if (watermark_ != kMinTimestamp && e.event_time < watermark_) {
    // Behind the held watermark: this tuple will amend an already-emitted
    // provisional result (or be a loss beyond allowed lateness).
    ++stats_.events_late;
    controller_.CountLate();
    if (observer_ != nullptr) observer_->OnLateEvent(e);
    sink->OnLateEvent(e);
  } else {
    // Inside the hold band (or ahead of the frontier): forward right away,
    // possibly out of event-time order — the amend engine folds it into
    // not-yet-final window state.
    RecordRelease(e, e.arrival_time);  // Zero buffering latency.
    sink->OnEvent(e);
  }

  if (controller_.step_due()) Adapt(e.arrival_time);

  // Advance the held watermark: trail the frontier by the hold slack,
  // monotone even when the slack widens.
  const TimestampUs held =
      (frontier_ < kMinTimestamp + k_hold_) ? kMinTimestamp
                                            : frontier_ - k_hold_;
  if (held > watermark_ || watermark_ == kMinTimestamp) {
    watermark_ = held;
    sink->OnWatermark(watermark_, e.arrival_time);
    if (observer_ != nullptr) {
      observer_->OnHandlerRelease(0, 0, watermark_);
    }
  }
}

void SpeculativeHandler::Adapt(TimestampUs now) {
  const DurationUs old_k = k_hold_;
  k_hold_ = controller_.Step();
  if (max_slack_ > 0) k_hold_ = std::min(k_hold_, max_slack_);

  if (observer_ != nullptr) {
    if (k_hold_ != old_k) observer_->OnSlackChanged(old_k, k_hold_);
    observer_->OnAdaptation(AdaptationSample{
        .tuple_index = controller_.tuple_index(),
        .stream_time = now,
        .measured = controller_.measured_quality(),
        .setpoint = controller_.setpoint(),
        .k = k_hold_,
        .buffer_size = 0,
    });
  }
}

void SpeculativeHandler::OnHeartbeat(TimestampUs event_time_bound,
                                     TimestampUs stream_time,
                                     EventSink* sink) {
  last_arrival_ = std::max(last_arrival_, stream_time);
  if (frontier_ == kMinTimestamp || event_time_bound > frontier_) {
    frontier_ = event_time_bound;
  }
  // The source promises no future arrival below the bound, so no amendment
  // below it can occur: release the full hold.
  if (watermark_ == kMinTimestamp || event_time_bound > watermark_) {
    watermark_ = event_time_bound;
    sink->OnWatermark(watermark_, stream_time);
  }
}

void SpeculativeHandler::Flush(EventSink* sink) {
  sink->OnWatermark(kMaxTimestamp, last_arrival_);
}

}  // namespace streamq
