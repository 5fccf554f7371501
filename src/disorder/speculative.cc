#include "disorder/speculative.h"

#include <algorithm>

#include "core/pipeline_observer.h"

namespace streamq {

SpeculativeHandler::SpeculativeHandler(
    const Options& options, std::unique_ptr<QualityModel> quality_model)
    : controller_(options, std::move(quality_model)) {}

void SpeculativeHandler::OnEvent(const Event& e, EventSink* sink) {
  OnBatch(std::span<const Event>(&e, 1), sink);
}

void SpeculativeHandler::OnBatch(std::span<const Event> batch,
                                 EventSink* sink) {
  // In-band tuples accumulate into a run [run_begin, i] forwarded with one
  // OnEvents call. The run is cut before every OnLateEvent and before every
  // OnWatermark, so the sink sees exactly the per-tuple call sequence.
  size_t run_begin = 0;
  for (size_t i = 0; i < batch.size(); ++i) {
    const Event& e = batch[i];
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
      Release(batch.subspan(run_begin, i - run_begin), /*moved=*/false, 0,
              sink);
      run_begin = i + 1;
      ++stats_.events_late;
      controller_.CountLate();
      if (observer_ != nullptr) observer_->OnLateEvent(e);
      sink->OnLateEvent(e);
    } else {
      // Inside the hold band (or ahead of the frontier): forwarded with its
      // run, possibly out of event-time order — the amend engine folds it
      // into not-yet-final window state.
      RecordRelease(e, e.arrival_time);  // Zero buffering latency.
    }

    if (controller_.step_due()) Adapt(e.arrival_time);

    // Advance the held watermark: trail the frontier by the hold slack,
    // monotone even when the slack widens.
    const TimestampUs held =
        (frontier_ < kMinTimestamp + k_hold_) ? kMinTimestamp
                                              : frontier_ - k_hold_;
    if (held > watermark_ || watermark_ == kMinTimestamp) {
      watermark_ = held;
      Release(batch.subspan(run_begin, i + 1 - run_begin), /*moved=*/true,
              e.arrival_time, sink);
      run_begin = i + 1;
    }
  }
  Release(batch.subspan(run_begin), /*moved=*/false, 0, sink);
}

void SpeculativeHandler::Release(std::span<const Event> run, bool moved,
                                 TimestampUs now, EventSink* sink) {
  if (!run.empty()) sink->OnEvents(run);
  if (moved) sink->OnWatermark(watermark_, now);
  if (observer_ != nullptr && (moved || !run.empty())) {
    observer_->OnHandlerRelease(static_cast<int64_t>(run.size()), 0,
                                watermark_);
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
    Release({}, /*moved=*/true, stream_time, sink);
  }
}

void SpeculativeHandler::Flush(EventSink* sink) {
  sink->OnWatermark(kMaxTimestamp, last_arrival_);
}

}  // namespace streamq
