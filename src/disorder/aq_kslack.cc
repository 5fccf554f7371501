#include "disorder/aq_kslack.h"

namespace streamq {

AqKSlack::AqKSlack(const Options& options,
                   std::unique_ptr<QualityModel> quality_model)
    : controller_(options, std::move(quality_model)) {}

void AqKSlack::OnEvent(const Event& e, EventSink* sink) {
  ObserveLateness(e);

  const int64_t late_before = stats_.events_late;
  const bool buffered = Ingest(e, sink);
  if (stats_.events_late > late_before) {
    controller_.CountLate();  // Tuple missed the watermark: a quality loss.
  }

  if (controller_.step_due()) Adapt(e.arrival_time);
  if (buffered) {
    ReleaseUpTo(ReleaseThreshold(k_), e.arrival_time, sink);
  }
}

void AqKSlack::OnBatch(std::span<const Event> batch, EventSink* sink) {
  struct Policy {
    AqKSlack* self;
    void BeforeIngest(const Event& e) { self->ObserveLateness(e); }
    void AfterIngest(const Event& e, bool was_buffered) {
      // Ingest returns false exactly when it diverted the tuple late.
      if (!was_buffered) self->controller_.CountLate();
      if (self->controller_.step_due()) self->Adapt(e.arrival_time);
    }
    DurationUs slack() const { return self->k_; }
  };
  ProcessBatch(batch, sink, Policy{this});
}

void AqKSlack::Adapt(TimestampUs now) {
  const DurationUs old_k = k_;
  k_ = ClampSlack(controller_.Step());
  if (observer_ != nullptr) {
    if (k_ != old_k) observer_->OnSlackChanged(old_k, k_);
    observer_->OnAdaptation(AdaptationSample{
        .tuple_index = controller_.tuple_index(),
        .stream_time = now,
        .measured = controller_.measured_quality(),
        .setpoint = controller_.setpoint(),
        .k = k_,
        .buffer_size = buffer_.size(),
    });
  }
}

void AqKSlack::Flush(EventSink* sink) { DrainAll(last_activity_, sink); }

}  // namespace streamq
