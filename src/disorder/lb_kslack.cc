#include "disorder/lb_kslack.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace streamq {

LbKSlack::LbKSlack(const Options& options)
    : options_(options),
      lateness_sketch_(options.sketch_window),
      pi_(PiController::Options{
          .kp = options.kp,
          .ki = options.ki,
          .out_min = -1.0,
          .out_max = 1.0,
          .integral_limit = 1.0,
      }) {
  STREAMQ_CHECK_GT(options.latency_budget, 0);
  STREAMQ_CHECK_GT(options.adaptation_interval, 0);
  STREAMQ_CHECK_GE(options.p_min, 0.0);
  STREAMQ_CHECK_LE(options.p_max, 1.0);
  STREAMQ_CHECK_LT(options.p_min, options.p_max);
  STREAMQ_CHECK_GT(options.max_step, 0.0);
}

void LbKSlack::OnEvent(const Event& e, EventSink* sink) {
  ++interval_events_;

  if (t_max_ != kMinTimestamp && e.event_time < t_max_) {
    lateness_sketch_.Add(static_cast<double>(t_max_ - e.event_time));
  } else {
    lateness_sketch_.Add(0.0);
  }

  const bool buffered = Ingest(e, sink);
  if (interval_events_ >= options_.adaptation_interval) {
    Adapt();
  }
  if (buffered) {
    ReleaseUpTo(ReleaseThreshold(k_), e.arrival_time, sink);
  }
}

void LbKSlack::OnBatch(std::span<const Event> batch, EventSink* sink) {
  struct Policy {
    LbKSlack* self;
    void BeforeIngest(const Event& e) {
      ++self->interval_events_;
      if (self->t_max_ != kMinTimestamp && e.event_time < self->t_max_) {
        self->lateness_sketch_.Add(
            static_cast<double>(self->t_max_ - e.event_time));
      } else {
        self->lateness_sketch_.Add(0.0);
      }
    }
    void AfterIngest(const Event&, bool) {
      if (self->interval_events_ >= self->options_.adaptation_interval) {
        self->Adapt();
      }
    }
    DurationUs slack() const { return self->k_; }
  };
  ProcessBatch(batch, sink, Policy{this});
}

void LbKSlack::Adapt() {
  interval_events_ = 0;

  // Mean buffering latency of tuples released since the last adaptation.
  const double total_sum = stats_.buffering_latency_us.sum();
  const int64_t total_count = stats_.buffering_latency_us.count();
  const int64_t interval_count = total_count - prev_release_count_;
  if (interval_count > 0) {
    last_interval_latency_ =
        (total_sum - prev_latency_sum_) / static_cast<double>(interval_count);
  }
  prev_latency_sum_ = total_sum;
  prev_release_count_ = total_count;

  // Normalized error: positive when under budget (room to buffer more and
  // harvest quality), negative when over budget (shed latency).
  const double budget = static_cast<double>(options_.latency_budget);
  const double error = (budget - last_interval_latency_) / budget;
  const double u = pi_.Update(error);

  // The PI output moves the setpoint around its neutral midpoint; slew
  // limiting keeps K changes bounded per interval.
  const double target_p =
      std::clamp(0.5 + 0.5 * u, options_.p_min, options_.p_max);
  const double step =
      std::clamp(target_p - p_, -options_.max_step, options_.max_step);
  p_ += step;
  const DurationUs old_k = k_;
  k_ = ClampSlack(
      static_cast<DurationUs>(std::ceil(lateness_sketch_.Quantile(p_))));

  if (observer_ != nullptr) {
    if (k_ != old_k) observer_->OnSlackChanged(old_k, k_);
    observer_->OnAdaptation(AdaptationSample{
        .tuple_index = prev_release_count_,
        .stream_time = last_activity_,
        .measured = last_interval_latency_,
        .setpoint = p_,
        .k = k_,
        .buffer_size = buffer_.size(),
    });
  }
}

void LbKSlack::Flush(EventSink* sink) { DrainAll(last_activity_, sink); }

}  // namespace streamq
