#include "disorder/mp_kslack.h"

#include <cmath>

#include "common/logging.h"

namespace streamq {

MpKSlack::MpKSlack(const Options& options) : options_(options) {
  STREAMQ_CHECK_GT(options.window_size, 0);
  STREAMQ_CHECK_GE(options.safety_factor, 0.0);
}

void MpKSlack::ObserveLateness(DurationUs lateness) {
  const DurationUs old_k = k_;
  if (options_.mode == Mode::kGrowOnly) {
    const auto scaled = ClampSlack(static_cast<DurationUs>(
        std::ceil(static_cast<double>(lateness) * options_.safety_factor)));
    if (scaled > k_) k_ = scaled;
  } else {
    // Sliding max over the last window_size observations.
    while (!max_deque_.empty() && max_deque_.back().second <= lateness) {
      max_deque_.pop_back();
    }
    max_deque_.emplace_back(tuple_index_, lateness);
    const int64_t cutoff = tuple_index_ - options_.window_size;
    while (!max_deque_.empty() && max_deque_.front().first <= cutoff) {
      max_deque_.pop_front();
    }
    const DurationUs bound =
        max_deque_.empty() ? 0 : max_deque_.front().second;
    k_ = ClampSlack(static_cast<DurationUs>(
        std::ceil(static_cast<double>(bound) * options_.safety_factor)));
  }
  if (observer_ != nullptr && k_ != old_k) {
    observer_->OnSlackChanged(old_k, k_);
  }
}

void MpKSlack::OnEvent(const Event& e, EventSink* sink) {
  // Lateness w.r.t. the frontier *before* this tuple updates it.
  DurationUs lateness = 0;
  if (t_max_ != kMinTimestamp && e.event_time < t_max_) {
    lateness = t_max_ - e.event_time;
  }
  ++tuple_index_;
  ObserveLateness(lateness);
  if (!Ingest(e, sink)) return;
  ReleaseUpTo(ReleaseThreshold(k_), e.arrival_time, sink);
}

void MpKSlack::OnBatch(std::span<const Event> batch, EventSink* sink) {
  struct Policy {
    MpKSlack* self;
    void BeforeIngest(const Event& e) {
      DurationUs lateness = 0;
      if (self->t_max_ != kMinTimestamp && e.event_time < self->t_max_) {
        lateness = self->t_max_ - e.event_time;
      }
      ++self->tuple_index_;
      self->ObserveLateness(lateness);
    }
    void AfterIngest(const Event&, bool) {}
    DurationUs slack() const { return self->k_; }
  };
  ProcessBatch(batch, sink, Policy{this});
}

void MpKSlack::Flush(EventSink* sink) { DrainAll(last_activity_, sink); }

}  // namespace streamq
