#include "disorder/watermark_reorderer.h"

#include "common/logging.h"

namespace streamq {

WatermarkReorderer::WatermarkReorderer(const Options& options)
    : options_(options) {
  STREAMQ_CHECK_GE(options.bound, 0);
  STREAMQ_CHECK_GT(options.period_events, 0);
  STREAMQ_CHECK_GE(options.allowed_lateness, 0);
}

void WatermarkReorderer::OnEvent(const Event& e, EventSink* sink) {
  // Drop hopeless tuples before the generic late-divert path: beyond the
  // allowed lateness they would be useless downstream.
  if (emitted_frontier_ != kMinTimestamp &&
      e.event_time < emitted_frontier_ &&
      emitted_frontier_ - e.event_time > options_.allowed_lateness) {
    ++stats_.events_in;
    ++stats_.events_late;
    ++stats_.events_dropped;
    if (observer_ != nullptr) {
      observer_->OnLateEvent(e);  // Dropped tuples are late tuples too.
      observer_->OnEventDropped(e);
    }
    return;
  }

  Ingest(e, sink);

  if (++since_tick_ >= options_.period_events) {
    since_tick_ = 0;
    ReleaseUpTo(ReleaseThreshold(options_.bound), e.arrival_time, sink);
  }
}

void WatermarkReorderer::OnBatch(std::span<const Event> batch,
                                 EventSink* sink) {
  // Manual loop instead of the ProcessBatch policy: the drop path diverts
  // tuples *before* Ingest, and releases tick on the arrival counter rather
  // than per buffered tuple — neither fits the policy contract. The body
  // replays OnEvent exactly; inlining it here still hoists the virtual
  // dispatch out of the loop.
  for (const Event& e : batch) {
    if (emitted_frontier_ != kMinTimestamp &&
        e.event_time < emitted_frontier_ &&
        emitted_frontier_ - e.event_time > options_.allowed_lateness) {
      ++stats_.events_in;
      ++stats_.events_late;
      ++stats_.events_dropped;
      if (observer_ != nullptr) {
        observer_->OnLateEvent(e);
        observer_->OnEventDropped(e);
      }
      continue;
    }
    Ingest(e, sink);
    if (++since_tick_ >= options_.period_events) {
      since_tick_ = 0;
      ReleaseUpTo(ReleaseThreshold(options_.bound), e.arrival_time, sink);
    }
  }
}

void WatermarkReorderer::Flush(EventSink* sink) {
  DrainAll(last_activity_, sink);
}

}  // namespace streamq
