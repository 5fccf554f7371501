#ifndef STREAMQ_DISORDER_PASS_THROUGH_H_
#define STREAMQ_DISORDER_PASS_THROUGH_H_

#include "disorder/disorder_handler.h"

namespace streamq {

/// No disorder handling: forwards every tuple immediately; the watermark is
/// the event-time frontier. Tuples behind the frontier are delivered via
/// OnLateEvent (they can never be re-ordered, by definition).
///
/// This is both the "no handling" baseline and the substrate of the
/// speculative strategy: pair it with a window operator configured for
/// speculative emission (emit early, amend on late arrivals).
class PassThrough : public DisorderHandler {
 public:
  std::string_view name() const override { return "pass-through"; }

  void OnEvent(const Event& e, EventSink* sink) override;
  void OnHeartbeat(TimestampUs event_time_bound, TimestampUs stream_time,
                   EventSink* sink) override;
  void Flush(EventSink* sink) override;

 private:
  TimestampUs frontier_ = kMinTimestamp;
  TimestampUs last_arrival_ = 0;
};

}  // namespace streamq

#endif  // STREAMQ_DISORDER_PASS_THROUGH_H_
