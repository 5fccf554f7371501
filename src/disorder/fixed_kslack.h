#ifndef STREAMQ_DISORDER_FIXED_KSLACK_H_
#define STREAMQ_DISORDER_FIXED_KSLACK_H_

#include "disorder/buffered_handler_base.h"

namespace streamq {

/// Classic K-slack (Babu et al.): buffer tuples and release every tuple
/// whose event time is at least `K` behind the event-time frontier.
/// `K` is fixed for the lifetime of the operator — the baseline whose
/// tuning problem motivates the quality-driven operator.
class FixedKSlack : public BufferedHandlerBase {
 public:
  /// `k` is the slack in event-time microseconds (>= 0).
  explicit FixedKSlack(DurationUs k);

  std::string_view name() const override { return "fixed-kslack"; }

  void OnEvent(const Event& e, EventSink* sink) override;
  void OnBatch(std::span<const Event> batch, EventSink* sink) override;
  void Flush(EventSink* sink) override;

  DurationUs current_slack() const override { return k_; }

 private:
  DurationUs k_;
};

}  // namespace streamq

#endif  // STREAMQ_DISORDER_FIXED_KSLACK_H_
