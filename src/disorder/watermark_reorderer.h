#ifndef STREAMQ_DISORDER_WATERMARK_REORDERER_H_
#define STREAMQ_DISORDER_WATERMARK_REORDERER_H_

#include "disorder/buffered_handler_base.h"

namespace streamq {

/// Flink-style heuristic-watermark baseline: a bounded-out-of-orderness
/// watermark `frontier - bound` generated every `period_events` arrivals
/// drives releases. Tuples later than the watermark are forwarded as late if
/// within `allowed_lateness` (downstream may amend already-fired windows) and
/// dropped beyond it.
///
/// Differences from FixedKSlack: releases happen only at watermark ticks
/// (batchier, cheaper, slightly higher latency for period > 1), and the
/// late/drop split is explicit. Like FixedKSlack, the bound is static —
/// quality is whatever the bound happens to deliver.
class WatermarkReorderer : public BufferedHandlerBase {
 public:
  struct Options {
    /// Watermark lag behind the event-time frontier (the "bounded
    /// out-of-orderness" assumption), in event-time microseconds.
    DurationUs bound = 50000;

    /// Generate a watermark every this many arrivals (1 = per tuple).
    int64_t period_events = 32;

    /// Late tuples within this much of the watermark are still forwarded
    /// via OnLateEvent; beyond it they are dropped.
    DurationUs allowed_lateness = 0;
  };

  explicit WatermarkReorderer(const Options& options);

  std::string_view name() const override { return "watermark"; }

  void OnEvent(const Event& e, EventSink* sink) override;
  void OnBatch(std::span<const Event> batch, EventSink* sink) override;
  void Flush(EventSink* sink) override;

  DurationUs current_slack() const override { return options_.bound; }

 private:
  Options options_;
  int64_t since_tick_ = 0;
};

}  // namespace streamq

#endif  // STREAMQ_DISORDER_WATERMARK_REORDERER_H_
