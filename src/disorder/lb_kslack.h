#ifndef STREAMQ_DISORDER_LB_KSLACK_H_
#define STREAMQ_DISORDER_LB_KSLACK_H_

#include <vector>

#include "common/stats.h"
#include "control/pi_controller.h"
#include "disorder/buffered_handler_base.h"

namespace streamq {

/// Latency-budget adaptive K-slack — the dual of AqKSlack.
///
/// The user specifies a *mean buffering latency budget* instead of a
/// quality target; the operator maximizes delivered quality subject to it.
/// Same machinery as AqKSlack (lateness sketch, quantile setpoint, PI
/// feedback), different measured variable: the loop compares the budget to
/// the mean buffering latency of recently released tuples and steers the
/// quantile setpoint p (and thus K) to consume exactly the budget.
///
/// Together the two operators cover both directions of the quality/latency
/// contract: "at least this good, as fast as possible" (AqKSlack) and
/// "at most this slow, as good as possible" (LbKSlack).
class LbKSlack : public BufferedHandlerBase {
 public:
  struct Options {
    /// Target mean buffering latency (microseconds of stream time).
    DurationUs latency_budget = Millis(20);

    size_t sketch_window = 4096;
    int64_t adaptation_interval = 256;

    /// PI gains on the normalized latency error (budget-relative).
    double kp = 0.3;
    double ki = 0.1;

    double p_min = 0.0;
    double p_max = 0.999;
    double max_step = 0.05;
  };

  explicit LbKSlack(const Options& options);

  std::string_view name() const override { return "lb-kslack"; }

  void OnEvent(const Event& e, EventSink* sink) override;
  void OnBatch(std::span<const Event> batch, EventSink* sink) override;
  void Flush(EventSink* sink) override;

  DurationUs current_slack() const override { return k_; }

  /// Current quantile setpoint (instrumentation).
  double setpoint() const { return p_; }

  /// Mean buffering latency over the last completed adaptation interval.
  double last_interval_latency() const { return last_interval_latency_; }

  const Options& options() const { return options_; }

 private:
  void Adapt();

  Options options_;
  SlidingWindowQuantile lateness_sketch_;
  PiController pi_;

  DurationUs k_ = 0;
  double p_ = 0.5;
  double last_interval_latency_ = 0.0;

  int64_t interval_events_ = 0;
  // Snapshot of cumulative release stats at the last adaptation, to derive
  // per-interval means.
  double prev_latency_sum_ = 0.0;
  int64_t prev_release_count_ = 0;
};

}  // namespace streamq

#endif  // STREAMQ_DISORDER_LB_KSLACK_H_
