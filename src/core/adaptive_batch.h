#ifndef STREAMQ_CORE_ADAPTIVE_BATCH_H_
#define STREAMQ_CORE_ADAPTIVE_BATCH_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "control/pi_controller.h"

namespace streamq {

/// Per-producer feed batch-size controller for the parallel runners: grows
/// the batch when workers are starving (deep amortization of per-batch
/// dispatch) and shrinks it when their queues back up (less in-flight work
/// per decision, finer steal granularity, lower queueing latency). The
/// same PI shape as the AQ quality loop, re-targeted from delay quantiles
/// to queue occupancy:
///
///   error = depth_setpoint - mean queue-depth fraction - service penalty
///
/// driving the *log2* of the batch size, so one unit of control output is
/// one doubling/halving — growth is multiplicative, like TCP slow start in
/// reverse. The service-time penalty kicks in when one source batch keeps
/// the driver busy past `service_guard_us`, bounding the scheduling latency
/// a single oversized batch can inflict regardless of queue headroom.
///
/// Batch size never affects merged results: routing is per event and
/// FeedBatch is semantically a loop of Feed (pinned by
/// batch_equivalence_test), so the controller is free to chase throughput.
/// It only changes *when* steal decisions happen, which placement-
/// invariance already makes output-neutral.
class AdaptiveBatcher {
 public:
  struct Options {
    size_t min_batch = 64;
    size_t max_batch = 8192;
    /// Starting size (clamped into [min_batch, max_batch]); the runners
    /// seed it with ParallelOptions::batch_size.
    size_t initial = 512;
    /// Target mean queue occupancy as a fraction of capacity: 0.5 keeps
    /// queues half full — headroom against bursts, no starvation.
    double depth_setpoint = 0.5;
    /// Driver time per source batch above which the penalty term pushes
    /// the size back down even with empty queues.
    double service_guard_us = 5000.0;
    /// Source batches per control step (samples are averaged in between).
    int interval_batches = 16;
    double kp = 1.0;
    double ki = 0.5;
  };

  explicit AdaptiveBatcher(const Options& options)
      : options_(options), pi_(PiOptions(options)) {
    const size_t init = std::clamp(options_.initial, options_.min_batch,
                                   options_.max_batch);
    base_log2_ = std::log2(static_cast<double>(init));
    batch_ = init;
  }

  /// Current feed size, updated every `interval_batches` observations.
  size_t batch() const { return batch_; }

  /// Control steps taken so far; `batch()` changed at most this often.
  int64_t adaptations() const { return adaptations_; }

  /// Feeds one routed source batch's measurements: the mean depth of the
  /// worker queues as a fraction of capacity (sampled at publish time) and
  /// the driver time spent routing and delivering the batch. Returns true
  /// when this observation completed a control step (batch() may have
  /// changed) — the runners' hook point for setpoint gauges.
  bool Observe(double depth_fraction, double service_us) {
    depth_sum_ += depth_fraction;
    service_sum_ += service_us;
    if (++samples_ < options_.interval_batches) return false;
    const double mean_depth = depth_sum_ / static_cast<double>(samples_);
    const double mean_service = service_sum_ / static_cast<double>(samples_);
    depth_sum_ = 0.0;
    service_sum_ = 0.0;
    samples_ = 0;
    const double penalty = std::min(
        1.5, std::max(0.0, mean_service / options_.service_guard_us - 1.0));
    const double error = options_.depth_setpoint - mean_depth - penalty;
    const double x = base_log2_ + pi_.Update(error);
    const auto proposed = static_cast<size_t>(std::llround(std::exp2(x)));
    batch_ = std::clamp(proposed, options_.min_batch, options_.max_batch);
    ++adaptations_;
    return true;
  }

  const Options& options() const { return options_; }

 private:
  static PiController::Options PiOptions(const Options& options) {
    PiController::Options pi;
    pi.kp = options.kp;
    pi.ki = options.ki;
    // The output is a log2 offset from the initial size; the rails span the
    // whole [min, max] range so the integrator can hold either extreme.
    const double lo = std::log2(static_cast<double>(options.min_batch));
    const double hi = std::log2(static_cast<double>(options.max_batch));
    const double base = std::log2(static_cast<double>(
        std::clamp(options.initial, options.min_batch, options.max_batch)));
    pi.out_min = lo - base;
    pi.out_max = hi - base;
    pi.integral_limit = hi - lo + 1.0;
    return pi;
  }

  Options options_;
  PiController pi_;
  double base_log2_ = 0.0;
  size_t batch_ = 512;
  double depth_sum_ = 0.0;
  double service_sum_ = 0.0;
  int samples_ = 0;
  int64_t adaptations_ = 0;
};

}  // namespace streamq

#endif  // STREAMQ_CORE_ADAPTIVE_BATCH_H_
