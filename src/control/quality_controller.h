#ifndef STREAMQ_CONTROL_QUALITY_CONTROLLER_H_
#define STREAMQ_CONTROL_QUALITY_CONTROLLER_H_

#include <cstdint>
#include <memory>
#include <variant>

#include "common/stats.h"
#include "common/status.h"
#include "common/time.h"
#include "control/pi_controller.h"
#include "control/quality_model.h"

namespace streamq {

/// The paper's quality loop, written once: turns a result-quality target
/// into a delay-quantile setpoint and the setpoint into a slack
/// K = Quantile_lateness(p).
///
///  1. Observe(): every arrival's lateness against the pre-arrival
///     event-time frontier feeds a lateness estimator (the delay
///     distribution, which may be non-stationary);
///  2. feed-forward: the QualityModel inverts the target q* into the
///     coverage c* it requires, so the setpoint starts at p = c*;
///  3. feedback: Step() turns the interval's late fraction into quality
///     through the model, smooths it (EWMA), and trims p with a PI
///     controller on the quality error; the trim absorbs what the model
///     misses (estimator staleness during bursts, model mismatch, noise).
///
/// Controlling the setpoint p rather than K directly keeps the loop
/// scale-free: when delays double, Quantile(p) doubles with them.
///
/// Callers decide what "late" means and how K is applied: AqKSlack counts
/// tuples that missed its reorder-buffer watermark and releases K behind
/// the frontier; SpeculativeHandler counts tuples behind its held
/// watermark and holds the output watermark K behind the frontier.
class QualityController {
 public:
  /// Which lateness estimator backs the quantile lookup. The sliding
  /// window is the default (follows non-stationary delays); the global
  /// reservoir is an ablation baseline — a uniform sample over all history
  /// that goes stale after a distribution shift.
  enum class Estimator { kSlidingWindow, kGlobalReservoir };

  struct Options {
    /// Target result quality in (0, 1].
    double target_quality = 0.95;

    /// Lateness estimator backing the quantile lookup (see Estimator).
    Estimator estimator = Estimator::kSlidingWindow;

    /// Lateness sketch window (tuples). Larger = smoother estimate, slower
    /// reaction to distribution shifts. A query's cost does not grow with
    /// the window (it reads one bucket's chain); only memory does, 12 B
    /// per slot. Also the reservoir capacity for kGlobalReservoir.
    size_t sketch_window = 4096;

    /// Re-evaluate the setpoint every this many tuples.
    int64_t adaptation_interval = 256;

    /// PI gains on quality error (in quantile-setpoint units).
    double kp = 0.8;
    double ki = 0.25;

    /// Trim range: the feedback may move the setpoint at most this far from
    /// the feed-forward coverage requirement.
    double trim_limit = 0.25;

    /// Setpoint clamp. The upper bound < 1 keeps K finite under heavy tails:
    /// p -> 1 would chase the sample maximum.
    double p_min = 0.05;
    double p_max = 0.999;

    /// Max setpoint change per adaptation step (slew limiting).
    double max_step = 0.05;

    /// EWMA weight of the per-interval quality measurement.
    double quality_smoothing_alpha = 0.3;

    /// InvalidArgument naming the first field the loop cannot run with.
    Status Validate() const;
  };

  /// `quality_model` translates coverage to result quality for the
  /// downstream aggregate (nullptr = the identity/coverage model). Aborts
  /// on options that fail Validate().
  explicit QualityController(const Options& options,
                             std::unique_ptr<QualityModel> quality_model);

  /// Counts one arrival and records its lateness (0 when it is not behind
  /// the frontier).
  void Observe(double lateness) {
    ++tuple_index_;
    ++interval_events_;
    std::visit([lateness](auto& estimator) { estimator.Add(lateness); },
               lateness_);
  }

  /// Counts the last observed arrival as a quality loss.
  void CountLate() { ++interval_late_; }

  /// True when an adaptation interval has filled and Step() is due.
  bool step_due() const {
    return interval_events_ >= options_.adaptation_interval;
  }

  /// One control step: measure the interval's quality, close the PI loop,
  /// move the setpoint, and return ceil(Quantile_lateness(p)) — the slack
  /// before the caller's own clamp.
  DurationUs Step();

  /// Current quantile setpoint p.
  double setpoint() const { return p_; }

  /// Smoothed measured quality (1.0 before the first step).
  double measured_quality() const { return measured_quality_; }

  /// Arrivals observed so far.
  int64_t tuple_index() const { return tuple_index_; }

  const QualityModel& quality_model() const { return *quality_model_; }

 private:
  Options options_;
  std::unique_ptr<QualityModel> quality_model_;
  std::variant<SlidingWindowQuantile, ReservoirSample> lateness_;
  PiController pi_;

  double p_;
  double measured_quality_ = 1.0;
  bool have_measurement_ = false;

  int64_t interval_events_ = 0;
  int64_t interval_late_ = 0;
  int64_t tuple_index_ = 0;
};

}  // namespace streamq

#endif  // STREAMQ_CONTROL_QUALITY_CONTROLLER_H_
