#include "control/quality_controller.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace streamq {

namespace {

// Checks the options before any member is built from them, so a bad
// sketch_window aborts with the Validate() message.
const QualityController::Options& Validated(
    const QualityController::Options& options) {
  STREAMQ_CHECK_OK(options.Validate());
  return options;
}

std::variant<SlidingWindowQuantile, ReservoirSample> MakeEstimator(
    const QualityController::Options& options) {
  if (options.estimator == QualityController::Estimator::kSlidingWindow) {
    return SlidingWindowQuantile(options.sketch_window);
  }
  return ReservoirSample(options.sketch_window, /*seed=*/0x5EED);
}

}  // namespace

// Each rule states what is valid and rejects its negation, so NaN fails it.
Status QualityController::Options::Validate() const {
  if (!(target_quality > 0.0 && target_quality <= 1.0)) {
    return Status::InvalidArgument("target_quality must be in (0, 1]");
  }
  if (sketch_window == 0) {
    return Status::InvalidArgument("sketch_window must be > 0");
  }
  if (adaptation_interval <= 0) {
    return Status::InvalidArgument("adaptation_interval must be > 0");
  }
  if (!(p_min > 0.0 && p_max <= 1.0 && p_min < p_max)) {
    return Status::InvalidArgument("need 0 < p_min < p_max <= 1");
  }
  if (!(max_step > 0.0)) {
    return Status::InvalidArgument("max_step must be > 0");
  }
  if (!(quality_smoothing_alpha > 0.0 && quality_smoothing_alpha <= 1.0)) {
    return Status::InvalidArgument(
        "quality_smoothing_alpha must be in (0, 1]");
  }
  return Status::OK();
}

QualityController::QualityController(
    const Options& options, std::unique_ptr<QualityModel> quality_model)
    : options_(Validated(options)),
      quality_model_(quality_model ? std::move(quality_model)
                                   : MakeCoverageQualityModel()),
      lateness_(MakeEstimator(options)),
      pi_(PiController::Options{
          .kp = options.kp,
          .ki = options.ki,
          .out_min = -options.trim_limit,
          .out_max = options.trim_limit,
          .integral_limit = options.trim_limit,
      }) {
  // Feed-forward initialization: before any measurement, set the quantile
  // setpoint to the coverage the quality model requires.
  p_ = std::clamp(quality_model_->CoverageForQuality(options.target_quality),
                  options.p_min, options.p_max);
}

DurationUs QualityController::Step() {
  // --- Measure: coverage over the last interval -> quality via the model.
  const double interval_coverage =
      interval_events_ > 0
          ? 1.0 - static_cast<double>(interval_late_) /
                      static_cast<double>(interval_events_)
          : 1.0;
  const double interval_quality =
      quality_model_->QualityFromCoverage(interval_coverage);
  if (!have_measurement_) {
    measured_quality_ = interval_quality;
    have_measurement_ = true;
  } else {
    measured_quality_ =
        options_.quality_smoothing_alpha * interval_quality +
        (1.0 - options_.quality_smoothing_alpha) * measured_quality_;
  }
  interval_events_ = 0;
  interval_late_ = 0;

  // --- Feed-forward term: coverage the model says we need.
  const double feed_forward = std::clamp(
      quality_model_->CoverageForQuality(options_.target_quality),
      options_.p_min, options_.p_max);

  // --- Feedback term: PI on the quality error. Positive error (quality
  // below target) pushes the setpoint up.
  const double error = options_.target_quality - measured_quality_;
  const double trim = pi_.Update(error);

  // --- Combine, slew-limit, clamp.
  const double target_p =
      std::clamp(feed_forward + trim, options_.p_min, options_.p_max);
  const double step =
      std::clamp(target_p - p_, -options_.max_step, options_.max_step);
  p_ += step;

  // --- Translate the quantile setpoint into a slack.
  const double quantile = std::visit(
      [this](const auto& estimator) { return estimator.Quantile(p_); },
      lateness_);
  return static_cast<DurationUs>(std::ceil(quantile));
}

}  // namespace streamq
