#ifndef STREAMQ_DISORDER_AQ_KSLACK_H_
#define STREAMQ_DISORDER_AQ_KSLACK_H_

#include <memory>

#include "control/quality_controller.h"
#include "disorder/buffered_handler_base.h"

namespace streamq {

/// Quality-driven adaptive K-slack — the paper's operator.
///
/// The user specifies a *result quality* target `q*` instead of a buffer
/// size. A QualityController turns `q*` into a delay-quantile setpoint `p`
/// (feed-forward inversion through the QualityModel plus PI feedback on the
/// measured quality) and the buffer bound becomes `K = Quantile_lateness(p)`.
/// This handler supplies what the loop measures — tuples that missed the
/// reorder buffer's watermark are the quality loss — and applies K as the
/// release threshold `t_max - K`.
class AqKSlack : public BufferedHandlerBase {
 public:
  using Estimator = QualityController::Estimator;
  using Options = QualityController::Options;

  /// `quality_model` translates coverage to result quality for the
  /// downstream aggregate (defaults to the identity/coverage model).
  explicit AqKSlack(const Options& options,
                    std::unique_ptr<QualityModel> quality_model = nullptr);

  std::string_view name() const override { return "aq-kslack"; }

  void OnEvent(const Event& e, EventSink* sink) override;
  void OnBatch(std::span<const Event> batch, EventSink* sink) override;
  void Flush(EventSink* sink) override;

  DurationUs current_slack() const override { return k_; }

  /// The quality loop (setpoint, measured quality, options, model).
  const QualityController& controller() const { return controller_; }

 private:
  /// Feeds the lateness of `e` against the pre-update frontier — exactly
  /// the buffer size this tuple would have needed — to the controller.
  void ObserveLateness(const Event& e) {
    controller_.Observe(t_max_ != kMinTimestamp && e.event_time < t_max_
                            ? static_cast<double>(t_max_ - e.event_time)
                            : 0.0);
  }

  /// One control step: recompute K (clamped so the loop cannot request a
  /// buffer the cap forbids) and report it.
  void Adapt(TimestampUs now);

  QualityController controller_;
  DurationUs k_ = 0;
};

}  // namespace streamq

#endif  // STREAMQ_DISORDER_AQ_KSLACK_H_
