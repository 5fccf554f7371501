#ifndef STREAMQ_DISORDER_SPECULATIVE_H_
#define STREAMQ_DISORDER_SPECULATIVE_H_

#include <memory>
#include <span>

#include "control/quality_controller.h"
#include "disorder/disorder_handler.h"

namespace streamq {

/// Speculative emit-then-amend execution: the buffer-free alternative to
/// K-slack reordering, for pipelines whose window engine can absorb
/// out-of-order tuples directly (WindowedAggregation Engine::kAmend).
///
/// Every arrival is forwarded downstream *immediately* — no reorder-buffer
/// transit, so forwarding latency is zero by construction. Disorder is
/// managed on the *watermark* instead: the output watermark trails the
/// event-time frontier by an adaptive hold slack K, so windows fire
/// provisionally K behind the frontier and stragglers that land inside the
/// hold band simply fold into not-yet-final state. Only tuples behind the
/// held watermark become amendments (revision emissions) downstream.
///
/// The control loop is the paper's AQ loop — the same QualityController
/// AqKSlack runs — re-targeted from buffer slack to amend rate: coverage is
/// the fraction of tuples that beat the held watermark (1 - amend-rate),
/// and K = Quantile_lateness(p) becomes the hold instead of a release
/// threshold.
///
/// Raising q* trades latency for fewer amendments (a longer hold); lowering
/// it buys latency and lets the amend engine repair the difference. With
/// allowed lateness covering the residual stragglers, *final* result
/// quality is 1.0 either way — the quality knob here prices provisional
/// emissions, which is the speculative trade the paper's buffered operator
/// cannot express.
///
/// Accounting matches the non-buffering contract: forwarded tuples are
/// events_out with zero buffering latency; tuples behind the held watermark
/// are events_late (they reach the sink via OnLateEvent and show up
/// downstream as results_amended, not as loss, when lateness allows).
class SpeculativeHandler : public DisorderHandler {
 public:
  /// target_quality is the fraction of tuples that should land ahead of
  /// the held watermark; 1 - target is the amend-rate budget. Runs on the
  /// sliding lateness sketch (DisorderHandlerSpec::Validate rejects the
  /// reservoir ablation here).
  using Options = QualityController::Options;

  explicit SpeculativeHandler(const Options& options,
                              std::unique_ptr<QualityModel> quality_model =
                                  nullptr);

  std::string_view name() const override { return "speculative"; }

  /// A one-tuple OnBatch.
  void OnEvent(const Event& e, EventSink* sink) override;
  /// Forwards each maximal run of in-band tuples with one sink->OnEvents
  /// call, cut before every OnLateEvent and every watermark move: the
  /// sink sees the per-tuple call sequence, in fewer calls.
  void OnBatch(std::span<const Event> batch, EventSink* sink) override;
  void OnHeartbeat(TimestampUs event_time_bound, TimestampUs stream_time,
                   EventSink* sink) override;
  void Flush(EventSink* sink) override;

  /// The hold slack: how far the output watermark trails the frontier.
  DurationUs current_slack() const override { return k_hold_; }

  void set_max_slack(DurationUs max_slack) override {
    max_slack_ = max_slack;
  }

 private:
  /// One control step: recompute the hold slack and report it.
  void Adapt(TimestampUs now);
  /// Hands a run of in-band tuples to the sink, then watermark_ if it
  /// `moved` (stamped `now`), and reports both to the observer as one
  /// release. No-op for an empty run without a move.
  void Release(std::span<const Event> run, bool moved, TimestampUs now,
               EventSink* sink);

  QualityController controller_;

  TimestampUs frontier_ = kMinTimestamp;
  TimestampUs watermark_ = kMinTimestamp;  // frontier_ - k_hold_, monotone.
  TimestampUs last_arrival_ = 0;

  DurationUs k_hold_ = 0;
  DurationUs max_slack_ = 0;  // 0 = unclamped.
};

}  // namespace streamq

#endif  // STREAMQ_DISORDER_SPECULATIVE_H_
