#ifndef STREAMQ_DISORDER_MP_KSLACK_H_
#define STREAMQ_DISORDER_MP_KSLACK_H_

#include <deque>
#include <utility>

#include "disorder/buffered_handler_base.h"

namespace streamq {

/// Disorder-bound-tracking adaptive K-slack: the slack follows the observed
/// maximum tuple lateness, so the buffer is (approximately) always large
/// enough for every tuple — maximal quality, uncontrolled latency. This is
/// the standard adaptive baseline the quality-driven operator is compared
/// against: it cannot trade quality for latency, so on heavy-tailed delays
/// its buffering latency balloons.
class MpKSlack : public BufferedHandlerBase {
 public:
  enum class Mode {
    /// K = max lateness ever observed (monotonically growing bound — the
    /// original published heuristic).
    kGrowOnly,
    /// K = max lateness over the last `window_size` tuples (can shrink when
    /// a disorder burst passes).
    kSlidingMax,
  };

  struct Options {
    Mode mode = Mode::kSlidingMax;
    /// History length in tuples for kSlidingMax.
    int64_t window_size = 10000;
    /// Multiplier applied to the tracked bound (>= 0). 1.0 = exact bound.
    double safety_factor = 1.0;
  };

  explicit MpKSlack(const Options& options);

  std::string_view name() const override { return "mp-kslack"; }

  void OnEvent(const Event& e, EventSink* sink) override;
  void OnBatch(std::span<const Event> batch, EventSink* sink) override;
  void Flush(EventSink* sink) override;

  DurationUs current_slack() const override { return k_; }

 private:
  /// Feeds one lateness observation into the sliding-max structure.
  void ObserveLateness(DurationUs lateness);

  Options options_;
  DurationUs k_ = 0;
  int64_t tuple_index_ = 0;
  /// Monotonic deque of (tuple_index, lateness); front holds the max of the
  /// current window. O(1) amortized per tuple.
  std::deque<std::pair<int64_t, DurationUs>> max_deque_;
};

}  // namespace streamq

#endif  // STREAMQ_DISORDER_MP_KSLACK_H_
