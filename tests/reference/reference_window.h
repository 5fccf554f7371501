#ifndef STREAMQ_TESTS_REFERENCE_REFERENCE_WINDOW_H_
#define STREAMQ_TESTS_REFERENCE_REFERENCE_WINDOW_H_

// Reference window operator for equivalence tests: the plain std::map over
// (window start, key) with one reference accumulator per window
// (reference_aggregate.h; none of the library's accumulators). Slow and
// obviously correct; WindowedAggregation's engines (kHot, kAmend) are
// pinned byte-for-byte against it. Not part of the library.

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <utility>

#include "agg/aggregate.h"
#include "core/continuous_query.h"
#include "core/executor.h"
#include "disorder/event_sink.h"
#include "window/window_operator.h"

namespace streamq {
namespace reference {

class ReferenceWindowedAggregation : public EventSink {
 public:
  /// Reads window, aggregate, allowed_lateness, emit_revision_per_update
  /// and per_key_watermarks; `engine` is ignored.
  using Options = WindowedAggregation::Options;
  using Stats = WindowedAggregation::Stats;

  ReferenceWindowedAggregation(const Options& options, WindowResultSink* sink);

  void OnEvent(const Event& e) override;
  void OnWatermark(TimestampUs watermark, TimestampUs stream_time) override;
  void OnKeyedWatermark(int64_t key, TimestampUs watermark,
                        TimestampUs stream_time) override;
  void OnLateEvent(const Event& e) override;

  const Stats& stats() const { return stats_; }
  size_t live_windows() const { return windows_.size(); }

 private:
  struct WindowState {
    std::unique_ptr<Aggregator> acc;
    bool fired = false;
    int32_t revisions = 0;
    bool dirty_since_fire = false;  // Amended since the last emission.
  };
  /// Ordered by (window start, key): firing scans stop early.
  using StateKey = std::pair<TimestampUs, int64_t>;

  WindowState* GetOrCreateState(TimestampUs window_start, int64_t key);
  void Emit(const StateKey& sk, WindowState* state, TimestampUs now,
            bool revision);

  Options options_;
  WindowResultSink* sink_;
  std::map<StateKey, WindowState> windows_;
  TimestampUs last_watermark_ = kMinTimestamp;
  Stats stats_;
};

/// Runs `query` over `events` with its disorder handler feeding the
/// reference operator, exactly as QueryExecutor::Feed (batched = false) or
/// FeedBatch over the whole span (batched = true), then Finish, would.
/// Fills the report fields the engines are compared on: events_processed,
/// handler_stats, window_stats, results_amended, results and final_slack.
RunReport RunReference(const ContinuousQuery& query,
                       std::span<const Event> events, bool batched);

}  // namespace reference
}  // namespace streamq

#endif  // STREAMQ_TESTS_REFERENCE_REFERENCE_WINDOW_H_
