#ifndef STREAMQ_WINDOW_WINDOW_OPERATOR_H_
#define STREAMQ_WINDOW_WINDOW_OPERATOR_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "agg/aggregate.h"
#include "agg/aggregate_state.h"
#include "common/time.h"
#include "core/pipeline_observer.h"
#include "disorder/event_sink.h"
#include "window/amend_window_store.h"
#include "window/flat_window_store.h"
#include "window/window.h"

namespace streamq {

/// Consumer of window results.
class WindowResultSink {
 public:
  virtual ~WindowResultSink() = default;
  virtual void OnResult(const WindowResult& result) = 0;
};

/// Records every result (tests/harness).
class CollectingResultSink : public WindowResultSink {
 public:
  void OnResult(const WindowResult& result) override {
    results.push_back(result);
  }
  std::vector<WindowResult> results;
};

/// Keyed, windowed aggregation driven by the EventSink protocol of a
/// disorder handler:
///
///  * OnEvent    — in-order tuple: fold into all covering windows.
///  * OnWatermark — fire every unfired window whose end <= watermark.
///  * OnLateEvent — tuple behind the watermark: if the window state still
///    exists (within allowed lateness), fold it in; if the window already
///    fired, emit a *revision* result. Otherwise count it as dropped.
///
/// Window state is purged once the watermark passes end + allowed_lateness.
/// With a PassThrough disorder handler and allowed_lateness > 0 this
/// implements the speculative strategy: results appear immediately and are
/// amended as stragglers arrive.
///
/// Two result-equivalent execution engines (Options::engine):
///
///  * kHot (default) — light aggregate kinds fold into inline
///    `AggregateState`s (no virtual dispatch, no per-window heap
///    accumulator) stored in a `FlatWindowStore` (O(1) amortized lookup).
///    Fold dispatch is resolved once per batch, and for exactly-tiling
///    sliding windows each batch is folded once per pane run and merged
///    into the covering windows when that is bit-exact (count/min/max).
///    Median and quantile windows whose size is a multiple of the slide
///    (tumbling included) keep one sorted value run per (pane, key): the
///    slot at (start p, key) holds only the values with event time in
///    [p, p + slide), and a window's value is the order statistic selected
///    across the runs of its size/slide panes (InterpolateRuns), with no
///    merge and no copy. The window's own pane keeps the value it last
///    selected, and a revision selects again starting from it. Other
///    heavy cases (distinct, non-tiling quantiles) keep one polymorphic
///    accumulator per window slot.
///  * kAmend — the same inline-state hot path over an `AmendWindowStore`
///    (finger-hinted B-tree over window starts) instead of the slide-
///    aligned ring: tuples may reach OnEvent *out of order* and amend
///    already-materialized window state directly, which is what the
///    speculative emit-then-amend execution mode feeds it. Behind an
///    identical disorder handler it is byte-identical to kHot.
///
/// Both are pinned byte-for-byte against the std::map + virtual-Aggregator
/// reference in tests/reference/.
class WindowedAggregation : public EventSink {
 public:
  /// Execution engine selection. Both engines produce byte-identical
  /// results and stats under the same sink-call sequence.
  enum class Engine {
    kHot,
    kAmend,
  };

  struct Options {
    WindowSpec window = WindowSpec::Tumbling(Seconds(1));
    AggregateSpec aggregate;

    /// How long after a window's end (in event time) late tuples may still
    /// amend it. 0 = late tuples beyond the watermark are dropped.
    DurationUs allowed_lateness = 0;

    /// If true, every late tuple that amends an already-fired window
    /// triggers an immediate revision emission. If false, amendments
    /// accumulate silently and a single revision fires when the window is
    /// purged (batch refinement).
    bool emit_revision_per_update = true;

    /// If true, windows fire on per-key watermarks (OnKeyedWatermark) from
    /// a KeyedDisorderHandler: key k's windows close as soon as key k's own
    /// progress allows, instead of waiting for the slowest key's merged
    /// watermark. Purging still follows the merged watermark.
    bool per_key_watermarks = false;

    Engine engine = Engine::kHot;
  };

  struct Stats {
    int64_t events = 0;
    int64_t late_applied = 0;   // Late tuples folded into live state.
    int64_t late_dropped = 0;   // Late tuples whose window was gone.
    int64_t windows_fired = 0;  // First emissions.
    int64_t revisions = 0;      // Amendment emissions.
    int64_t max_live_windows = 0;
  };

  WindowedAggregation(const Options& options, WindowResultSink* sink);

  /// EventSink interface (fed by a DisorderHandler).
  void OnEvent(const Event& e) override;
  void OnEvents(std::span<const Event> events) override;
  void OnWatermark(TimestampUs watermark, TimestampUs stream_time) override;
  void OnKeyedWatermark(int64_t key, TimestampUs watermark,
                        TimestampUs stream_time) override;
  void OnLateEvent(const Event& e) override;

  const Stats& stats() const { return stats_; }
  const Options& options() const { return options_; }

  /// Number of window instances currently holding state.
  size_t live_windows() const {
    return store_ != nullptr ? store_->size() : amend_store_->size();
  }

  /// True when this instance runs the devirtualized inline-state fold (a
  /// light aggregate kind).
  bool uses_inline_states() const { return inline_kind_; }

  /// True when batches are folded once per pane run and merged: a light
  /// kind whose partials merge bit-exactly (count/min/max) over an
  /// exactly-tiling sliding window.
  bool uses_pane_sharing() const { return pane_active_; }

  /// True when each value is stored once, in its pane's sorted run, and
  /// windows select their order statistic across runs: median or quantile
  /// with size a multiple of the slide.
  bool uses_pane_runs() const { return pane_runs_; }

  /// Installs a read-only instrumentation observer (nullptr = none). Same
  /// zero-cost-when-off contract as DisorderHandler::set_observer.
  void set_observer(PipelineObserver* observer) { observer_ = observer; }

  /// Fold-plan table ways: each key memoizes its covering-window slots in
  /// one of these, so up to this many interleaved keys keep their plans
  /// (fewer when keys share a way).
  static constexpr int kPlanWayBits = 4;
  static constexpr int kPlanWays = 1 << kPlanWayBits;

  /// The plan way of `key`: the top bits of a Fibonacci multiplicative
  /// hash. Keys of one shard share their low bits, so `key & mask` would
  /// collide.
  static size_t PlanWayOf(int64_t key) {
    return static_cast<size_t>(
        (static_cast<uint64_t>(key) * 0x9E3779B97F4A7C15ull) >>
        (64 - kPlanWayBits));
  }

 private:
  // One body of code, two stores: the fold, watermark and late paths are
  // templated on the store type (FlatWindowStore for kHot, AmendWindowStore
  // for kAmend — same Bucket/Slot/Visit vocabulary) and bound once, at
  // construction, into the member-function pointers the entry points call.

  using Slot = FlatWindowStore::Slot;

  /// Memo of one key's covering-window slots. All events with event_time
  /// in [valid_begin, valid_end) and the same key share the same
  /// covering-window set, so they skip window assignment and state lookup
  /// entirely. Plans live in a direct-mapped table of kPlanWays, indexed
  /// by PlanWayOf(key), so interleaved keys each keep their own memo.
  /// Slot pointers are revalidated against the store's epoch: any
  /// insertion or purge (late events, watermarks, another key's rebuild)
  /// invalidates the slots of every plan instead of leaving them dangling.
  struct FoldPlan {
    static constexpr int kMaxWindows = 64;
    static constexpr int kInvalid = -1;
    /// The (interval, key) is valid but the covering set is too large to
    /// memoize; fold via ForEachWindow.
    static constexpr int kOversized = -2;

    TimestampUs valid_begin = 0;
    TimestampUs valid_end = 0;  // Empty interval == never hits.
    int64_t key = 0;
    uint64_t epoch = 0;
    int num = kInvalid;
    Slot* slots[kMaxWindows];
  };

  static bool PlanHits(const FoldPlan& plan, const Event& e,
                       uint64_t store_epoch) {
    return e.event_time >= plan.valid_begin &&
           e.event_time < plan.valid_end && e.key == plan.key &&
           plan.num != FoldPlan::kInvalid &&
           (plan.num == FoldPlan::kOversized || plan.epoch == store_epoch);
  }
  /// `e`'s plan, rebuilt first if it misses.
  template <class Store>
  FoldPlan& PlanOf(Store* store, const Event& e);
  /// The engine's store instance (FlatWindowStore under kHot,
  /// AmendWindowStore under kAmend).
  template <class Store>
  Store* GetStore();
  template <class Store>
  void RebuildPlan(FoldPlan& plan, Store* store, TimestampUs ts, int64_t key);
  template <class Store>
  Slot* GetOrCreateSlot(Store* store, TimestampUs window_start, int64_t key);
  template <class Store>
  void EmitSlot(Store* store, TimestampUs window_start, Slot& slot,
                TimestampUs now, bool revision);
  /// Fills runs_ with the sorted runs of the panes of window
  /// [window_start, window_start + size) for `slot`'s key; returns their
  /// total size. `slot` is the window's own (first) pane.
  template <class Store>
  int64_t GatherRuns(Store* store, TimestampUs window_start, const Slot& slot);
  /// Folds one value into a slot with runtime kind dispatch (cold paths:
  /// late events, plan-miss fallbacks for heavy kinds).
  void FoldValueDyn(Slot& slot, double v);

  template <AggKind K, class Store>
  void FoldEventHot(const Event& e);
  template <AggKind K, class Store>
  void FoldBatchHot(std::span<const Event> events);
  template <AggKind K, class Store>
  void FoldBatchPaned(std::span<const Event> events);
  template <class Store>
  void FoldEventHeavy(const Event& e);
  template <class Store>
  void FoldBatchHeavy(std::span<const Event> events);
  template <class Store>
  void FoldEventRun(const Event& e);
  template <class Store>
  void FoldBatchRun(std::span<const Event> events);
  template <AggKind K, class Store>
  void BindHotFns();
  /// Resolves all engine entry points for one store type (kind switch for
  /// the fold pair, direct binds for watermark/late paths).
  template <class Store>
  void BindEngine();

  /// Smallest window start whose end is past the fire frontier.
  TimestampUs FirstUnfiredStart() const;
  template <class Store>
  void HotOnWatermark(TimestampUs watermark, TimestampUs stream_time);
  template <class Store>
  void HotOnKeyedWatermark(int64_t key, TimestampUs watermark,
                           TimestampUs stream_time);
  template <class Store>
  void HotOnLateEvent(const Event& e);

  Options options_;
  WindowResultSink* sink_;
  AggregateSpec agg_spec_;
  TimestampUs last_watermark_ = kMinTimestamp;
  /// Fire frontier: every slot of a bucket whose window end is <=
  /// fired_through_ has fired. Raised to the watermark after each firing
  /// scan, lowered when a slot is created behind it; firing scans start
  /// past it instead of rewalking fired windows kept for allowed lateness.
  TimestampUs fired_through_ = kMinTimestamp;
  Stats stats_;
  PipelineObserver* observer_ = nullptr;

  // Engine state. Fold and watermark dispatch are resolved once, at
  // construction (one member-function-pointer indirection per event / per
  // batch instead of a virtual call per tuple per window, and no per-call
  // engine branches).
  std::unique_ptr<FlatWindowStore> store_;        // kHot only.
  std::unique_ptr<AmendWindowStore> amend_store_;  // kAmend only.
  bool inline_kind_ = false;
  bool pane_active_ = false;
  bool pane_runs_ = false;
  double run_q_ = 0.5;  // Quantile selected across pane runs.
  std::vector<std::span<const double>> runs_;  // GatherRuns scratch.
  FoldPlan plans_[kPlanWays];
  void (WindowedAggregation::*one_fn_)(const Event&) = nullptr;
  void (WindowedAggregation::*batch_fn_)(std::span<const Event>) = nullptr;
  void (WindowedAggregation::*wm_fn_)(TimestampUs, TimestampUs) = nullptr;
  void (WindowedAggregation::*kwm_fn_)(int64_t, TimestampUs, TimestampUs) =
      nullptr;
  void (WindowedAggregation::*late_fn_)(const Event&) = nullptr;
};

template <>
inline FlatWindowStore* WindowedAggregation::GetStore<FlatWindowStore>() {
  return store_.get();
}
template <>
inline AmendWindowStore* WindowedAggregation::GetStore<AmendWindowStore>() {
  return amend_store_.get();
}

}  // namespace streamq

#endif  // STREAMQ_WINDOW_WINDOW_OPERATOR_H_
