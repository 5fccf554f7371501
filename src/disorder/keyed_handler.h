#ifndef STREAMQ_DISORDER_KEYED_HANDLER_H_
#define STREAMQ_DISORDER_KEYED_HANDLER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "disorder/disorder_handler.h"

namespace streamq {

/// Per-key disorder handling: one inner handler instance per key, with the
/// output watermark taken as the *minimum* over per-key watermarks.
///
/// When keys have heterogeneous delay distributions (sources behind
/// different gateways), one global buffer must be sized for the worst key —
/// every key pays the slowest key's latency. Per-key buffers let each key
/// run at its own quantile. The costs: state per key, and the merged
/// watermark trails the slowest key (an idle key stalls it — feed
/// heartbeats to advance idle keys; OnHeartbeat fans out to every inner
/// handler).
///
/// Output contract: OnEvent calls are event-time ordered *per key* (not
/// globally), and every emitted event is >= the last emitted merged
/// watermark. This is exactly what keyed window state needs; downstream
/// operators that require global order should use a global handler.
///
/// Data layout (see DESIGN.md §9): shards live in a dense vector routed
/// through an open-addressing probe table (same idiom as FlatWindowStore),
/// so the per-tuple path is one hash + one probe instead of a std::map
/// walk. The merged minimum watermark is kept in a position-indexed binary
/// min-heap over shard watermarks (O(log #keys) when a shard's watermark
/// rises, O(1) to read), and `buffered()` is an O(1) read of an
/// incrementally maintained total. OnBatch segments a batch
/// into consecutive same-key runs and hands each run to the inner
/// handler's OnBatch, preserving the per-event sink sequence exactly.
class KeyedDisorderHandler : public DisorderHandler {
 public:
  /// Builds one inner handler per key on first sight of that key.
  using HandlerFactory = std::function<std::unique_ptr<DisorderHandler>()>;

  explicit KeyedDisorderHandler(HandlerFactory factory);
  ~KeyedDisorderHandler() override;

  std::string_view name() const override { return "keyed"; }

  void OnEvent(const Event& e, EventSink* sink) override;
  void OnBatch(std::span<const Event> batch, EventSink* sink) override;
  void OnHeartbeat(TimestampUs event_time_bound, TimestampUs stream_time,
                   EventSink* sink) override;
  void Flush(EventSink* sink) override;

  /// Mean of per-key slacks (instrumentation; keys may differ wildly).
  /// O(#keys): sums the shards' slacks on each call, which keeps the
  /// per-tuple path free of slack bookkeeping.
  DurationUs current_slack() const override;

  /// Total buffered tuples across shards. O(1): incrementally maintained.
  size_t buffered() const override;

  /// Number of distinct keys seen.
  size_t key_count() const { return shards_.size(); }

  /// Inner handler for `key`, or nullptr if the key was never seen.
  const DisorderHandler* shard(int64_t key) const;

  /// Propagates the observer to every inner handler, existing and future.
  /// The outer handler itself stays unobserved: every release already
  /// notifies through the inner handler that produced it, and observing
  /// both layers would double-count latencies and late events. The wrapper
  /// charges each release at the inner handler's own "now" (on flush, the
  /// key's last activity), so the observed latency series folds to exactly
  /// its `buffering_latency_us`, and runner sharding cannot change it.
  void set_observer(PipelineObserver* observer) override;

  /// Global buffer budget across all keys: the keyed handler enforces the
  /// cap itself (the inner handlers stay uncapped) by shedding from the
  /// fullest shard before dispatching an arrival that would overflow it.
  void set_buffer_cap(size_t max_buffered_events, ShedPolicy policy) override;

  /// Propagates the adaptive-K clamp to every inner handler, existing and
  /// future.
  void set_max_slack(DurationUs max_slack) override;

 private:
  struct Shard;

  /// Returns the shard for `key`, creating it on first sight; refreshes the
  /// last-key memo.
  Shard* Route(int64_t key);
  Shard* FindShard(int64_t key) const;
  void InsertProbe(uint32_t dense_index);
  void RehashProbe(size_t new_capacity);

  /// Shard indices in ascending key order (heartbeat/flush fan-out order,
  /// matching the per-key determinism of the old ordered-map layout).
  /// Rebuilt lazily after new keys appear.
  const std::vector<uint32_t>& SortedByKey() const;

  /// Folds one shard-op's effect into the aggregates: occupancy total and
  /// peak, and the mirrored inner drops.
  void FinishShardOp(Shard* shard);
  void ObserveOccupancy(size_t occupancy);

  /// Cold path when the global budget is exhausted: sheds one tuple from
  /// the fullest shard (kEmitEarly/kDropOldest) or consumes the arrival
  /// (kDropNewest). Returns true if the caller should dispatch `e`.
  bool MakeRoomForArrival(const Event& e, EventSink* sink);

  /// Re-heaps after `shard`'s watermark rose.
  void RaiseShardWatermark(Shard* shard);
  void WmHeapSiftUp(size_t pos);
  void WmHeapSiftDown(size_t pos);

  /// Emits the merged-minimum watermark if it advanced.
  void EmitMergedIfAdvanced(TimestampUs stream_time, EventSink* sink);

  HandlerFactory factory_;
  /// Dense shard storage (stable pointers; shards are never erased) plus
  /// the open-addressing probe table: 0 = empty, else dense index + 1.
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<uint32_t> probe_;
  mutable std::vector<uint32_t> by_key_;
  mutable bool by_key_dirty_ = false;
  /// Binary min-heap of dense shard indices ordered by shard watermark;
  /// each shard stores its heap position for O(log n) increase-key.
  std::vector<uint32_t> wm_queue_;

  TimestampUs merged_watermark_ = kMinTimestamp;
  TimestampUs last_stream_time_ = 0;
  /// Memo of the last routed key: consecutive same-key arrivals skip the
  /// probe lookup (shard pointers are stable; shards are never erased).
  int64_t last_key_ = 0;
  Shard* last_shard_ = nullptr;
  /// Observer handed to every inner handler (including ones created later).
  PipelineObserver* shard_observer_ = nullptr;

  /// Global buffer budget (0 = unbounded) and the policy applied when it
  /// is exhausted.
  size_t max_buffered_events_ = 0;
  ShedPolicy shed_policy_ = ShedPolicy::kEmitEarly;
  /// Adaptive-K clamp handed to every inner handler.
  DurationUs max_slack_ = 0;
  /// Donor memo for shedding: the last known fullest shard. Reused until
  /// it empties, then rescanned — amortized O(1) under a sustained storm.
  Shard* shed_donor_ = nullptr;

  /// Buffered tuples across shards, maintained per shard op.
  size_t buffered_total_ = 0;
};

}  // namespace streamq

#endif  // STREAMQ_DISORDER_KEYED_HANDLER_H_
