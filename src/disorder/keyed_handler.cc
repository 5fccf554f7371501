#include "disorder/keyed_handler.h"

#include <algorithm>

#include "common/logging.h"
#include "core/pipeline_observer.h"

namespace streamq {

namespace {

/// Fibonacci multiplicative hash (same mix as FlatWindowStore): spreads
/// sequential keys across the probe table.
inline size_t MixKey(int64_t key) {
  uint64_t h = static_cast<uint64_t>(key) * 0x9E3779B97F4A7C15ull;
  h ^= h >> 32;
  return static_cast<size_t>(h);
}

constexpr size_t kInitialProbeCapacity = 16;

}  // namespace

/// One key's inner handler plus the sink adapter that captures its
/// watermarks (which must not reach downstream directly: only the merged
/// minimum may).
struct KeyedDisorderHandler::Shard {
  class Intercept : public EventSink {
   public:
    Intercept(KeyedDisorderHandler* outer, Shard* shard)
        : outer_(outer), shard_(shard) {}

    void OnEvent(const Event& e) override {
      // Only non-buffering inner handlers (pass-through) emit per-event;
      // they forward the tuple being processed, so its own arrival time is
      // "now".
      outer_->RecordRelease(e, e.arrival_time);
      out_->OnEvent(e);
    }

    /// A forwarded run from a non-buffering inner handler (speculative):
    /// the tuples never occupied a buffer, so each is released at its own
    /// arrival, exactly as the per-tuple OnEvent above accounts it. The
    /// buffering handlers release through the stream-time overload.
    void OnEvents(std::span<const Event> events) override {
      for (const Event& e : events) {
        outer_->RecordRelease(e, e.arrival_time);
      }
      out_->OnEvents(events);
    }

    void OnEvents(std::span<const Event> events,
                  TimestampUs stream_time) override {
      if (events.empty()) return;
      // Charged at the inner handler's own "now", as it charged itself:
      // the arrival (or heartbeat) that triggered the release, or on flush
      // the key's last activity. So the wrapper's stats fold exactly the
      // series the inner handlers report to the observer.
      for (const Event& e : events) outer_->RecordRelease(e, stream_time);
      // Occupancy just before this release: the released tuples were still
      // buffered, and the arrival that triggered the release had already
      // been inserted. Sampling `pre - 1` here plus the end-of-run total in
      // FinishShardOp reproduces the per-event occupancy maximum exactly
      // (occupancy only rises between releases).
      outer_->ObserveOccupancy(run_base_ + shard_->handler->buffered() +
                               events.size() - 1);
      out_->OnEvents(events);
    }

    void OnWatermark(TimestampUs watermark, TimestampUs stream_time) override {
      if (watermark > shard_->watermark) {
        shard_->watermark = watermark;
        outer_->RaiseShardWatermark(shard_);
        out_->OnKeyedWatermark(shard_->key, watermark, stream_time);
        // During heartbeat/flush fan-out the merged emission is deferred to
        // a single end-of-loop check; on the event path it happens here, at
        // exactly the per-event emission point (at most one watermark move
        // per tuple).
        if (!defer_merged_) {
          outer_->EmitMergedIfAdvanced(stream_time, out_);
        }
      }
    }

    void OnLateEvent(const Event& e) override {
      ++outer_->stats_.events_late;
      out_->OnLateEvent(e);
    }

    /// Per-shard-op context: the downstream sink, merged-emission mode,
    /// and the occupancy of all *other* shards at op start.
    void Arm(EventSink* out, bool defer_merged, size_t run_base) {
      out_ = out;
      defer_merged_ = defer_merged;
      run_base_ = run_base;
    }

    size_t run_base() const { return run_base_; }

   private:
    KeyedDisorderHandler* outer_;
    Shard* shard_;
    EventSink* out_ = nullptr;
    bool defer_merged_ = false;
    size_t run_base_ = 0;
  };

  Shard(KeyedDisorderHandler* outer, int64_t shard_key)
      : key(shard_key), intercept(outer, this) {}

  int64_t key;
  std::unique_ptr<DisorderHandler> handler;
  TimestampUs watermark = kMinTimestamp;
  /// Cached occupancy contribution (see FinishShardOp).
  size_t last_buffered = 0;
  /// Inner events_dropped already mirrored into the keyed stats. Drops
  /// (e.g. a watermark reorderer discarding beyond allowed lateness) never
  /// reach the intercept, so they must be reconciled from the inner stats.
  int64_t last_dropped = 0;
  /// This shard's position in wm_queue_.
  size_t wm_pos = 0;
  Intercept intercept;
};

KeyedDisorderHandler::KeyedDisorderHandler(HandlerFactory factory)
    : factory_(std::move(factory)) {
  STREAMQ_CHECK(factory_ != nullptr);
}

KeyedDisorderHandler::~KeyedDisorderHandler() = default;

KeyedDisorderHandler::Shard* KeyedDisorderHandler::FindShard(
    int64_t key) const {
  if (probe_.empty()) return nullptr;
  const size_t mask = probe_.size() - 1;
  size_t idx = MixKey(key) & mask;
  while (true) {
    const uint32_t slot = probe_[idx];
    if (slot == 0) return nullptr;
    Shard* s = shards_[slot - 1].get();
    if (s->key == key) return s;
    idx = (idx + 1) & mask;
  }
}

void KeyedDisorderHandler::InsertProbe(uint32_t dense_index) {
  const size_t mask = probe_.size() - 1;
  size_t idx = MixKey(shards_[dense_index]->key) & mask;
  while (probe_[idx] != 0) idx = (idx + 1) & mask;
  probe_[idx] = dense_index + 1;
}

void KeyedDisorderHandler::RehashProbe(size_t new_capacity) {
  probe_.assign(new_capacity, 0);
  for (size_t i = 0; i < shards_.size(); ++i) {
    InsertProbe(static_cast<uint32_t>(i));
  }
}

KeyedDisorderHandler::Shard* KeyedDisorderHandler::Route(int64_t key) {
  Shard* shard = FindShard(key);
  if (shard == nullptr) {
    // Keep the probe table under 70% load.
    if ((shards_.size() + 1) * 10 >= probe_.size() * 7) {
      RehashProbe(probe_.empty() ? kInitialProbeCapacity : probe_.size() * 2);
    }
    auto owned = std::make_unique<Shard>(this, key);
    owned->handler = factory_();
    STREAMQ_CHECK(owned->handler != nullptr);
    if (shard_observer_ != nullptr) {
      owned->handler->set_observer(shard_observer_);
    }
    if (max_slack_ > 0) {
      owned->handler->set_max_slack(max_slack_);
    }
    shard = owned.get();
    shards_.push_back(std::move(owned));
    InsertProbe(static_cast<uint32_t>(shards_.size() - 1));
    shard->last_buffered = shard->handler->buffered();
    buffered_total_ += shard->last_buffered;
    shard->wm_pos = wm_queue_.size();
    wm_queue_.push_back(static_cast<uint32_t>(shards_.size() - 1));
    WmHeapSiftUp(shard->wm_pos);
    by_key_dirty_ = true;
  }
  last_key_ = key;
  last_shard_ = shard;
  return shard;
}

const std::vector<uint32_t>& KeyedDisorderHandler::SortedByKey() const {
  if (by_key_dirty_) {
    by_key_.resize(shards_.size());
    for (size_t i = 0; i < by_key_.size(); ++i) {
      by_key_[i] = static_cast<uint32_t>(i);
    }
    std::sort(by_key_.begin(), by_key_.end(), [this](uint32_t a, uint32_t b) {
      return shards_[a]->key < shards_[b]->key;
    });
    by_key_dirty_ = false;
  }
  return by_key_;
}

void KeyedDisorderHandler::FinishShardOp(Shard* shard) {
  const size_t b = shard->handler->buffered();
  buffered_total_ = shard->intercept.run_base() + b;
  shard->last_buffered = b;
  ObserveOccupancy(buffered_total_);
  // Mirror silent inner drops (counted late+dropped there, no sink
  // callback) so the keyed conservation identity in == out + late + shed
  // stays exact.
  const int64_t dropped = shard->handler->stats().events_dropped;
  if (dropped != shard->last_dropped) {
    stats_.events_late += dropped - shard->last_dropped;
    stats_.events_dropped += dropped - shard->last_dropped;
    shard->last_dropped = dropped;
  }
}

void KeyedDisorderHandler::ObserveOccupancy(size_t occupancy) {
  if (static_cast<int64_t>(occupancy) > stats_.max_buffer_size) {
    stats_.max_buffer_size = static_cast<int64_t>(occupancy);
  }
}

bool KeyedDisorderHandler::MakeRoomForArrival(const Event& e,
                                              EventSink* sink) {
  if (shed_policy_ == ShedPolicy::kDropNewest) {
    ++stats_.events_in;
    ++stats_.events_shed;
    last_stream_time_ = std::max(last_stream_time_, e.arrival_time);
    if (shard_observer_ != nullptr) {
      shard_observer_->OnShed(1, shed_policy_);
    }
    return false;
  }
  // Shed one tuple from the fullest shard through its armed intercept, so
  // releases, per-key watermarks and the merged minimum all follow the
  // normal bookkeeping.
  Shard* donor = shed_donor_;
  if (donor == nullptr || donor->last_buffered == 0) {
    donor = nullptr;
    for (const auto& s : shards_) {
      if (donor == nullptr || s->last_buffered > donor->last_buffered) {
        donor = s.get();
      }
    }
    shed_donor_ = donor;
  }
  if (donor == nullptr || donor->last_buffered == 0) {
    // Aggregate says full but no shard holds tuples — cannot happen; be
    // permissive rather than wedge the stream.
    return true;
  }
  donor->intercept.Arm(sink, /*defer_merged=*/false,
                       buffered_total_ - donor->last_buffered);
  const size_t shed = donor->handler->ShedToOccupancy(
      donor->last_buffered - 1, shed_policy_, e.arrival_time,
      &donor->intercept);
  FinishShardOp(donor);
  // Mirror the inner handler's accounting at the keyed level (the inner
  // stats are not merged upward; the intercept already counted any
  // emit-early releases in events_out). The inner handler also notified
  // the observer, so no OnShed here.
  if (shed_policy_ == ShedPolicy::kEmitEarly) {
    stats_.events_force_released += static_cast<int64_t>(shed);
  } else {
    stats_.events_shed += static_cast<int64_t>(shed);
  }
  return true;
}

void KeyedDisorderHandler::OnEvent(const Event& e, EventSink* sink) {
  if (max_buffered_events_ != 0 &&
      buffered_total_ >= max_buffered_events_) [[unlikely]] {
    if (!MakeRoomForArrival(e, sink)) return;
  }
  ++stats_.events_in;
  last_stream_time_ = std::max(last_stream_time_, e.arrival_time);
  Shard* shard = (last_shard_ != nullptr && last_key_ == e.key)
                     ? last_shard_
                     : Route(e.key);
  shard->intercept.Arm(sink, /*defer_merged=*/false,
                       buffered_total_ - shard->last_buffered);
  shard->handler->OnEvent(e, &shard->intercept);
  FinishShardOp(shard);
}

void KeyedDisorderHandler::OnBatch(std::span<const Event> batch,
                                   EventSink* sink) {
  const size_t n = batch.size();
  size_t i = 0;
  while (i < n) {
    const int64_t key = batch[i].key;
    TimestampUs run_max_arrival = batch[i].arrival_time;
    size_t j = i + 1;
    while (j < n && batch[j].key == key) {
      run_max_arrival = std::max(run_max_arrival, batch[j].arrival_time);
      ++j;
    }
    if (max_buffered_events_ != 0 &&
        buffered_total_ + (j - i) > max_buffered_events_) [[unlikely]] {
      // The run could overflow the global budget mid-way; fall back to
      // per-event dispatch so every arrival makes its own room. (When the
      // whole run provably fits — each arrival adds at most one buffered
      // tuple — the fast path below cannot violate the cap.)
      for (size_t k = i; k < j; ++k) OnEvent(batch[k], sink);
      i = j;
      continue;
    }
    stats_.events_in += static_cast<int64_t>(j - i);
    last_stream_time_ = std::max(last_stream_time_, run_max_arrival);
    Shard* shard =
        (last_shard_ != nullptr && last_key_ == key) ? last_shard_
                                                     : Route(key);
    shard->intercept.Arm(sink, /*defer_merged=*/false,
                         buffered_total_ - shard->last_buffered);
    shard->handler->OnBatch(batch.subspan(i, j - i), &shard->intercept);
    FinishShardOp(shard);
    i = j;
  }
}

void KeyedDisorderHandler::OnHeartbeat(TimestampUs event_time_bound,
                                       TimestampUs stream_time,
                                       EventSink* sink) {
  last_stream_time_ = std::max(last_stream_time_, stream_time);
  for (const uint32_t idx : SortedByKey()) {
    Shard* shard = shards_[idx].get();
    shard->intercept.Arm(sink, /*defer_merged=*/true,
                         buffered_total_ - shard->last_buffered);
    shard->handler->OnHeartbeat(event_time_bound, stream_time,
                                &shard->intercept);
    FinishShardOp(shard);
  }
  if (!shards_.empty()) EmitMergedIfAdvanced(stream_time, sink);
}

void KeyedDisorderHandler::Flush(EventSink* sink) {
  for (const uint32_t idx : SortedByKey()) {
    Shard* shard = shards_[idx].get();
    shard->intercept.Arm(sink, /*defer_merged=*/true,
                         buffered_total_ - shard->last_buffered);
    shard->handler->Flush(&shard->intercept);
    FinishShardOp(shard);
  }
  merged_watermark_ = kMaxTimestamp;
  sink->OnWatermark(kMaxTimestamp, last_stream_time_);
}

void KeyedDisorderHandler::RaiseShardWatermark(Shard* shard) {
  WmHeapSiftDown(shard->wm_pos);
}

void KeyedDisorderHandler::WmHeapSiftUp(size_t pos) {
  const uint32_t idx = wm_queue_[pos];
  const TimestampUs w = shards_[idx]->watermark;
  while (pos > 0) {
    const size_t parent = (pos - 1) / 2;
    if (shards_[wm_queue_[parent]]->watermark <= w) break;
    wm_queue_[pos] = wm_queue_[parent];
    shards_[wm_queue_[pos]]->wm_pos = pos;
    pos = parent;
  }
  wm_queue_[pos] = idx;
  shards_[idx]->wm_pos = pos;
}

void KeyedDisorderHandler::WmHeapSiftDown(size_t pos) {
  const size_t n = wm_queue_.size();
  const uint32_t idx = wm_queue_[pos];
  const TimestampUs w = shards_[idx]->watermark;
  while (true) {
    const size_t left = 2 * pos + 1;
    const size_t right = left + 1;
    size_t smallest = pos;
    TimestampUs sw = w;
    if (left < n && shards_[wm_queue_[left]]->watermark < sw) {
      smallest = left;
      sw = shards_[wm_queue_[left]]->watermark;
    }
    if (right < n && shards_[wm_queue_[right]]->watermark < sw) {
      smallest = right;
    }
    if (smallest == pos) break;
    wm_queue_[pos] = wm_queue_[smallest];
    shards_[wm_queue_[pos]]->wm_pos = pos;
    pos = smallest;
  }
  wm_queue_[pos] = idx;
  shards_[idx]->wm_pos = pos;
}

void KeyedDisorderHandler::EmitMergedIfAdvanced(TimestampUs stream_time,
                                                EventSink* sink) {
  const TimestampUs merged = shards_[wm_queue_.front()]->watermark;
  if (merged != kMinTimestamp &&
      (merged_watermark_ == kMinTimestamp || merged > merged_watermark_)) {
    merged_watermark_ = merged;
    sink->OnWatermark(merged_watermark_, stream_time);
  }
}

DurationUs KeyedDisorderHandler::current_slack() const {
  if (shards_.empty()) return 0;
  int64_t slack_sum = 0;
  for (const auto& shard : shards_) {
    slack_sum += shard->handler->current_slack();
  }
  return static_cast<DurationUs>(static_cast<double>(slack_sum) /
                                 static_cast<double>(shards_.size()));
}

size_t KeyedDisorderHandler::buffered() const { return buffered_total_; }

void KeyedDisorderHandler::set_observer(PipelineObserver* observer) {
  shard_observer_ = observer;
  for (const auto& shard : shards_) {
    shard->handler->set_observer(observer);
  }
}

void KeyedDisorderHandler::set_buffer_cap(size_t max_buffered_events,
                                          ShedPolicy policy) {
  // Deliberately NOT propagated to the shards: the cap is one global
  // budget, enforced here, not a per-key allowance.
  max_buffered_events_ = max_buffered_events;
  shed_policy_ = policy;
}

void KeyedDisorderHandler::set_max_slack(DurationUs max_slack) {
  max_slack_ = max_slack < 0 ? 0 : max_slack;
  for (const auto& shard : shards_) {
    shard->handler->set_max_slack(max_slack_);
  }
}

const DisorderHandler* KeyedDisorderHandler::shard(int64_t key) const {
  const Shard* s = FindShard(key);
  return s == nullptr ? nullptr : s->handler.get();
}

}  // namespace streamq
