#ifndef STREAMQ_WINDOW_FLAT_WINDOW_STORE_H_
#define STREAMQ_WINDOW_FLAT_WINDOW_STORE_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "agg/aggregate.h"
#include "agg/aggregate_state.h"
#include "common/time.h"
#include "window/window.h"

namespace streamq {

/// Flat per-(window-start, key) state store for the window-operator hot
/// path, replacing the node-based std::map<(start, key), state>:
///
///  * Window starts are multiples of the slide, so the time dimension is a
///    ring of slide-aligned buckets indexed by start/slide modulo a
///    power-of-two capacity. Locating a bucket is a shift-and-mask; the
///    ring grows geometrically when the live start span outgrows it
///    (bucket objects are heap-owned, so growth never moves a bucket).
///    A span that is mostly empty — an idle gap with a window still live
///    on each side — does not size the ring: past kDenseSpanFactor cells
///    per live bucket the ring stops covering the span and colliding
///    starts chain off their cell, so memory and scans track live buckets,
///    not elapsed event time.
///  * Within a bucket, keys live in an open-addressing probe table mapping
///    key -> dense slot index. Slots are appended in first-touch order and
///    never erased individually — a bucket dies as a whole when its window
///    retires — so dense indices are stable for a bucket's lifetime.
///  * Firing and purging need an ordered (start, key) scan: Scan() walks
///    buckets in ascending start order from a start bound (cell by cell
///    while the ring covers the span, through a sorted list of live starts
///    otherwise), and SortedByKey() lazily materializes a key-sorted view
///    of a bucket's slots (cached until the next insertion).
///
/// Lookup is O(1) amortized per tuple; the ordered scan work is
/// proportional to live buckets, as before.
///
/// Pointer stability: Slot pointers are invalidated by insertions into the
/// same bucket (dense vector growth) and by bucket purges. Every such
/// mutation bumps epoch(); callers caching Slot pointers (the operator's
/// fold-plan memo) must revalidate against it.
class FlatWindowStore {
 public:
  struct Slot {
    AggregateState state;              // Inline aggregate kinds.
    std::unique_ptr<Aggregator> acc;   // Heavy kinds only; null otherwise.
    int64_t key = 0;
    int32_t revisions = 0;
    bool fired = false;
    bool dirty_since_fire = false;
  };

  class Bucket {
   public:
    TimestampUs start() const { return start_; }
    size_t size() const { return slots_.size(); }
    Slot& slot(uint32_t dense_index) { return slots_[dense_index]; }

    /// O(1) expected; nullptr if the key has no state here.
    Slot* Find(int64_t key);

    /// Dense slot indices in ascending key order. Lazily rebuilt after
    /// insertions; firing scans are the only consumers.
    const std::vector<uint32_t>& SortedByKey();

   private:
    friend class FlatWindowStore;
    // The amend store (amend_window_store.h) reuses Bucket verbatim so the
    // two engines share Slot layout, probe tables and the FoldPlan memo
    // contract; it needs the same insert/start access this store has.
    friend class AmendWindowStore;

    Slot* Insert(int64_t key);  // Key must be absent.
    void Rehash(size_t new_capacity);

    TimestampUs start_ = 0;
    std::unique_ptr<Bucket> next_;    // Ring-cell collision chain.
    std::vector<Slot> slots_;         // First-touch order; indices stable.
    std::vector<uint32_t> probe_;     // Power-of-two; value = index + 1.
    std::vector<uint32_t> by_key_;    // Key-sorted dense indices (lazy).
    bool by_key_valid_ = false;
  };

  /// What a Scan visitor tells the store to do with the visited bucket.
  enum class Visit {
    kKeep,   // Leave the bucket; continue with the next start.
    kPurge,  // Remove the bucket (all its slots); continue scanning.
    kStop,   // Leave the bucket and end the scan (monotone early-out).
  };

  explicit FlatWindowStore(DurationUs slide);

  /// Returns the state slot for (start, key), creating bucket and slot as
  /// needed. `*created` reports whether the slot is new (the caller
  /// initializes heavy accumulators). `start` must be a multiple of the
  /// slide, as produced by window assignment.
  Slot* GetOrCreate(TimestampUs start, int64_t key, bool* created);

  /// Lookup without creation; nullptr if absent.
  Slot* Find(TimestampUs start, int64_t key);

  /// Visits live buckets with start >= `from` (kMinTimestamp: all of
  /// them) in ascending window-start order. The visitor returns a Visit
  /// action; purged buckets are removed mid-scan (their slots die with
  /// them). The visitor may Find any live bucket; it must not insert.
  template <typename Fn>
  void Scan(TimestampUs from, Fn&& fn) {
    if (live_buckets_ == 0) return;
    auto visit = [&](int64_t q) {
      Bucket* b = BucketAt(q);
      if (b == nullptr) return true;
      const Visit action = fn(*b);
      if (action == Visit::kPurge) RemoveBucket(q);
      return action != Visit::kStop;
    };
    // First quotient whose start is >= from (no division for a bound at
    // or before the first live start). Truncation already rounds negative
    // quotients up; a positive remainder needs one more.
    int64_t q_from = q_min_;
    if (from > q_min_ * slide_) {
      q_from = from / slide_ + (from % slide_ > 0 ? 1 : 0);
    }
    if (CoversSpan()) {
      for (int64_t q = q_from; q <= q_max_ && visit(q); ++q) {
      }
      TrimFront();
    } else {
      SortLiveQuotients();
      for (auto it = std::lower_bound(sorted_q_.begin(), sorted_q_.end(),
                                      q_from);
           it != sorted_q_.end() && visit(*it); ++it) {
      }
      TrimToSorted();
    }
  }

  /// Live (start, key) states across all buckets.
  size_t size() const { return slot_count_; }
  size_t live_buckets() const { return live_buckets_; }

  /// Bumped on every slot insertion and bucket purge — any mutation that
  /// can invalidate a cached Slot pointer.
  uint64_t epoch() const { return epoch_; }

 private:
  /// Ring cells per live bucket beyond which the ring stops growing to
  /// cover the live start span.
  static constexpr uint64_t kDenseSpanFactor = 16;

  size_t IndexOf(int64_t q) const {
    return static_cast<size_t>(static_cast<uint64_t>(q) &
                               (ring_.size() - 1));
  }
  Bucket* BucketAt(int64_t q) const {
    const TimestampUs start = q * slide_;
    Bucket* b = ring_[IndexOf(q)].get();
    while (b != nullptr && b->start_ != start) b = b->next_.get();
    return b;
  }
  static uint64_t Span(int64_t lo, int64_t hi) {
    return static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo) + 1;
  }
  /// Every live start has its own ring cell (no chains), so a cell-by-cell
  /// walk over [q_min_, q_max_] visits buckets in start order.
  bool CoversSpan() const { return Span(q_min_, q_max_) <= ring_.size(); }

  Bucket* GetOrCreateBucket(TimestampUs start);
  void RemoveBucket(int64_t q);
  void MaybeGrow(uint64_t span);  // Before inserting one more bucket.
  void SortLiveQuotients();       // Fills sorted_q_ from the ring.
  void TrimFront();     // Advances q_min_ past purged buckets.
  void TrimToSorted();  // Shrinks [q_min_, q_max_] to the live sorted_q_.

  DurationUs slide_;
  std::vector<std::unique_ptr<Bucket>> ring_;  // Power-of-two capacity.
  std::vector<int64_t> sorted_q_;  // Scan scratch when !CoversSpan().
  int64_t q_min_ = 0;   // Valid iff live_buckets_ > 0.
  int64_t q_max_ = -1;
  size_t live_buckets_ = 0;
  size_t slot_count_ = 0;
  uint64_t epoch_ = 0;
};

}  // namespace streamq

#endif  // STREAMQ_WINDOW_FLAT_WINDOW_STORE_H_
