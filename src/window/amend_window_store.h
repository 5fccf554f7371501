#ifndef STREAMQ_WINDOW_AMEND_WINDOW_STORE_H_
#define STREAMQ_WINDOW_AMEND_WINDOW_STORE_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/time.h"
#include "window/flat_window_store.h"
#include "window/window.h"

namespace streamq {

/// Time-indexed per-(window-start, key) state store for the amend-capable
/// window engine (`Engine::kAmend`), in the spirit of the FiBA line of
/// sliding-window aggregation structures: a shallow B-tree over
/// window-start buckets with *finger* hints, built for streams whose tuples
/// reach the operator out of order — no reorder buffer in front.
///
///  * The time dimension is a two-level B+-tree: leaves hold short sorted
///    runs of window-start buckets, the root is a sorted array of leaves
///    with a parallel min-start index for binary search. Height is
///    constant, so an arbitrary out-of-order access is two binary searches
///    over small arrays — O(log n) with tiny constants.
///  * A *back finger* tracks the frontier leaf: tuples at or past the
///    frontier (the overwhelmingly common case even in disordered streams)
///    append in amortized O(1) without touching the root index.
///  * An *amend finger* remembers the last leaf a non-frontier access
///    landed in: stragglers cluster in time, so repeated amendments to the
///    same region skip the root search (FiBA's "finger" insight: cost
///    scales with the *distance* d of the out-of-order access, not with
///    store size).
///  * Evictions are bulk: a watermark purge wave marks dead buckets during
///    the scan and each leaf compacts once (one erase per leaf, empty
///    leaves dropped in one root pass) instead of shifting per bucket.
///
/// Buckets and slots are `FlatWindowStore::Bucket`/`Slot` verbatim — same
/// key probe tables, same inline `AggregateState` payloads — so the window
/// operator's fold plans, pane-shared batch folds and emission paths work
/// unchanged over either store, and the two engines stay byte-identical.
///
/// Pointer stability and epoch() follow the FlatWindowStore contract:
/// slot insertions and bucket purges bump epoch(); cached Slot pointers
/// must revalidate against it.
class AmendWindowStore {
 public:
  using Slot = FlatWindowStore::Slot;
  using Bucket = FlatWindowStore::Bucket;
  using Visit = FlatWindowStore::Visit;

  /// `slide` is accepted for construction parity with FlatWindowStore
  /// (window starts are slide-aligned); the tree orders by raw start and
  /// needs no ring arithmetic.
  explicit AmendWindowStore(DurationUs slide);

  /// Returns the state slot for (start, key), creating bucket and slot as
  /// needed — in any time order. `*created` reports whether the slot is
  /// new (the caller initializes heavy accumulators).
  Slot* GetOrCreate(TimestampUs start, int64_t key, bool* created);

  /// Lookup without creation; nullptr if absent. Safe inside a Scan
  /// visitor for the visited bucket's start or any later one.
  Slot* Find(TimestampUs start, int64_t key);

  /// Visits live buckets with start >= `from` (kMinTimestamp: all of
  /// them) in ascending window-start order; a bound inside the stored
  /// range costs one root and one leaf binary search. The visitor returns
  /// a Visit action; kPurge removals are batched per leaf (bulk
  /// eviction), kStop ends the scan after the current bucket. The visitor
  /// may Find buckets at or after the visited one; it must not insert.
  template <typename Fn>
  void Scan(TimestampUs from, Fn&& fn) {
    if (bucket_count_ == 0) return;
    bool stopped = false;
    bool structure_changed = false;
    const size_t first = from <= leaf_min_.front() ? 0 : FindLeafIndex(from);
    for (size_t li = first; li < leaves_.size(); ++li) {
      Leaf& leaf = *leaves_[li];
      bool purged_any = false;
      auto it = leaf.buckets.begin();
      if (li == first && from > leaf_min_[li]) it = LowerBound(leaf, from);
      for (; it != leaf.buckets.end(); ++it) {
        std::unique_ptr<Bucket>& b = *it;
        const Visit action = fn(*b);
        if (action == Visit::kStop) {
          stopped = true;
          break;
        }
        if (action == Visit::kPurge) {
          slot_count_ -= b->size();
          --bucket_count_;
          ++epoch_;
          b.reset();  // Marked dead; compacted in one pass below.
          purged_any = true;
        }
      }
      if (purged_any) {
        leaf.buckets.erase(
            std::remove(leaf.buckets.begin(), leaf.buckets.end(), nullptr),
            leaf.buckets.end());
        structure_changed = true;
      }
      if (stopped) break;
    }
    if (structure_changed) CompactLeaves();
  }

  /// Live (start, key) states across all buckets.
  size_t size() const { return slot_count_; }
  size_t live_buckets() const { return bucket_count_; }

  /// Bumped on every slot insertion and bucket purge — any mutation that
  /// can invalidate a cached Slot pointer.
  uint64_t epoch() const { return epoch_; }

 private:
  struct Leaf {
    std::vector<std::unique_ptr<Bucket>> buckets;  // Ascending start.
  };

  static std::unique_ptr<Bucket> MakeBucket(TimestampUs start);
  /// First bucket of `leaf` with start >= `start`.
  static std::vector<std::unique_ptr<Bucket>>::iterator LowerBound(
      Leaf& leaf, TimestampUs start);

  Bucket* GetOrCreateBucket(TimestampUs start);
  /// Index of the leaf whose start range covers `start` (the last leaf
  /// with min start <= `start`; 0 if `start` precedes everything).
  size_t FindLeafIndex(TimestampUs start) const;
  /// Splits leaves_[li] in half, keeping root index and fingers coherent.
  void SplitLeaf(size_t li);
  /// Drops empty leaves, rebuilds the min-start index, resets fingers.
  void CompactLeaves();

  DurationUs slide_;
  std::vector<std::unique_ptr<Leaf>> leaves_;  // Ascending min start.
  std::vector<TimestampUs> leaf_min_;          // leaves_[i] min start.
  size_t finger_leaf_ = 0;  // Amend finger; valid iff bucket_count_ > 0.
  size_t bucket_count_ = 0;
  size_t slot_count_ = 0;
  uint64_t epoch_ = 0;
};

}  // namespace streamq

#endif  // STREAMQ_WINDOW_AMEND_WINDOW_STORE_H_
