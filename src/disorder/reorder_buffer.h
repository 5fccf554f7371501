#ifndef STREAMQ_DISORDER_REORDER_BUFFER_H_
#define STREAMQ_DISORDER_REORDER_BUFFER_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/time.h"
#include "stream/event.h"

namespace streamq {

/// Buffer of events keyed by (event_time, id). The common substrate of
/// every buffering disorder handler: insert on arrival, pop in event-time
/// order up to a release threshold. Pop order is fully determined by the
/// total order (event_time, id), so the internal layout is unobservable.
///
/// Layout: a slack-aligned bucket ring (calendar-queue style). Events
/// append O(1) into power-of-two-width time buckets; PopUpTo releases whole
/// buckets below the threshold and sorts only the one boundary bucket.
/// Because K-slack release thresholds advance monotonically with the
/// frontier, each event is sorted once within its (small) bucket: O(1)
/// amortized per operation independent of buffer size. The bucket width
/// auto-resizes from the observed event-time span of the buffer (≈ the
/// slack K), so buffers from 10^2 to 10^6 events keep a bounded bucket
/// count and bounded bucket population.
class ReorderBuffer {
 public:
  /// Inserts one event. Takes the event by value and moves it into the
  /// buffer so the hot path pays a single copy at the call boundary.
  void Push(Event e);

  /// Bulk insert. Equivalent to Push-ing every element in order (each
  /// append is already O(1)).
  void PushBatch(std::span<const Event> events) {
    for (const Event& e : events) Push(e);
  }

  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }

  /// Largest size ever reached (memory footprint instrumentation).
  size_t max_size() const { return max_size_; }

  /// Event time of the earliest buffered event. Buffer must be non-empty.
  TimestampUs MinEventTime() const;

  /// Pops the earliest event into `*out`. Buffer must be non-empty.
  void PopMin(Event* out);

  /// Pops every event with event_time <= threshold, appending to `*out` in
  /// event-time order. Returns the number popped. Output capacity is
  /// reserved against a cheap per-release upper bound (the releasable
  /// buckets' populations), not against the whole buffer, so small
  /// releases never pay a full-buffer reservation.
  size_t PopUpTo(TimestampUs threshold, std::vector<Event>* out);

  /// Drains the entire buffer in event-time order into `*out` (end of
  /// stream).
  size_t DrainInto(std::vector<Event>* out);

  void Clear();

 private:
  static bool Less(const Event& a, const Event& b) {
    if (a.event_time != b.event_time) return a.event_time < b.event_time;
    return a.id < b.id;
  }

  /// One time bucket: live events occupy [head, events.size()); `sorted`
  /// says the live range is ascending by (event_time, id). The dead prefix
  /// [0, head) lets repeated partial releases from the boundary bucket pop
  /// a sorted prefix without shifting the tail; it is reclaimed when the
  /// bucket empties or is next resorted.
  struct Bucket {
    std::vector<Event> events;
    size_t head = 0;
    bool sorted = false;

    size_t live() const { return events.size() - head; }
    bool LiveEmpty() const { return head == events.size(); }
    void Reset() {
      events.clear();
      head = 0;
      sorted = false;
    }
  };

  size_t BucketIndex(int64_t q) const {
    return static_cast<size_t>(static_cast<uint64_t>(q) & (ring_.size() - 1));
  }
  Bucket& BucketAt(int64_t q) { return ring_[BucketIndex(q)]; }
  const Bucket& BucketAt(int64_t q) const { return ring_[BucketIndex(q)]; }

  /// Compacts the dead prefix and sorts the live range (no-op if sorted).
  void EnsureSortedLive(Bucket* b);

  /// Grows the ring so `span` bucket indices fit (power-of-two capacity;
  /// existing buckets are remapped by masking, as in FlatWindowStore).
  void GrowCapacity(uint64_t span);

  /// Re-buckets every live event under a new bucket-width shift.
  void Rebucket(int new_shift);

  /// First-allocation size for a virgin bucket: the buffer's current mean
  /// live-bucket population, clamped (deep buffers open big buckets).
  size_t BucketReserve() const;

  /// Smallest shift whose bucket count over [lo, hi] stays at or below the
  /// target live-bucket count.
  static int DesiredShift(TimestampUs lo, TimestampUs hi);

  /// Advances q_min_ past drained buckets (resets the span when empty).
  void AdvanceMin();

  size_t max_size_ = 0;

  // The span [q_min_, q_max_] is valid iff size_ > 0; ring capacity is a
  // power of two covering it.
  std::vector<Bucket> ring_;
  int shift_ = kInitialShift;
  int64_t q_min_ = 0;
  int64_t q_max_ = -1;
  size_t size_ = 0;

  static constexpr int kInitialShift = 8;        // 256 us buckets.
  static constexpr int kMaxShift = 40;           // ~13 days; overflow guard.
  static constexpr size_t kInitialRingCapacity = 64;
  /// Width adaptation aims here; widening triggers at kMaxLiveBuckets and
  /// narrowing at kNarrowSpanBuckets (hysteresis keeps the two apart).
  static constexpr int64_t kTargetLiveBuckets = 256;
  static constexpr int64_t kMaxLiveBuckets = 4096;
  static constexpr int64_t kNarrowSpanBuckets = 16;
  static constexpr size_t kNarrowMinEvents = 256;
};

}  // namespace streamq

#endif  // STREAMQ_DISORDER_REORDER_BUFFER_H_
