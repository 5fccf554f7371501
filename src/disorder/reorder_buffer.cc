#include "disorder/reorder_buffer.h"

#include "common/logging.h"

namespace streamq {

namespace {

/// Below this release size, skip the reserve entirely and let the output
/// vector's geometric growth absorb the appends; an exact reserve per tiny
/// release would defeat amortization.
constexpr size_t kReserveSkipBound = 32;

/// Bounds for a bucket's first allocation. Growing thousands of tiny
/// bucket vectors through capacities 1-2-4-8... costs a malloc-and-copy
/// every few pushes on deep buffers, so a virgin bucket reserves the
/// buffer's current average population per live bucket (self-scaling:
/// deep buffers open big buckets, shallow ones stay small), clamped to
/// these bounds.
constexpr size_t kBucketMinCapacity = 8;
constexpr size_t kBucketMaxCapacity = 1024;

/// Bucket-granular bounds on the live event-time span: [q_min, q_max]
/// buckets of width 2^shift cover exactly this closed time interval.
inline TimestampUs BucketLow(int64_t q, int shift) {
  return static_cast<TimestampUs>(q) * (TimestampUs{1} << shift);
}
inline TimestampUs BucketHigh(int64_t q, int shift) {
  return BucketLow(q + 1, shift) - 1;
}

}  // namespace

TimestampUs ReorderBuffer::MinEventTime() const {
  STREAMQ_CHECK(!empty());
  // The lowest-index live bucket holds the minimum (q is monotone in time).
  const Bucket& b = BucketAt(q_min_);
  if (b.sorted) return b.events[b.head].event_time;
  TimestampUs min_t = b.events[b.head].event_time;
  for (size_t i = b.head + 1; i < b.events.size(); ++i) {
    min_t = std::min(min_t, b.events[i].event_time);
  }
  return min_t;
}

void ReorderBuffer::Clear() {
  if (size_ > 0) {
    for (int64_t q = q_min_; q <= q_max_; ++q) BucketAt(q).Reset();
    size_ = 0;
  }
  q_min_ = 0;
  q_max_ = -1;
}

int ReorderBuffer::DesiredShift(TimestampUs lo, TimestampUs hi) {
  const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  int s = 0;
  while (s < kMaxShift &&
         (span >> s) > static_cast<uint64_t>(kTargetLiveBuckets)) {
    ++s;
  }
  return s;
}

void ReorderBuffer::Push(Event e) {
  if (ring_.empty()) ring_.resize(kInitialRingCapacity);
  int64_t q = e.event_time >> shift_;
  if (size_ == 0) {
    q_min_ = q_max_ = q;
  } else if (q < q_min_ || q > q_max_) {
    int64_t new_min = std::min(q, q_min_);
    int64_t new_max = std::max(q, q_max_);
    const int64_t new_span = new_max - new_min + 1;
    // Widen when the span blows past the hard cap, or earlier when the
    // buffer is sparse (fewer events than buckets past the target count):
    // crawling a wide front of one-event buckets costs an allocation and a
    // cache miss per push, and rebucketing a sparse buffer is cheap.
    if (new_span > kMaxLiveBuckets ||
        (new_span > kTargetLiveBuckets &&
         size_ < static_cast<size_t>(new_span))) {
      // Span blown (slack grew or an outlier arrived): widen the buckets so
      // the whole live span refits near the target bucket count.
      const TimestampUs lo =
          std::min(e.event_time, BucketLow(q_min_, shift_));
      const TimestampUs hi =
          std::max(e.event_time, BucketHigh(q_max_, shift_));
      Rebucket(std::max(DesiredShift(lo, hi), shift_ + 1));
      q = e.event_time >> shift_;
      new_min = std::min(q, q_min_);
      new_max = std::max(q, q_max_);
    }
    GrowCapacity(static_cast<uint64_t>(new_max - new_min + 1));
    q_min_ = new_min;
    q_max_ = new_max;
  }
  Bucket& b = BucketAt(q);
  if (b.LiveEmpty()) {
    b.Reset();
    b.sorted = true;
  } else if (b.sorted && Less(e, b.events.back())) {
    b.sorted = false;
  }
  if (b.events.capacity() == 0) b.events.reserve(BucketReserve());
  b.events.push_back(std::move(e));
  ++size_;
  if (size_ > max_size_) max_size_ = size_;
  // Narrow when the live span collapsed to a sliver of wide buckets (slack
  // shrank): re-split toward the target count. The bucket-granular span
  // over-estimates the true span, so this only narrows when clearly due --
  // the kMaxLiveBuckets/kNarrowSpanBuckets gap provides the hysteresis.
  if (shift_ > 0 && size_ >= kNarrowMinEvents &&
      q_max_ - q_min_ + 1 <= kNarrowSpanBuckets) {
    const int desired =
        DesiredShift(BucketLow(q_min_, shift_), BucketHigh(q_max_, shift_));
    if (desired < shift_) Rebucket(desired);
  }
}

void ReorderBuffer::PopMin(Event* out) {
  STREAMQ_CHECK(!empty());
  Bucket& b = BucketAt(q_min_);
  EnsureSortedLive(&b);
  *out = std::move(b.events[b.head]);
  ++b.head;
  if (b.LiveEmpty()) b.Reset();
  --size_;
  AdvanceMin();
}

size_t ReorderBuffer::PopUpTo(TimestampUs threshold,
                                  std::vector<Event>* out) {
  if (size_ == 0) return 0;
  const int64_t qt = threshold >> shift_;
  if (qt < q_min_) return 0;
  // Common per-event case: the threshold lands in the lowest live bucket
  // and nothing there is releasable yet.
  if (qt == q_min_) {
    const Bucket& b = BucketAt(q_min_);
    if (b.sorted && b.events[b.head].event_time > threshold) return 0;
  }
  // Buckets in [q_min_, q_full_end) lie entirely at or below the threshold;
  // bucket qt (if live) straddles it. Their live populations bound the
  // release size for the reserve.
  const int64_t q_full_end = std::min(qt, q_max_ + 1);
  size_t bound = 0;
  for (int64_t q = q_min_; q < q_full_end; ++q) bound += BucketAt(q).live();
  if (qt <= q_max_) bound += BucketAt(qt).live();
  if (bound == 0) return 0;
  if (bound > kReserveSkipBound) out->reserve(out->size() + bound);

  size_t popped = 0;
  for (int64_t q = q_min_; q < q_full_end; ++q) {
    Bucket& b = BucketAt(q);
    if (b.LiveEmpty()) continue;
    EnsureSortedLive(&b);
    popped += b.live();
    out->insert(out->end(),
                std::make_move_iterator(b.events.begin() +
                                        static_cast<ptrdiff_t>(b.head)),
                std::make_move_iterator(b.events.end()));
    b.Reset();
  }
  if (qt <= q_max_) {
    Bucket& b = BucketAt(qt);
    if (!b.LiveEmpty()) {
      EnsureSortedLive(&b);
      const auto live_begin =
          b.events.begin() + static_cast<ptrdiff_t>(b.head);
      if (live_begin->event_time <= threshold) {
        const auto split = std::upper_bound(
            live_begin, b.events.end(), threshold,
            [](TimestampUs t, const Event& e) { return t < e.event_time; });
        popped += static_cast<size_t>(split - live_begin);
        out->insert(out->end(), std::make_move_iterator(live_begin),
                    std::make_move_iterator(split));
        b.head = static_cast<size_t>(split - b.events.begin());
        if (b.LiveEmpty()) b.Reset();
      }
    }
  }
  size_ -= popped;
  AdvanceMin();
  return popped;
}

size_t ReorderBuffer::DrainInto(std::vector<Event>* out) {
  const size_t drained = size_;
  if (drained == 0) return 0;
  out->reserve(out->size() + drained);
  for (int64_t q = q_min_; q <= q_max_; ++q) {
    Bucket& b = BucketAt(q);
    if (b.LiveEmpty()) continue;
    EnsureSortedLive(&b);
    out->insert(out->end(),
                std::make_move_iterator(b.events.begin() +
                                        static_cast<ptrdiff_t>(b.head)),
                std::make_move_iterator(b.events.end()));
    b.Reset();
  }
  size_ = 0;
  AdvanceMin();
  return drained;
}

void ReorderBuffer::EnsureSortedLive(Bucket* b) {
  if (b->sorted) return;
  if (b->head > 0) {
    b->events.erase(b->events.begin(),
                    b->events.begin() + static_cast<ptrdiff_t>(b->head));
    b->head = 0;
  }
  std::sort(b->events.begin(), b->events.end(), Less);
  b->sorted = true;
}

void ReorderBuffer::GrowCapacity(uint64_t span) {
  if (ring_.empty()) ring_.resize(kInitialRingCapacity);
  if (span <= ring_.size()) return;
  size_t cap = ring_.size();
  while (cap < span) cap *= 2;
  cap *= 2;  // Headroom so a drifting span doesn't regrow immediately.
  std::vector<Bucket> old = std::move(ring_);
  ring_.assign(cap, Bucket{});
  if (size_ > 0) {
    const size_t old_mask = old.size() - 1;
    for (int64_t q = q_min_; q <= q_max_; ++q) {
      Bucket& ob = old[static_cast<size_t>(q) & old_mask];
      if (ob.LiveEmpty()) continue;
      ring_[BucketIndex(q)] = std::move(ob);
    }
  }
}

void ReorderBuffer::Rebucket(int new_shift) {
  std::vector<Event> all;
  all.reserve(size_);
  for (int64_t q = q_min_; q <= q_max_; ++q) {
    Bucket& b = BucketAt(q);
    if (b.LiveEmpty()) continue;
    all.insert(all.end(),
               std::make_move_iterator(b.events.begin() +
                                       static_cast<ptrdiff_t>(b.head)),
               std::make_move_iterator(b.events.end()));
    b.Reset();
  }
  shift_ = new_shift;
  int64_t new_min = all.front().event_time >> shift_;
  int64_t new_max = new_min;
  for (const Event& e : all) {
    const int64_t q = e.event_time >> shift_;
    new_min = std::min(new_min, q);
    new_max = std::max(new_max, q);
  }
  q_min_ = new_min;
  q_max_ = new_max;
  GrowCapacity(static_cast<uint64_t>(new_max - new_min + 1));
  for (Event& e : all) {
    Bucket& b = BucketAt(e.event_time >> shift_);
    if (b.events.empty()) {
      b.sorted = true;
    } else if (b.sorted && Less(e, b.events.back())) {
      b.sorted = false;
    }
    if (b.events.capacity() == 0) b.events.reserve(BucketReserve());
    b.events.push_back(std::move(e));
  }
}

size_t ReorderBuffer::BucketReserve() const {
  const size_t span =
      size_ == 0 ? 1 : static_cast<size_t>(q_max_ - q_min_ + 1);
  return std::clamp(size_ / span + 1, kBucketMinCapacity,
                    kBucketMaxCapacity);
}

void ReorderBuffer::AdvanceMin() {
  if (size_ == 0) {
    q_min_ = 0;
    q_max_ = -1;
    return;
  }
  while (BucketAt(q_min_).LiveEmpty()) ++q_min_;
}

}  // namespace streamq
