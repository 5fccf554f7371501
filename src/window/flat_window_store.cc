#include "window/flat_window_store.h"

#include "common/logging.h"

namespace streamq {

namespace {

constexpr size_t kInitialRingCapacity = 64;
constexpr size_t kInitialProbeCapacity = 4;

/// Finalizer-style 64-bit mix; clustering-resistant for sequential keys.
inline uint64_t MixKey(int64_t key) {
  uint64_t h = static_cast<uint64_t>(key) * 0x9E3779B97F4A7C15ull;
  h ^= h >> 32;
  return h;
}

}  // namespace

FlatWindowStore::Slot* FlatWindowStore::Bucket::Find(int64_t key) {
  const size_t mask = probe_.size() - 1;
  for (size_t i = MixKey(key) & mask;; i = (i + 1) & mask) {
    const uint32_t entry = probe_[i];
    if (entry == 0) return nullptr;
    Slot& s = slots_[entry - 1];
    if (s.key == key) return &s;
  }
}

FlatWindowStore::Slot* FlatWindowStore::Bucket::Insert(int64_t key) {
  // Grow at 70% load so probes stay short. +1 accounts for this insert.
  if ((slots_.size() + 1) * 10 >= probe_.size() * 7) {
    Rehash(std::max(kInitialProbeCapacity, probe_.size() * 2));
  }
  slots_.emplace_back();
  Slot& s = slots_.back();
  s.key = key;
  const size_t mask = probe_.size() - 1;
  size_t i = MixKey(key) & mask;
  while (probe_[i] != 0) i = (i + 1) & mask;
  probe_[i] = static_cast<uint32_t>(slots_.size());  // Index + 1.
  by_key_valid_ = false;
  return &s;
}

void FlatWindowStore::Bucket::Rehash(size_t new_capacity) {
  probe_.assign(new_capacity, 0);
  const size_t mask = new_capacity - 1;
  for (size_t idx = 0; idx < slots_.size(); ++idx) {
    size_t i = MixKey(slots_[idx].key) & mask;
    while (probe_[i] != 0) i = (i + 1) & mask;
    probe_[i] = static_cast<uint32_t>(idx + 1);
  }
}

const std::vector<uint32_t>& FlatWindowStore::Bucket::SortedByKey() {
  if (!by_key_valid_) {
    by_key_.resize(slots_.size());
    for (uint32_t i = 0; i < by_key_.size(); ++i) by_key_[i] = i;
    std::sort(by_key_.begin(), by_key_.end(),
              [this](uint32_t a, uint32_t b) {
                return slots_[a].key < slots_[b].key;
              });
    by_key_valid_ = true;
  }
  return by_key_;
}

FlatWindowStore::FlatWindowStore(DurationUs slide) : slide_(slide) {
  STREAMQ_CHECK_GT(slide, 0);
  ring_.resize(kInitialRingCapacity);
}

FlatWindowStore::Bucket* FlatWindowStore::GetOrCreateBucket(
    TimestampUs start) {
  const int64_t q = window_internal::FloorDiv(start, slide_);
  if (live_buckets_ == 0) {
    q_min_ = q_max_ = q;
  } else if (q >= q_min_ && q <= q_max_) {
    if (Bucket* b = BucketAt(q)) return b;
  }
  MaybeGrow(Span(std::min(q, q_min_), std::max(q, q_max_)));
  q_min_ = std::min(q_min_, q);
  q_max_ = std::max(q_max_, q);
  auto bucket = std::make_unique<Bucket>();
  bucket->start_ = start;
  bucket->probe_.assign(kInitialProbeCapacity, 0);
  std::unique_ptr<Bucket>& cell = ring_[IndexOf(q)];
  bucket->next_ = std::move(cell);
  cell = std::move(bucket);
  ++live_buckets_;
  return cell.get();
}

FlatWindowStore::Slot* FlatWindowStore::GetOrCreate(TimestampUs start,
                                                    int64_t key,
                                                    bool* created) {
  Bucket* b = GetOrCreateBucket(start);
  Slot* s = b->Find(key);
  if (s != nullptr) {
    *created = false;
    return s;
  }
  s = b->Insert(key);
  ++slot_count_;
  ++epoch_;  // Insertion may have reallocated the bucket's slot array.
  *created = true;
  return s;
}

FlatWindowStore::Slot* FlatWindowStore::Find(TimestampUs start, int64_t key) {
  if (live_buckets_ == 0) return nullptr;
  const int64_t q = window_internal::FloorDiv(start, slide_);
  if (q < q_min_ || q > q_max_) return nullptr;
  Bucket* b = BucketAt(q);
  return b == nullptr ? nullptr : b->Find(key);
}

void FlatWindowStore::RemoveBucket(int64_t q) {
  const TimestampUs start = q * slide_;
  std::unique_ptr<Bucket>* link = &ring_[IndexOf(q)];
  while ((*link)->start_ != start) link = &(*link)->next_;
  slot_count_ -= (*link)->slots_.size();
  std::unique_ptr<Bucket> next = std::move((*link)->next_);
  *link = std::move(next);
  --live_buckets_;
  ++epoch_;
}

void FlatWindowStore::MaybeGrow(uint64_t span) {
  const uint64_t live = live_buckets_ + 1;
  size_t capacity = ring_.size();
  // Cover a dense span (cell-by-cell scans, no chains) with 2x headroom;
  // a sparse one only gets load-factor growth, keeping chains short.
  if (span > capacity && span <= kDenseSpanFactor * live) {
    while (capacity < span * 2) capacity *= 2;
  }
  while (capacity < live * 2) capacity *= 2;
  if (capacity == ring_.size()) return;
  std::vector<std::unique_ptr<Bucket>> old = std::move(ring_);
  ring_.clear();
  ring_.resize(capacity);
  for (std::unique_ptr<Bucket>& cell : old) {
    while (cell != nullptr) {
      std::unique_ptr<Bucket> b = std::move(cell);
      cell = std::move(b->next_);
      std::unique_ptr<Bucket>& dst =
          ring_[IndexOf(window_internal::FloorDiv(b->start_, slide_))];
      b->next_ = std::move(dst);
      dst = std::move(b);
    }
  }
}

void FlatWindowStore::SortLiveQuotients() {
  sorted_q_.clear();
  for (const std::unique_ptr<Bucket>& cell : ring_) {
    for (const Bucket* b = cell.get(); b != nullptr; b = b->next_.get()) {
      sorted_q_.push_back(window_internal::FloorDiv(b->start_, slide_));
    }
  }
  std::sort(sorted_q_.begin(), sorted_q_.end());
}

void FlatWindowStore::TrimFront() {
  if (live_buckets_ == 0) {
    q_min_ = 0;
    q_max_ = -1;
    return;
  }
  while (BucketAt(q_min_) == nullptr) ++q_min_;
}

void FlatWindowStore::TrimToSorted() {
  if (live_buckets_ == 0) {
    q_min_ = 0;
    q_max_ = -1;
    return;
  }
  size_t lo = 0;
  while (BucketAt(sorted_q_[lo]) == nullptr) ++lo;
  size_t hi = sorted_q_.size() - 1;
  while (BucketAt(sorted_q_[hi]) == nullptr) --hi;
  q_min_ = sorted_q_[lo];
  q_max_ = sorted_q_[hi];
}

}  // namespace streamq
