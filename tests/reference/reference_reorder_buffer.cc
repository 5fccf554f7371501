#include "tests/reference/reference_reorder_buffer.h"

#include <algorithm>
#include <iterator>

#include "common/logging.h"

namespace streamq {
namespace reference {

namespace {

/// Switch from pop-one-at-a-time to partition + sort once a single release
/// has popped this many events (bulk drains: heartbeats, batch boundaries).
constexpr size_t kBulkPopThreshold = 32;

}  // namespace

void HeapReorderBuffer::PushBatch(std::span<const Event> events) {
  if (events.empty()) return;
  const size_t old_size = heap_.size();
  heap_.insert(heap_.end(), events.begin(), events.end());
  // Per-element sift-up costs O(m log n) worst case but is nearly free for
  // in-order-ish arrivals (new maxima stay at their leaf); a full heapify is
  // O(n) regardless. Prefer heapify only when the batch dominates the
  // existing buffer, where its linear cost is already amortized.
  if (old_size < events.size()) {
    Heapify();
  } else {
    for (size_t i = old_size; i < heap_.size(); ++i) SiftUp(i);
  }
  if (heap_.size() > max_size_) max_size_ = heap_.size();
}

TimestampUs HeapReorderBuffer::MinEventTime() const {
  STREAMQ_CHECK(!empty());
  return heap_.front().event_time;
}

void HeapReorderBuffer::PopMin(Event* out) {
  STREAMQ_CHECK(!empty());
  *out = std::move(heap_.front());
  heap_.front() = std::move(heap_.back());
  heap_.pop_back();
  if (!heap_.empty()) SiftDown(0);
}

size_t HeapReorderBuffer::PopUpTo(TimestampUs threshold,
                                  std::vector<Event>* out) {
  if (heap_.empty() || heap_.front().event_time > threshold) return 0;
  size_t popped = 0;
  while (!heap_.empty() && heap_.front().event_time <= threshold) {
    if (popped >= kBulkPopThreshold) {
      // Large release: partition the remaining releasable events to the
      // back, sort them into emission order, and re-heapify the keepers.
      // The reserve covers exactly the bulk tail, not the whole buffer.
      auto keep_end = std::partition(
          heap_.begin(), heap_.end(),
          [threshold](const Event& e) { return e.event_time > threshold; });
      std::sort(keep_end, heap_.end(), Less);
      const size_t bulk = static_cast<size_t>(heap_.end() - keep_end);
      out->reserve(out->size() + bulk);
      popped += bulk;
      out->insert(out->end(), std::make_move_iterator(keep_end),
                  std::make_move_iterator(heap_.end()));
      heap_.erase(keep_end, heap_.end());
      Heapify();
      return popped;
    }
    out->emplace_back();
    PopMin(&out->back());
    ++popped;
  }
  return popped;
}

size_t HeapReorderBuffer::DrainInto(std::vector<Event>* out) {
  const size_t drained = heap_.size();
  if (drained == 0) return 0;
  std::sort(heap_.begin(), heap_.end(), Less);
  out->reserve(out->size() + drained);
  out->insert(out->end(), std::make_move_iterator(heap_.begin()),
              std::make_move_iterator(heap_.end()));
  heap_.clear();
  return drained;
}

void HeapReorderBuffer::Heapify() {
  if (heap_.size() < 2) return;
  for (size_t i = heap_.size() / 2; i-- > 0;) SiftDown(i);
}

void HeapReorderBuffer::SiftUp(size_t i) {
  if (i == 0) return;
  size_t parent = (i - 1) / 2;
  if (!Less(heap_[i], heap_[parent])) return;  // Common case: already a leaf.
  Event v = std::move(heap_[i]);
  do {
    heap_[i] = std::move(heap_[parent]);
    i = parent;
    parent = (i - 1) / 2;
  } while (i > 0 && Less(v, heap_[parent]));
  heap_[i] = std::move(v);
}

void HeapReorderBuffer::SiftDown(size_t i) {
  const size_t n = heap_.size();
  Event v = std::move(heap_[i]);
  while (true) {
    const size_t left = 2 * i + 1;
    const size_t right = left + 1;
    size_t smallest = i;
    const Event* sv = &v;
    if (left < n && Less(heap_[left], *sv)) {
      smallest = left;
      sv = &heap_[left];
    }
    if (right < n && Less(heap_[right], *sv)) {
      smallest = right;
    }
    if (smallest == i) break;
    heap_[i] = std::move(heap_[smallest]);
    i = smallest;
  }
  heap_[i] = std::move(v);
}

}  // namespace reference
}  // namespace streamq
