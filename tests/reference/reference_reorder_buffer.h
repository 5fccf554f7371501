#ifndef STREAMQ_TESTS_REFERENCE_REFERENCE_REORDER_BUFFER_H_
#define STREAMQ_TESTS_REFERENCE_REFERENCE_REORDER_BUFFER_H_

// Reference reorder buffer for differential tests: a binary min-heap over
// (event_time, id) with the same public API as ReorderBuffer. O(log n) sift
// per push, per-element sift-down pops with a partition + sort fallback for
// bulk releases. Pop order is fully determined by the total order
// (event_time, id), so the library's bucket ring must match it sequence for
// sequence. Not part of the library.

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "common/time.h"
#include "stream/event.h"

namespace streamq {
namespace reference {

class HeapReorderBuffer {
 public:
  /// Inserts one event.
  void Push(Event e) {
    heap_.push_back(std::move(e));
    SiftUp(heap_.size() - 1);
    if (heap_.size() > max_size_) max_size_ = heap_.size();
  }

  /// Bulk insert. Equivalent to Push-ing every element in order; chooses
  /// between per-element sift-up (small batches) and a full O(n) heapify
  /// (batches comparable to the buffer) by cost estimate.
  void PushBatch(std::span<const Event> events);

  bool empty() const { return heap_.empty(); }
  size_t size() const { return heap_.size(); }

  /// Largest size ever reached.
  size_t max_size() const { return max_size_; }

  /// Event time of the earliest buffered event. Buffer must be non-empty.
  TimestampUs MinEventTime() const;

  /// Pops the earliest event into `*out`. Buffer must be non-empty.
  void PopMin(Event* out);

  /// Pops every event with event_time <= threshold, appending to `*out` in
  /// event-time order. Returns the number popped.
  size_t PopUpTo(TimestampUs threshold, std::vector<Event>* out);

  /// Drains the entire buffer in event-time order into `*out`.
  size_t DrainInto(std::vector<Event>* out);

  void Clear() { heap_.clear(); }

 private:
  static bool Less(const Event& a, const Event& b) {
    if (a.event_time != b.event_time) return a.event_time < b.event_time;
    return a.id < b.id;
  }

  void SiftUp(size_t i);
  void SiftDown(size_t i);
  void Heapify();

  std::vector<Event> heap_;
  size_t max_size_ = 0;
};

}  // namespace reference
}  // namespace streamq

#endif  // STREAMQ_TESTS_REFERENCE_REFERENCE_REORDER_BUFFER_H_
