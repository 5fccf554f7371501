#ifndef STREAMQ_STREAM_EVENT_H_
#define STREAMQ_STREAM_EVENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/time.h"

namespace streamq {

/// One stream tuple. The engine is deliberately schema-fixed: a keyed,
/// timestamped double. This matches the operator under study (disorder
/// handling + windowed aggregation), whose behavior depends only on
/// timestamps and one aggregated value; a generic row abstraction would add
/// nothing to the reproduction while slowing everything down.
struct Event {
  /// Generation-order id (== position in event-time order for generated
  /// workloads). Stable across reordering; used by oracle audits.
  int64_t id = 0;

  /// Key for keyed windows (e.g., sensor id, stock symbol).
  int64_t key = 0;

  /// Event (occurrence) timestamp, microseconds.
  TimestampUs event_time = 0;

  /// Arrival (ingestion) timestamp, microseconds. arrival_time >= event_time
  /// for physical delays; the generator guarantees it.
  TimestampUs arrival_time = 0;

  /// Measured value carried by the tuple.
  double value = 0.0;

  /// Observed delay of this tuple.
  DurationUs delay() const { return arrival_time - event_time; }

  bool operator==(const Event& other) const = default;
};

/// Orders by event time, breaking ties by id so ordering is total and
/// deterministic.
struct EventTimeLess {
  bool operator()(const Event& a, const Event& b) const {
    if (a.event_time != b.event_time) return a.event_time < b.event_time;
    return a.id < b.id;
  }
};

/// Orders by arrival time (ties by id).
struct ArrivalTimeLess {
  bool operator()(const Event& a, const Event& b) const {
    if (a.arrival_time != b.arrival_time) return a.arrival_time < b.arrival_time;
    return a.id < b.id;
  }
};

/// Renders an event for debugging, e.g.
/// "Event{id=3 key=1 ts=1000 at=1500 v=2.5}".
std::string ToString(const Event& e);

/// Largest timestamp a well-formed tuple may carry. Half the int64 range:
/// leaves headroom so window arithmetic (end = start + size, watermark +
/// slack) cannot overflow even for the last valid tuple.
inline constexpr TimestampUs kMaxValidTimestamp = kMaxTimestamp / 2;

/// Structural sanity check for one arrival, used by ingest validation
/// (ContinuousQuery::IngestValidation). Rejects tuples no handler can
/// process meaningfully:
///  * non-finite value (NaN/Inf) — poisons any aggregate it touches,
///  * negative event or arrival time,
///  * timestamps beyond kMaxValidTimestamp (window-arithmetic overflow),
///  * arrival_time < event_time (clock regression; delay() would be
///    negative and lateness estimators would corrupt).
Status ValidateEvent(const Event& e);

/// Checks whether `events` is sorted by event time (the property every
/// disorder handler must establish on its output).
bool IsEventTimeOrdered(const std::vector<Event>& events);

/// Checks whether `events` is sorted by arrival time (the property every
/// generated workload must have on its input side).
bool IsArrivalTimeOrdered(const std::vector<Event>& events);

}  // namespace streamq

#endif  // STREAMQ_STREAM_EVENT_H_
