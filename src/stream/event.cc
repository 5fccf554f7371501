#include "stream/event.h"

#include <cmath>
#include <cstdio>

namespace streamq {

std::string ToString(const Event& e) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "Event{id=%lld key=%lld ts=%lld at=%lld v=%g}",
                static_cast<long long>(e.id), static_cast<long long>(e.key),
                static_cast<long long>(e.event_time),
                static_cast<long long>(e.arrival_time), e.value);
  return buf;
}

Status ValidateEvent(const Event& e) {
  if (!std::isfinite(e.value)) {
    return Status::InvalidArgument("event value is not finite: " +
                                   ToString(e));
  }
  if (e.event_time < 0 || e.arrival_time < 0) {
    return Status::InvalidArgument("negative timestamp: " + ToString(e));
  }
  if (e.event_time > kMaxValidTimestamp ||
      e.arrival_time > kMaxValidTimestamp) {
    return Status::InvalidArgument("timestamp overflows valid range: " +
                                   ToString(e));
  }
  if (e.arrival_time < e.event_time) {
    return Status::InvalidArgument("arrival precedes event time: " +
                                   ToString(e));
  }
  return Status::OK();
}

bool IsEventTimeOrdered(const std::vector<Event>& events) {
  for (size_t i = 1; i < events.size(); ++i) {
    if (events[i].event_time < events[i - 1].event_time) return false;
  }
  return true;
}

bool IsArrivalTimeOrdered(const std::vector<Event>& events) {
  for (size_t i = 1; i < events.size(); ++i) {
    if (events[i].arrival_time < events[i - 1].arrival_time) return false;
  }
  return true;
}

}  // namespace streamq
