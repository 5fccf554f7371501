#include "disorder/disorder_handler.h"

#include <algorithm>
#include <cstdio>

#include "core/pipeline_observer.h"

namespace streamq {

const char* ShedPolicyName(ShedPolicy policy) {
  switch (policy) {
    case ShedPolicy::kEmitEarly:
      return "emit-early";
    case ShedPolicy::kDropNewest:
      return "drop-newest";
    case ShedPolicy::kDropOldest:
      return "drop-oldest";
  }
  return "?";
}

std::string DisorderHandlerStats::ToString() const {
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "HandlerStats{in=%lld out=%lld late=%lld shed=%lld "
                "forced=%lld max_buf=%lld lat_mean=%s lat_max=%s}",
                static_cast<long long>(events_in),
                static_cast<long long>(events_out),
                static_cast<long long>(events_late),
                static_cast<long long>(events_shed),
                static_cast<long long>(events_force_released),
                static_cast<long long>(max_buffer_size),
                FormatDuration(static_cast<DurationUs>(
                                   buffering_latency_us.mean()))
                    .c_str(),
                FormatDuration(static_cast<DurationUs>(
                                   buffering_latency_us.max()))
                    .c_str());
  return buf;
}

void DisorderHandler::RecordRelease(const Event& released, TimestampUs now) {
  ++stats_.events_out;
  const auto latency =
      static_cast<double>(std::max<TimestampUs>(0, now - released.arrival_time));
  stats_.buffering_latency_us.Add(latency);
  if (observer_ != nullptr) observer_->OnBufferingLatency(latency);
}

}  // namespace streamq
