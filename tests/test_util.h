#ifndef STREAMQ_TESTS_TEST_UTIL_H_
#define STREAMQ_TESTS_TEST_UTIL_H_

#include <cmath>
#include <vector>

#include "common/stats.h"
#include "core/latency_recorder.h"
#include "disorder/disorder_handler.h"
#include "disorder/event_sink.h"
#include "stream/event.h"
#include "stream/generator.h"

namespace streamq {
namespace testutil {

/// Builds an event with explicit timestamps (value = id for traceability).
inline Event E(int64_t id, TimestampUs ts, TimestampUs at, int64_t key = 0) {
  Event e;
  e.id = id;
  e.key = key;
  e.event_time = ts;
  e.arrival_time = at;
  e.value = static_cast<double>(id);
  return e;
}

/// Feeds a whole arrival-ordered stream through a handler and flushes.
inline void RunHandler(DisorderHandler* handler,
                       const std::vector<Event>& arrival_order,
                       EventSink* sink) {
  for (const Event& e : arrival_order) handler->OnEvent(e, sink);
  handler->Flush(sink);
}

/// Standard moderately-disordered workload for handler tests.
inline GeneratedWorkload DisorderedWorkload(int64_t n = 5000,
                                            uint64_t seed = 42) {
  WorkloadConfig cfg;
  cfg.num_events = n;
  cfg.events_per_second = 10000.0;
  cfg.delay.model = DelayModel::kExponential;
  cfg.delay.a = 20000.0;  // 20ms mean delay at 100us mean gap: heavy disorder.
  cfg.seed = seed;
  return GenerateWorkload(cfg);
}

/// `events` with values remapped to small integers (heavy ties) and zeros
/// of both signs: uniform [0, 1) values become -3..2, every other zero -0.
inline std::vector<Event> WithTiesAndSignedZeros(std::vector<Event> events) {
  int64_t zeros = 0;
  for (Event& e : events) {
    e.value = std::floor(e.value * 6.0) - 3.0;
    if (e.value == 0.0 && ++zeros % 2 == 0) e.value = -0.0;
  }
  return events;
}

/// Welford moments of a recorded latency series, folded in release order as
/// a handler folds its `buffering_latency_us`: when the series is the
/// handler's, count, mean, min and max agree bit for bit.
inline RunningMoments MomentsOf(const std::vector<double>& series) {
  RunningMoments m;
  for (const double x : series) m.Add(x);
  return m;
}

/// Checks the EventSink ordering contract: OnEvent sequence is event-time
/// ordered and never behind the watermark active at delivery time.
class ContractCheckingSink : public EventSink {
 public:
  void OnEvent(const Event& e) override {
    if (!events.empty()) {
      ordered &= events.back().event_time <= e.event_time;
    }
    if (current_watermark != kMinTimestamp) {
      respects_watermark &= e.event_time >= current_watermark;
    }
    events.push_back(e);
  }
  void OnWatermark(TimestampUs watermark, TimestampUs) override {
    if (current_watermark != kMinTimestamp) {
      watermarks_monotone &= watermark >= current_watermark;
    }
    current_watermark = watermark;
  }
  void OnLateEvent(const Event& e) override { late.push_back(e); }

  std::vector<Event> events;
  std::vector<Event> late;
  TimestampUs current_watermark = kMinTimestamp;
  bool ordered = true;
  bool respects_watermark = true;
  bool watermarks_monotone = true;
};

}  // namespace testutil
}  // namespace streamq

#endif  // STREAMQ_TESTS_TEST_UTIL_H_
