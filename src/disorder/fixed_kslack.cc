#include "disorder/fixed_kslack.h"

#include "common/logging.h"

namespace streamq {

FixedKSlack::FixedKSlack(DurationUs k) : k_(k) {
  STREAMQ_CHECK_GE(k, 0);
}

void FixedKSlack::OnEvent(const Event& e, EventSink* sink) {
  if (!Ingest(e, sink)) return;
  ReleaseUpTo(ReleaseThreshold(k_), e.arrival_time, sink);
}

void FixedKSlack::OnBatch(std::span<const Event> batch, EventSink* sink) {
  struct Policy {
    DurationUs k;
    void BeforeIngest(const Event&) {}
    void AfterIngest(const Event&, bool) {}
    DurationUs slack() const { return k; }
  };
  ProcessBatch(batch, sink, Policy{k_});
}

void FixedKSlack::Flush(EventSink* sink) { DrainAll(last_activity_, sink); }

}  // namespace streamq
