/// R-F20 — Bounded-memory graceful degradation: what the buffer cap costs
/// when idle, and what it buys when it binds.
///
/// Three sections in one table (CSV: bench_results/f20_degradation.csv):
///
///   * section=overhead — the cap's hot-path tax. The same mildly
///     disordered 1M-tuple stream runs uncapped and with a cap so large it
///     never binds (identical output, checksum-verified). Runs are
///     interleaved and the min over repetitions is reported, so the pair is
///     directly comparable; the CI gate holds the never-binding cap to
///     <= 2% over uncapped.
///
///   * section=shed — a deep-buffer stream (1s slack, ~10k tuples in
///     flight, injector-style disorder bursts) against a cap of 4096 under
///     each shed policy, plus the uncapped reference. Shows the per-tuple
///     cost and the loss accounting (out/late/shed/forced) of each policy
///     at a hard-binding cap.
///
///   * section=curve — the memory/quality trade-off: the same stream under
///     kEmitEarly across a cap sweep (uncapped, 16384 ... 256). Occupancy
///     must track the cap exactly; lateness grows as the cap tightens.
///
/// Every capped row's max_buffer <= cap is a hard CI gate
/// (tools/check_bench_regression.py, f20 suite).

#include <algorithm>
#include <chrono>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "disorder/handler_factory.h"
#include "stream/event.h"

namespace streamq {
namespace bench {
namespace {

/// Order-sensitive FNV-style fold over released tuples (same as R-F19):
/// identical sequences, identical checksums.
uint64_t FoldChecksum(uint64_t h, const Event& e) {
  h ^= static_cast<uint64_t>(e.id);
  h *= 0x100000001B3ull;
  h ^= static_cast<uint64_t>(e.event_time);
  h *= 0x100000001B3ull;
  return h;
}

struct ChecksumSink : EventSink {
  void OnEvent(const Event& e) override { checksum = FoldChecksum(checksum, e); }
  void OnEvents(std::span<const Event> events) override {
    for (const Event& e : events) checksum = FoldChecksum(checksum, e);
  }
  void OnWatermark(TimestampUs, TimestampUs) override {}
  void OnLateEvent(const Event&) override {}
  uint64_t checksum = 0;
};

/// 100us cadence, uniform delay in [0, max_delay]; every `burst_every`
/// tuples a burst of `burst_len` lands at one arrival instant with event
/// times pushed back up to `burst_spread` — the injector's disorder-spike
/// fault, synthesized directly so streams are cheap to regenerate.
std::vector<Event> DisorderStream(size_t n, DurationUs max_delay,
                                  size_t burst_every, size_t burst_len,
                                  DurationUs burst_spread) {
  Rng rng(4242);
  std::vector<Event> events;
  events.reserve(n);
  size_t burst_remaining = 0;
  TimestampUs burst_start = 0;
  for (size_t i = 0; i < n; ++i) {
    Event e;
    e.id = static_cast<int64_t>(i);
    e.arrival_time = static_cast<TimestampUs>(i) * 100;
    e.event_time = e.arrival_time - rng.NextInt(0, max_delay);
    if (burst_every != 0 && burst_remaining == 0 && i > 0 &&
        i % burst_every == 0) {
      burst_remaining = burst_len;
      burst_start = e.arrival_time;
    }
    if (burst_remaining > 0) {
      --burst_remaining;
      e.arrival_time = burst_start;
      e.event_time = burst_start - rng.NextInt(0, burst_spread);
    }
    if (e.event_time < 0) e.event_time = 0;
    e.value = 1.0;
    events.push_back(e);
  }
  return events;
}

struct RunOutcome {
  double ns_per_tuple = 0.0;
  int64_t max_buffer = 0;
  int64_t out = 0;
  int64_t late = 0;
  int64_t shed = 0;
  int64_t forced = 0;
  uint64_t checksum = 0;
};

/// One timed pass: OnBatch chunks of 256 (the executor's hot path), Flush
/// outside the timer but inside the checksum.
RunOutcome RunOnce(const DisorderHandlerSpec& spec,
                   const std::vector<Event>& events) {
  std::unique_ptr<DisorderHandler> handler = MakeDisorderHandlerOrDie(spec);
  ChecksumSink sink;
  const std::span<const Event> stream(events);
  constexpr size_t kBatch = 256;
  const auto t0 = std::chrono::steady_clock::now();
  for (size_t i = 0; i < stream.size(); i += kBatch) {
    handler->OnBatch(stream.subspan(i, std::min(kBatch, stream.size() - i)),
                     &sink);
  }
  const auto t1 = std::chrono::steady_clock::now();
  handler->Flush(&sink);
  const DisorderHandlerStats& hs = handler->stats();
  RunOutcome out;
  out.ns_per_tuple =
      std::chrono::duration<double, std::nano>(t1 - t0).count() /
      static_cast<double>(events.size());
  out.max_buffer = hs.max_buffer_size;
  out.out = hs.events_out;
  out.late = hs.events_late;
  out.shed = hs.events_shed;
  out.forced = hs.events_force_released;
  out.checksum = sink.checksum;
  return out;
}

void EmitRow(TableWriter* table, const char* section, const char* config,
             const char* policy, size_t cap, const RunOutcome& r) {
  table->BeginRow();
  table->Cell(section);
  table->Cell(config);
  table->Cell(policy);
  table->Cell(cap);
  table->Cell(r.ns_per_tuple, 2);
  table->Cell(1e6 / r.ns_per_tuple, 1);
  table->Cell(r.max_buffer);
  table->Cell(r.out);
  table->Cell(r.late);
  table->Cell(r.shed);
  table->Cell(r.forced);
  table->Cell(static_cast<int64_t>(r.checksum));
}

const char* PolicyLabel(ShedPolicy policy) { return ShedPolicyName(policy); }

void Run() {
  TableWriter table(
      "R-F20: bounded-memory degradation — cap overhead, shed policies, "
      "memory/quality curve",
      {"section", "config", "policy", "cap", "ns_per_tuple", "ktuples_per_s",
       "max_buffer", "out", "late", "shed", "forced", "checksum"});

  // --- overhead: uncapped vs never-binding cap, interleaved min-of-N ----
  {
    const std::vector<Event> mild =
        DisorderStream(1000000, Millis(15), 0, 0, 0);
    const DisorderHandlerSpec uncapped = DisorderHandlerSpec::Fixed(Millis(30));
    const DisorderHandlerSpec capped =
        uncapped.WithBufferCap(1u << 20, ShedPolicy::kEmitEarly);
    constexpr int kReps = 7;
    RunOutcome best_uncapped, best_capped;
    for (int rep = 0; rep < kReps; ++rep) {
      const RunOutcome u = RunOnce(uncapped, mild);
      const RunOutcome c = RunOnce(capped, mild);
      if (rep == 0 || u.ns_per_tuple < best_uncapped.ns_per_tuple) {
        best_uncapped = u;
      }
      if (rep == 0 || c.ns_per_tuple < best_capped.ns_per_tuple) {
        best_capped = c;
      }
    }
    EmitRow(&table, "overhead", "fixed30ms-mild", "uncapped", 0,
            best_uncapped);
    EmitRow(&table, "overhead", "fixed30ms-mild", "emit-early", 1u << 20,
            best_capped);
  }

  // --- shed: hard-binding cap under each policy -------------------------
  // 1s slack holds ~10k tuples in flight at 10k events/s; bursts of 8192
  // spike it further. Cap 4096 binds for the whole steady state.
  const std::vector<Event> deep =
      DisorderStream(1000000, Millis(100), 50000, 8192, Millis(500));
  const DisorderHandlerSpec deep_spec = DisorderHandlerSpec::Fixed(Seconds(1));
  constexpr size_t kShedCap = 4096;
  EmitRow(&table, "shed", "fixed1s-burst", "uncapped", 0,
          RunOnce(deep_spec, deep));
  for (ShedPolicy policy :
       {ShedPolicy::kEmitEarly, ShedPolicy::kDropNewest,
        ShedPolicy::kDropOldest}) {
    EmitRow(&table, "shed", "fixed1s-burst", PolicyLabel(policy), kShedCap,
            RunOnce(deep_spec.WithBufferCap(kShedCap, policy), deep));
  }

  // --- curve: memory bound vs quality loss (kEmitEarly) -----------------
  for (size_t cap : {size_t{0}, size_t{16384}, size_t{4096}, size_t{1024},
                     size_t{256}}) {
    EmitRow(&table, "curve", "fixed1s-burst",
            cap == 0 ? "uncapped" : "emit-early", cap,
            RunOnce(cap == 0
                        ? deep_spec
                        : deep_spec.WithBufferCap(cap, ShedPolicy::kEmitEarly),
                    deep));
  }

  EmitTable(table, "f20_degradation.csv");
}

}  // namespace
}  // namespace bench
}  // namespace streamq

int main() {
  streamq::bench::Run();
  return 0;
}
