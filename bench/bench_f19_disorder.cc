/// R-F19 — Disorder-stage data layout: bucket ring vs binary heap, flat
/// keyed sharding vs per-event dispatch.
///
/// Two sections in one table (CSV: bench_results/f19_disorder.csv):
///
///   * section=buffer — raw per-tuple push+release cost at steady-state
///     occupancies 10^2..10^6 (K-slack style: the release threshold trails
///     the event-time frontier by K, so occupancy ≈ K x arrival rate) of
///     the library's ReorderBuffer (engine=ring) and the reference binary
///     heap from tests/reference (engine=heap). The heap pays O(log n) per
///     tuple; the bucket ring's cost is O(1) amortized and flat in n — the
///     gap must widen with occupancy. The order-sensitive `checksum` over
///     released tuples must agree between the two rows of a size — the
///     equivalence evidence rides in the CSV next to the speedup.
///
///   * section=keyed — KeyedDisorderHandler over a 16-key stream: per-event
///     OnEvent vs run-segmented OnBatch (bursty and uniform-random key
///     order, shallow 30ms-slack and deep 60s-slack regimes), plus a 1-key
///     row pitting the keyed wrapper's batch path against the bare global
///     handler (quantifies the wrapper's fixed accounting tax). Handlers
///     always run on the ring, so these rows are engine=ring only.

#include <algorithm>
#include <chrono>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "disorder/fixed_kslack.h"
#include "disorder/handler_factory.h"
#include "disorder/reorder_buffer.h"
#include "tests/reference/reference_reorder_buffer.h"

namespace streamq {
namespace bench {
namespace {

/// Order-sensitive FNV-style fold: identical release sequences (and only
/// identical sequences) produce identical checksums.
uint64_t FoldChecksum(uint64_t h, const Event& e) {
  h ^= static_cast<uint64_t>(e.id);
  h *= 0x100000001B3ull;
  h ^= static_cast<uint64_t>(e.event_time);
  h *= 0x100000001B3ull;
  return h;
}

struct RunOutcome {
  double ns_per_tuple = 0.0;
  size_t max_buffer = 0;
  uint64_t checksum = 0;
};

// --- Section 1: raw buffer push+release sweep ----------------------------

/// Streams `total` events (100us cadence, delay uniform in [0, K/2]) through
/// one buffer, releasing up to frontier-K after every push. The first
/// `warmup` events fill the buffer to steady state untimed.
template <typename Buffer>
RunOutcome RunBufferSweep(size_t warmup, size_t measured, DurationUs k) {
  Rng rng(1234);
  Buffer buf;
  std::vector<Event> released;
  RunOutcome out;
  TimestampUs frontier = 0;
  int64_t id = 0;
  const auto step = [&] {
    Event e;
    e.id = id;
    const TimestampUs arrival = id * 100;
    e.event_time = arrival - rng.NextInt(0, std::max<DurationUs>(1, k / 2));
    e.arrival_time = arrival;
    ++id;
    frontier = std::max(frontier, e.event_time);
    buf.Push(e);
    released.clear();
    buf.PopUpTo(frontier - k, &released);
    for (const Event& r : released) out.checksum = FoldChecksum(out.checksum, r);
  };
  for (size_t i = 0; i < warmup; ++i) step();
  const auto t0 = std::chrono::steady_clock::now();
  for (size_t i = 0; i < measured; ++i) step();
  const auto t1 = std::chrono::steady_clock::now();
  released.clear();
  buf.DrainInto(&released);
  for (const Event& r : released) out.checksum = FoldChecksum(out.checksum, r);
  out.ns_per_tuple =
      std::chrono::duration<double, std::nano>(t1 - t0).count() /
      static_cast<double>(measured);
  out.max_buffer = buf.max_size();
  return out;
}

// --- Section 2: keyed dispatch ------------------------------------------

struct ChecksumSink : EventSink {
  void OnEvent(const Event& e) override { checksum = FoldChecksum(checksum, e); }
  void OnEvents(std::span<const Event> events) override {
    for (const Event& e : events) checksum = FoldChecksum(checksum, e);
  }
  void OnWatermark(TimestampUs, TimestampUs) override {}
  uint64_t checksum = 0;
};

std::vector<Event> KeyedStream(size_t n, int64_t num_keys, bool bursty) {
  Rng rng(777);
  std::vector<Event> events;
  events.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Event e;
    e.id = static_cast<int64_t>(i);
    e.arrival_time = static_cast<TimestampUs>(i) * 100;
    e.event_time = e.arrival_time - rng.NextInt(0, Millis(15));
    e.key = bursty ? static_cast<int64_t>(i / 32) % num_keys
                   : rng.NextInt(0, num_keys - 1);
    e.value = 1.0;
    events.push_back(e);
  }
  return events;
}

/// Drives a handler spec over `events` per-event (batch == 0) or in
/// OnBatch chunks; reports per-tuple feed cost and the released-sequence
/// checksum. The end-of-stream Flush runs outside the timer (its bulk
/// drain is identical across modes and would only dilute the per-tuple
/// numbers) but its releases still fold into the checksum.
RunOutcome RunKeyed(const DisorderHandlerSpec& spec,
                    const std::vector<Event>& events, size_t batch) {
  std::unique_ptr<DisorderHandler> handler = MakeDisorderHandlerOrDie(spec);
  ChecksumSink sink;
  const std::span<const Event> stream(events);
  const auto t0 = std::chrono::steady_clock::now();
  if (batch == 0) {
    for (const Event& e : stream) handler->OnEvent(e, &sink);
  } else {
    for (size_t i = 0; i < stream.size(); i += batch) {
      handler->OnBatch(stream.subspan(i, std::min(batch, stream.size() - i)),
                       &sink);
    }
  }
  const auto t1 = std::chrono::steady_clock::now();
  handler->Flush(&sink);
  RunOutcome out;
  out.ns_per_tuple =
      std::chrono::duration<double, std::nano>(t1 - t0).count() /
      static_cast<double>(events.size());
  out.max_buffer = handler->stats().max_buffer_size;
  out.checksum = sink.checksum;
  return out;
}

void Run() {
  TableWriter table(
      "R-F19: disorder-stage layout — bucket ring vs heap, keyed batch "
      "dispatch",
      {"section", "config", "engine", "ns_per_tuple", "ktuples_per_s",
       "max_buffer", "checksum"});

  // Buffer occupancy sweep: K = target_size x 100us inter-arrival.
  struct SweepPoint {
    const char* name;
    size_t target_size;
  };
  const SweepPoint points[] = {
      {"size=1e2", 100},       {"size=1e3", 1000},   {"size=1e4", 10000},
      {"size=1e5", 100000},    {"size=1e6", 1000000},
  };
  const auto add_row = [&table](const char* section, const char* config,
                                const char* engine, const RunOutcome& r) {
    table.BeginRow();
    table.Cell(section);
    table.Cell(config);
    table.Cell(engine);
    table.Cell(r.ns_per_tuple, 2);
    table.Cell(1e6 / r.ns_per_tuple, 1);
    table.Cell(r.max_buffer);
    table.Cell(static_cast<int64_t>(r.checksum));
  };
  for (const SweepPoint& p : points) {
    const DurationUs k = static_cast<DurationUs>(p.target_size) * 100;
    const size_t measured = 1000000;
    const size_t warmup = p.target_size;
    add_row("buffer", p.name, "heap",
            RunBufferSweep<reference::HeapReorderBuffer>(warmup, measured, k));
    add_row("buffer", p.name, "ring",
            RunBufferSweep<ReorderBuffer>(warmup, measured, k));
  }

  // Keyed dispatch: 16-key stream, fixed 30ms slack shards.
  const size_t kKeyedEvents = 1000000;
  const size_t kBatch = 256;
  const DisorderHandlerSpec keyed_spec =
      DisorderHandlerSpec::Fixed(Millis(30)).PerKey();
  const DisorderHandlerSpec global_spec = DisorderHandlerSpec::Fixed(Millis(30));
  // Deep-buffer regime: K = 60s against a 100s stream, so shards fill to
  // ~600k buffered tuples before steady-state releases start. Per-shard
  // work per tuple is highest here, which is exactly where the
  // run-segmented OnBatch pays off: the per-event dispatch layer (route,
  // arm, aggregate bookkeeping) is amortized over whole key runs.
  const DisorderHandlerSpec deep_spec =
      DisorderHandlerSpec::Fixed(Seconds(60)).PerKey();
  const std::vector<Event> bursty = KeyedStream(kKeyedEvents, 16, true);
  const std::vector<Event> random = KeyedStream(kKeyedEvents, 16, false);
  const std::vector<Event> one_key = KeyedStream(kKeyedEvents, 1, true);

  struct KeyedRow {
    const char* name;
    const DisorderHandlerSpec* spec;
    const std::vector<Event>* events;
    size_t batch;
  };
  const KeyedRow rows[] = {
      {"bursty16-perevent", &keyed_spec, &bursty, 0},
      {"bursty16-batch256", &keyed_spec, &bursty, kBatch},
      {"random16-perevent", &keyed_spec, &random, 0},
      {"random16-batch256", &keyed_spec, &random, kBatch},
      {"bursty16-deep-perevent", &deep_spec, &bursty, 0},
      {"bursty16-deep-batch256", &deep_spec, &bursty, kBatch},
      {"1key-global-batch256", &global_spec, &one_key, kBatch},
      {"1key-keyed-batch256", &keyed_spec, &one_key, kBatch},
  };
  for (const KeyedRow& row : rows) {
    add_row("keyed", row.name, "ring",
            RunKeyed(*row.spec, *row.events, row.batch));
  }

  EmitTable(table, "f19_disorder.csv");
}

}  // namespace
}  // namespace bench
}  // namespace streamq

int main() {
  streamq::bench::Run();
  return 0;
}
