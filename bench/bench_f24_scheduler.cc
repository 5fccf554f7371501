/// R-F24 — Pull-based work stealing and the feed batch size.
///
/// Two sections in one table (CSV: bench_results/f24_scheduler.csv).
/// Every compared pair carries a checksum over its merged output, and the
/// CI gates (tools/check_bench_regression.py, f24 suite) hold the
/// checksums equal: the scheduler switches are performance switches, never
/// semantic ones.
///
///   * section=steal — demand-driven stealing on the adversarial placement
///     case it exists for: the hot keys all hash-colocate on worker 0
///     under static placement, with a slow per-tuple sink stalling the
///     worker thread. Static placement serializes the hot worker's sink
///     latency while workers 1..3 sit idle; with --steal the starving
///     workers pull the hot shards at in-band safe points (once a victim
///     is two feed batches behind) and the stalls overlap: static/steal
///     wall >= 1.2x (hard), steals > 0, byte-identical output.
///
///   * section=batch — feed batch sizing on the whole sharded pipeline:
///     fixed sizes {16, 64, 256, 1024}, byte-identical output across all
///     of them; the throughput curve shows what ParallelOptions::batch_size
///     trades.

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "core/parallel_runner.h"
#include "core/pipeline_observer.h"
#include "stream/event.h"
#include "stream/generator.h"
#include "stream/source.h"

namespace streamq {
namespace bench {
namespace {

/// Order-sensitive FNV-style fold (same as R-F19..R-F21).
uint64_t Fold(uint64_t h, int64_t v) {
  h ^= static_cast<uint64_t>(v);
  h *= 0x100000001B3ull;
  return h;
}

/// Zipf-keyed, bounded-delay workload: delays < K = 50ms, so nothing is
/// ever late, no revisions fire, and first emissions are invariant to
/// placement, batch size, and steal schedule — the precondition for
/// checksum equality across every compared row.
std::vector<Event> SkewedStream(int64_t n, double zipf_s, uint64_t seed) {
  WorkloadConfig cfg;
  cfg.num_events = n;
  cfg.events_per_second = 10000.0;
  cfg.num_keys = 64;
  cfg.key_zipf_s = zipf_s;
  cfg.delay.model = DelayModel::kUniform;
  cfg.delay.a = 0.0;
  cfg.delay.b = 30000.0;
  cfg.seed = seed;
  return GenerateWorkload(cfg).arrival_order;
}

ContinuousQuery KeyedQuery() {
  ContinuousQuery q;
  q.name = "f24";
  q.handler = DisorderHandlerSpec::Fixed(Millis(50)).PerKey();
  q.window.window = WindowSpec::Tumbling(Millis(50));
  q.window.aggregate.kind = AggKind::kSum;
  q.window.per_key_watermarks = true;
  return q;
}

/// Checksum over a merged report's results (already sorted by (start, key,
/// revision)).
uint64_t ResultChecksum(const RunReport& report) {
  uint64_t h = 1469598103934665603ull;
  for (const WindowResult& r : report.results) {
    h = Fold(h, r.bounds.start);
    h = Fold(h, r.key);
    h = Fold(h, static_cast<int64_t>(r.value * 1e6));
    h = Fold(h, r.tuple_count);
  }
  return h;
}

struct Row {
  const char* section;
  const char* config;
  const char* mode;
  size_t workers = 0;
  size_t vshards = 0;
  int64_t events = 0;
  double wall_ms = 0.0;
  int64_t steals = 0;
  uint64_t checksum = 0;
};

void EmitRow(TableWriter* table, const Row& r) {
  table->BeginRow();
  table->Cell(r.section);
  table->Cell(r.config);
  table->Cell(r.mode);
  table->Cell(r.workers);
  table->Cell(r.vshards);
  table->Cell(r.events);
  table->Cell(r.wall_ms, 2);
  table->Cell(static_cast<double>(r.events) / r.wall_ms, 1);  // keps
  table->Cell(r.steals);
  table->Cell(static_cast<int64_t>(r.checksum));
}

struct Outcome {
  double wall_ms = 0.0;
  int64_t steals = 0;
  uint64_t checksum = 0;
};

Outcome RunOnce(const std::vector<Event>& events, size_t workers,
                const ParallelOptions& options, PipelineObserver* observer) {
  ShardedKeyedRunner runner(KeyedQuery(), workers, options);
  if (observer != nullptr) runner.SetObserver(observer);
  VectorSource source(events);
  const RunReport report = runner.Run(&source);
  Outcome out;
  out.wall_ms = report.wall_seconds * 1000.0;
  out.steals = runner.steals();
  out.checksum = ResultChecksum(report);
  return out;
}

/// Models a slow downstream sink with per-tuple cost: releasing N tuples
/// stalls the WORKER thread ~N * per_tuple_us. Sleeps accumulate to
/// >= 200us before being paid so OS timer slack stays negligible.
class SlowSinkObserver : public PipelineObserver {
 public:
  explicit SlowSinkObserver(DurationUs per_tuple_us)
      : per_tuple_us_(per_tuple_us) {}
  void OnHandlerRelease(int64_t released, size_t buffered_after,
                        TimestampUs watermark) override {
    (void)buffered_after;
    (void)watermark;
    if (per_tuple_us_ == 0 || released <= 0) return;
    thread_local DurationUs pending = 0;
    pending += released * per_tuple_us_;
    if (pending >= 200) {
      std::this_thread::sleep_for(std::chrono::microseconds(pending));
      pending = 0;
    }
  }

 private:
  DurationUs per_tuple_us_;
};

/// The adversarial placement case: four hot keys (~15% of the stream each)
/// whose shards — 0, 4, 8, 12 of 16 — ALL land on worker 0 under
/// placement[v] = v % 4, plus twelve cold keys on the other workers, so
/// static placement funnels ~60% of the stream through one worker. Built
/// by remapping a uniform 64-key stream, keeping timestamps and bounded
/// delays (so nothing is late and outputs stay comparable).
std::vector<Event> ColocatedSkewStream(int64_t n, uint64_t seed) {
  std::vector<Event> events = SkewedStream(n, /*zipf_s=*/0.0, seed);
  constexpr size_t kShards = 16;
  constexpr size_t kWorkers = 4;
  std::vector<int64_t> hot_key_for_shard(kShards, -1);
  std::vector<int64_t> cold_keys;
  size_t hot_found = 0;
  for (int64_t key = 0; hot_found < kWorkers || cold_keys.size() < 12;
       ++key) {
    const size_t shard = ShardedKeyedRunner::ShardOf(key, kShards);
    if (shard % kWorkers == 0) {
      if (hot_key_for_shard[shard] < 0) {
        hot_key_for_shard[shard] = key;
        ++hot_found;
      }
    } else if (cold_keys.size() < 12) {
      cold_keys.push_back(key);
    }
  }
  const int64_t hot_keys[] = {hot_key_for_shard[0], hot_key_for_shard[4],
                              hot_key_for_shard[8], hot_key_for_shard[12]};
  for (Event& e : events) {
    const int64_t k = e.key;  // Uniform in [0, 64).
    e.key = k < 38 ? hot_keys[k % 4]
                   : cold_keys[static_cast<size_t>(k - 38) % cold_keys.size()];
  }
  return events;
}

// -------------------------------------------------------------- section=steal

void StealSection(TableWriter* table) {
  const std::vector<Event> events = ColocatedSkewStream(60000, 99);
  constexpr size_t kWorkers = 4;
  ParallelOptions static_opts;
  static_opts.batch_size = 64;
  static_opts.virtual_shards = 16;
  ParallelOptions steal_opts = static_opts;
  steal_opts.steal = true;

  SlowSinkObserver observer(/*per_tuple_us=*/20);
  constexpr int kReps = 2;
  Outcome best_static, best_steal;
  for (int rep = 0; rep < kReps; ++rep) {  // Interleaved min-of-N.
    const Outcome s = RunOnce(events, kWorkers, static_opts, &observer);
    const Outcome t = RunOnce(events, kWorkers, steal_opts, &observer);
    if (rep == 0 || s.wall_ms < best_static.wall_ms) best_static = s;
    if (rep == 0 || t.wall_ms < best_steal.wall_ms) best_steal = t;
  }
  struct Labeled {
    const char* mode;
    Outcome out;
  };
  for (const Labeled& l :
       {Labeled{"static", best_static}, Labeled{"steal", best_steal}}) {
    Row row{.section = "steal", .config = "sink-latency", .mode = l.mode};
    row.workers = kWorkers;
    row.vshards = 16;
    row.events = static_cast<int64_t>(events.size());
    row.wall_ms = l.out.wall_ms;
    row.steals = l.out.steals;
    row.checksum = l.out.checksum;
    EmitRow(table, row);
  }
}

// -------------------------------------------------------------- section=batch

void BatchSection(TableWriter* table) {
  const std::vector<Event> events = SkewedStream(400000, 1.2, 2015);
  constexpr size_t kWorkers = 3;
  ParallelOptions base;
  base.virtual_shards = 12;

  constexpr int kReps = 3;
  const size_t fixed_sizes[] = {16, 64, 256, 1024};
  Outcome best_fixed[4];
  for (int rep = 0; rep < kReps; ++rep) {  // Interleaved min-of-N.
    for (size_t i = 0; i < 4; ++i) {
      ParallelOptions opts = base;
      opts.batch_size = fixed_sizes[i];
      const Outcome o = RunOnce(events, kWorkers, opts, nullptr);
      if (rep == 0 || o.wall_ms < best_fixed[i].wall_ms) best_fixed[i] = o;
    }
  }
  for (size_t i = 0; i < 4; ++i) {
    char mode[24];
    std::snprintf(mode, sizeof(mode), "fixed-%zu", fixed_sizes[i]);
    Row row{.section = "batch", .config = "zipf-keyed", .mode = mode};
    row.workers = kWorkers;
    row.vshards = 12;
    row.events = static_cast<int64_t>(events.size());
    row.wall_ms = best_fixed[i].wall_ms;
    row.checksum = best_fixed[i].checksum;
    EmitRow(table, row);
  }
}

void Run() {
  TableWriter table(
      "R-F24: pull-based scheduler — work stealing under colocated skew, "
      "feed batch size sweep",
      {"section", "config", "mode", "workers", "vshards", "events",
       "wall_ms", "keps", "steals", "checksum"});
  StealSection(&table);
  BatchSection(&table);
  EmitTable(table, "f24_scheduler.csv");
}

}  // namespace
}  // namespace bench
}  // namespace streamq

int main() {
  streamq::bench::Run();
  return 0;
}
