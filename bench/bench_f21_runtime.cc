/// R-F21 — Runtime batch memory: the slab arena behind the threaded
/// runners' feed.
///
/// Two sections in one table (CSV: bench_results/f21_runtime.csv). Every
/// compared pair carries a checksum over its output, and the CI gates
/// (tools/check_bench_regression.py, f21 suite) hold the checksums equal:
/// these are performance switches, never semantic ones.
///
///   * section=feed — the allocation primitive in isolation: the runners'
///     exact feed loop (fill scratch slab → Share → SPSC queue → consumer
///     drops the last reference cross-thread) with arena pooling on vs off.
///     Pooling off is one heap allocation per batch freed on the consumer
///     thread — the classic producer/consumer malloc ping-pong. Small
///     batches amortize least, so batch=16 is where the arena must earn
///     its keep (>= 1.3x, hard); larger batches must never invert.
///
///   * section=pipeline — the whole ShardedKeyedRunner on a Zipf-keyed
///     stream (pooled batches): one end-to-end row whose checksum and
///     throughput are tracked against the committed baseline.
///
/// Moving hot shards off a colocated worker is work stealing's job; R-F24
/// gates it on the same colocated-skew stream.

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/arena.h"
#include "core/parallel_runner.h"
#include "core/spsc_queue.h"
#include "stream/event.h"
#include "stream/generator.h"
#include "stream/source.h"

namespace streamq {
namespace bench {
namespace {

/// Order-sensitive FNV-style fold (same as R-F19/R-F20).
uint64_t Fold(uint64_t h, int64_t v) {
  h ^= static_cast<uint64_t>(v);
  h *= 0x100000001B3ull;
  return h;
}

/// Zipf-keyed, bounded-delay workload: delays < K = 50ms, so nothing is
/// ever late, no revisions fire, and first emissions are invariant to
/// placement — the precondition for checksum equality across every
/// compared row.
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
  q.name = "f21";
  q.handler = DisorderHandlerSpec::Fixed(Millis(50)).PerKey();
  q.window.window = WindowSpec::Tumbling(Millis(50));
  q.window.aggregate.kind = AggKind::kSum;
  q.window.per_key_watermarks = true;
  return q;
}

/// Checksum over a merged report's results (already sorted by (start, key,
/// revision)). Value folded at fixed precision: the compared runs are
/// bitwise-identical per shard, the rounding only guards the int cast.
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
  double max_share = 0.0;
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
  table->Cell(r.max_share, 3);
  table->Cell(static_cast<int64_t>(r.checksum));
}

// --------------------------------------------------------------- section=feed

struct FeedOutcome {
  double wall_ms = 0.0;
  uint64_t checksum = 0;
};

/// The runners' feed loop in isolation: chunk the stream into `batch`-sized
/// slabs, Share each through an SPSC queue, and drop the last reference on
/// the consumer thread. `pooled` toggles the arena free-lists — off is the
/// malloc path (one heap allocation per batch, freed cross-thread).
FeedOutcome RunFeed(const std::vector<Event>& events, size_t batch,
                    bool pooled) {
  using Arena = SlabArena<Event>;
  Arena arena(Arena::Options{.slab_capacity = batch,
                             .max_free_slabs = pooled ? 1024u : 0u,
                             .max_free_batches = pooled ? 1024u : 0u});
  SpscQueue<Arena::Batch> queue(64);
  uint64_t checksum = 1469598103934665603ull;
  std::thread consumer([&] {
    Arena::Batch b;
    while (queue.Pop(&b)) {
      for (const Event& e : *b) checksum = Fold(checksum, e.id);
      b.reset();  // Last reference: the node frees (or pools) here.
    }
  });
  const auto t0 = std::chrono::steady_clock::now();
  Arena::Slab slab = arena.Acquire();
  for (size_t i = 0; i < events.size(); i += batch) {
    const size_t n = std::min(batch, events.size() - i);
    slab.assign(events.begin() + static_cast<ptrdiff_t>(i),
                events.begin() + static_cast<ptrdiff_t>(i + n));
    queue.Push(arena.Share(&slab));
  }
  queue.Close();
  consumer.join();
  const auto t1 = std::chrono::steady_clock::now();
  FeedOutcome out;
  out.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  out.checksum = checksum;
  return out;
}

void FeedSection(TableWriter* table) {
  const std::vector<Event> events = SkewedStream(2000000, 0.0, 2015);
  for (size_t batch : {size_t{8}, size_t{16}, size_t{64}, size_t{256}}) {
    constexpr int kReps = 5;
    FeedOutcome best_arena, best_malloc;
    for (int rep = 0; rep < kReps; ++rep) {  // Interleaved min-of-N.
      const FeedOutcome a = RunFeed(events, batch, /*pooled=*/true);
      const FeedOutcome m = RunFeed(events, batch, /*pooled=*/false);
      if (rep == 0 || a.wall_ms < best_arena.wall_ms) best_arena = a;
      if (rep == 0 || m.wall_ms < best_malloc.wall_ms) best_malloc = m;
    }
    char config[32];
    std::snprintf(config, sizeof(config), "batch=%zu", batch);
    struct Labeled {
      const char* mode;
      FeedOutcome out;
    };
    for (const Labeled& l :
         {Labeled{"arena", best_arena}, Labeled{"malloc", best_malloc}}) {
      Row row{.section = "feed", .config = config, .mode = l.mode};
      row.workers = 1;
      row.events = static_cast<int64_t>(events.size());
      row.wall_ms = l.out.wall_ms;
      row.checksum = l.out.checksum;
      EmitRow(table, row);
    }
  }
}

// ----------------------------------------------------------- section=pipeline

struct KeyedOutcome {
  double wall_ms = 0.0;
  double max_share = 0.0;
  uint64_t checksum = 0;
};

KeyedOutcome RunKeyed(const std::vector<Event>& events, size_t workers,
                      const ParallelOptions& options) {
  ShardedKeyedRunner runner(KeyedQuery(), workers, options);
  VectorSource source(events);
  const RunReport report = runner.Run(&source);
  KeyedOutcome out;
  out.wall_ms = report.wall_seconds * 1000.0;
  int64_t busiest = 0;
  for (const WorkerLoad& load : runner.worker_loads()) {
    busiest = std::max(busiest, load.events_processed);
  }
  out.max_share =
      static_cast<double>(busiest) / static_cast<double>(events.size());
  out.checksum = ResultChecksum(report);
  return out;
}

void PipelineSection(TableWriter* table) {
  const std::vector<Event> events = SkewedStream(400000, 1.2, 2015);
  ParallelOptions options;
  options.batch_size = 64;
  options.virtual_shards = 12;

  constexpr int kReps = 3;
  KeyedOutcome best;
  for (int rep = 0; rep < kReps; ++rep) {
    const KeyedOutcome out = RunKeyed(events, 3, options);
    if (rep == 0 || out.wall_ms < best.wall_ms) best = out;
  }
  Row row{.section = "pipeline", .config = "zipf-keyed", .mode = "arena"};
  row.workers = 3;
  row.vshards = 12;
  row.events = static_cast<int64_t>(events.size());
  row.wall_ms = best.wall_ms;
  row.max_share = best.max_share;
  row.checksum = best.checksum;
  EmitRow(table, row);
}

void Run() {
  TableWriter table(
      "R-F21: runtime batch memory — arena vs malloc feed, keyed pipeline",
      {"section", "config", "mode", "workers", "vshards", "events",
       "wall_ms", "keps", "max_share", "checksum"});
  FeedSection(&table);
  PipelineSection(&table);
  EmitTable(table, "f21_runtime.csv");
}

}  // namespace
}  // namespace bench
}  // namespace streamq

int main() {
  streamq::bench::Run();
  return 0;
}
