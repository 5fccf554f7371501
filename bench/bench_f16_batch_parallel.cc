/// R-F16 — Batched hot path + parallel execution of the disorder→window
/// pipeline.
///
/// Three tables, all written under bench_results/:
///  1. f16_batch_sweep.csv     — per-tuple Feed vs FeedBatch at batch sizes
///     1/16/256/4096/whole-stream on a 1M-tuple stream. Output is identical
///     across rows (the OnBatch contract), so the ratio column is pure
///     mechanics: virtual-dispatch amortization + bulk buffer operations.
///  2. f16_parallel_queries.csv — N independent queries over one stream,
///     sequential shared-loop plan vs one worker thread per query.
///  3. f16_sharded_keyed.csv    — one keyed query, key space hashed across
///     S shard pipelines on worker threads.
/// Thread-scaling numbers depend on available cores; the harness reports
/// the hardware it ran on.

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/table_writer.h"
#include "core/multi_query.h"
#include "core/parallel_runner.h"

namespace streamq {
namespace bench {
namespace {

constexpr int kReps = 3;  // Best-of-N wall time per configuration.

DisorderHandlerSpec BenchSpec(bool adaptive) {
  if (!adaptive) return DisorderHandlerSpec::Fixed(Millis(30));
  AqKSlack::Options aq;
  aq.target_quality = 0.95;
  return DisorderHandlerSpec::Aq(aq);
}

ContinuousQuery BenchQuery(const std::string& name, bool adaptive) {
  ContinuousQuery q;
  q.name = name;
  q.handler = BenchSpec(adaptive);
  q.window.window = WindowSpec::Tumbling(Millis(50));
  q.window.aggregate.kind = AggKind::kSum;
  return q;
}

/// Runs `fn` kReps times and returns the minimum wall seconds.
template <typename Fn>
double BestWallSeconds(Fn&& fn) {
  double best = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    const TimestampUs t0 = WallClockMicros();
    fn();
    const double s = ToSeconds(WallClockMicros() - t0);
    if (rep == 0 || s < best) best = s;
  }
  return best;
}

void BatchSweep(const GeneratedWorkload& w) {
  const std::span<const Event> events(w.arrival_order);
  const double mev = static_cast<double>(events.size()) / 1e6;

  TableWriter table("R-F16a: batched hot path, 1M-tuple stream (identical "
                    "output at every batch size)",
                    {"handler", "mode", "wall_ms", "mev_per_s",
                     "speedup_vs_per_tuple", "results"});

  for (bool adaptive : {false, true}) {
    const ContinuousQuery q =
        BenchQuery(adaptive ? "aq-kslack" : "fixed-kslack", adaptive);
    size_t result_count = 0;
    const double per_tuple_s = BestWallSeconds([&] {
      QueryExecutor exec(q);
      for (const Event& e : events) exec.Feed(e);
      exec.Finish();
      result_count = exec.results().size();
    });
    table.BeginRow();
    table.Cell(q.handler.Describe());
    table.Cell("per-tuple");
    table.Cell(per_tuple_s * 1e3, 1);
    table.Cell(mev / per_tuple_s, 2);
    table.Cell(1.0, 2);
    table.Cell(result_count);

    for (size_t batch : {size_t{1}, size_t{16}, size_t{256}, size_t{4096},
                         events.size()}) {
      size_t batched_results = 0;
      const double s = BestWallSeconds([&] {
        QueryExecutor exec(q);
        for (size_t i = 0; i < events.size(); i += batch) {
          exec.FeedBatch(
              events.subspan(i, std::min(batch, events.size() - i)));
        }
        exec.Finish();
        batched_results = exec.results().size();
      });
      char mode[32];
      if (batch == events.size()) {
        std::snprintf(mode, sizeof(mode), "batch=all");
      } else {
        std::snprintf(mode, sizeof(mode), "batch=%zu", batch);
      }
      table.BeginRow();
      table.Cell(q.handler.Describe());
      table.Cell(mode);
      table.Cell(s * 1e3, 1);
      table.Cell(mev / s, 2);
      table.Cell(per_tuple_s / s, 2);
      table.Cell(batched_results);
      if (batched_results != result_count) {
        std::cerr << "ERROR: batched run diverged from per-tuple run\n";
      }
    }
  }
  EmitTable(table, "f16_batch_sweep.csv");
}

void ParallelQueries(const GeneratedWorkload& w) {
  TableWriter table("R-F16b: N independent queries, sequential vs one "
                    "worker thread per query",
                    {"queries", "plan", "wall_ms", "total_mev_per_s",
                     "speedup_vs_sequential"});
  const double mev = static_cast<double>(w.arrival_order.size()) / 1e6;

  for (int nq : {1, 2, 4}) {
    auto add_queries = [&](auto& runner) {
      for (int i = 0; i < nq; ++i) {
        char name[16];
        std::snprintf(name, sizeof(name), "q%d", i);
        runner.AddQuery(BenchQuery(name, /*adaptive=*/true));
      }
    };
    VectorSource source(w.arrival_order);

    const double seq_s = BestWallSeconds([&] {
      MultiQueryRunner runner(MultiQueryRunner::Plan::kIndependent);
      add_queries(runner);
      source.Reset();
      runner.Run(&source);
    });
    table.BeginRow();
    table.Cell(nq);
    table.Cell("sequential");
    table.Cell(seq_s * 1e3, 1);
    table.Cell(mev * nq / seq_s, 2);
    table.Cell(1.0, 2);

    const double par_s = BestWallSeconds([&] {
      ParallelMultiQueryRunner runner;
      add_queries(runner);
      source.Reset();
      runner.Run(&source);
    });
    table.BeginRow();
    table.Cell(nq);
    table.Cell("parallel");
    table.Cell(par_s * 1e3, 1);
    table.Cell(mev * nq / par_s, 2);
    table.Cell(seq_s / par_s, 2);
  }
  EmitTable(table, "f16_parallel_queries.csv");
}

void ShardedKeyed(const GeneratedWorkload& w) {
  ContinuousQuery q;
  q.name = "keyed";
  q.handler = DisorderHandlerSpec::Fixed(Millis(30)).PerKey();
  q.window.window = WindowSpec::Tumbling(Millis(50));
  q.window.aggregate.kind = AggKind::kSum;
  q.window.per_key_watermarks = true;

  TableWriter table("R-F16c: one keyed query, key space sharded across "
                    "worker threads",
                    {"shards", "wall_ms", "mev_per_s",
                     "speedup_vs_sequential"});
  const double mev = static_cast<double>(w.arrival_order.size()) / 1e6;
  VectorSource source(w.arrival_order);

  const double seq_s = BestWallSeconds([&] {
    QueryExecutor exec(q);
    source.Reset();
    exec.Run(&source);
  });
  table.BeginRow();
  table.Cell("sequential");
  table.Cell(seq_s * 1e3, 1);
  table.Cell(mev / seq_s, 2);
  table.Cell(1.0, 2);

  for (size_t shards : {size_t{1}, size_t{2}, size_t{4}}) {
    const double s = BestWallSeconds([&] {
      ShardedKeyedRunner runner(q, shards);
      source.Reset();
      runner.Run(&source);
    });
    char label[16];
    std::snprintf(label, sizeof(label), "S=%zu", shards);
    table.BeginRow();
    table.Cell(label);
    table.Cell(s * 1e3, 1);
    table.Cell(mev / s, 2);
    table.Cell(seq_s / s, 2);
  }
  EmitTable(table, "f16_sharded_keyed.csv");
}

void Run() {
  std::cout << "hardware_concurrency=" << std::thread::hardware_concurrency()
            << "\n\n";

  WorkloadConfig big = BaseConfig(1000000);
  big.delay.model = DelayModel::kExponential;
  big.delay.a = 20000.0;
  BatchSweep(GenerateWorkload(big));

  WorkloadConfig mid = BaseConfig(200000);
  mid.delay.model = DelayModel::kExponential;
  mid.delay.a = 20000.0;
  ParallelQueries(GenerateWorkload(mid));

  WorkloadConfig keyed = BaseConfig(200000);
  keyed.delay.model = DelayModel::kExponential;
  keyed.delay.a = 20000.0;
  keyed.num_keys = 16;
  ShardedKeyed(GenerateWorkload(keyed));
}

}  // namespace
}  // namespace bench
}  // namespace streamq

int main() {
  streamq::bench::Run();
  return 0;
}
