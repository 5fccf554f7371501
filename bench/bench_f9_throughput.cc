/// R-F9 — Operator throughput (google-benchmark).
///
/// Per-handler processing rate on a pre-generated 200k-tuple stream, with
/// and without the downstream window operator. Reproduced shape: all
/// buffering handlers sit within a small factor of pass-through; the
/// quality-control loop adds only a small overhead on top of fixed K-slack
/// (its work is O(1) amortized per tuple plus a quantile query per
/// adaptation interval).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <span>

#include "bench/bench_util.h"
#include "core/multi_query.h"
#include "core/parallel_runner.h"
#include "disorder/event_sink.h"

namespace streamq {
namespace bench {
namespace {

const GeneratedWorkload& Workload() {
  static const GeneratedWorkload* w = [] {
    WorkloadConfig cfg = BaseConfig(200000);
    cfg.delay.model = DelayModel::kExponential;
    cfg.delay.a = 20000.0;
    return new GeneratedWorkload(GenerateWorkload(cfg));
  }();
  return *w;
}

DisorderHandlerSpec SpecFor(int which) {
  DisorderHandlerSpec s;
  switch (which) {
    case 0:
      s = DisorderHandlerSpec::PassThrough();
      break;
    case 1:
      s = DisorderHandlerSpec::Fixed(Millis(30));
      break;
    case 2: {
      MpKSlack::Options mp;
      s = DisorderHandlerSpec::Mp(mp);
      break;
    }
    case 3: {
      AqKSlack::Options aq;
      aq.target_quality = 0.95;
      s = DisorderHandlerSpec::Aq(aq);
      break;
    }
    default: {
      WatermarkReorderer::Options wm;
      wm.bound = Millis(30);
      wm.period_events = 32;
      s = DisorderHandlerSpec::Watermark(wm);
      break;
    }
  }
  // Throughput runs measure the hot path, not percentile bookkeeping.
  return s.WithLatencySamples(false);
}

const char* NameFor(int which) {
  switch (which) {
    case 0:
      return "pass-through";
    case 1:
      return "fixed-kslack";
    case 2:
      return "mp-kslack";
    case 3:
      return "aq-kslack";
    default:
      return "watermark";
  }
}

/// Handler alone, results discarded (isolates the disorder-handling cost).
void BM_HandlerOnly(benchmark::State& state) {
  const auto& w = Workload();
  for (auto _ : state) {
    auto handler =
        MakeDisorderHandlerOrDie(SpecFor(static_cast<int>(state.range(0))));
    CountingSink sink;
    for (const Event& e : w.arrival_order) handler->OnEvent(e, &sink);
    handler->Flush(&sink);
    benchmark::DoNotOptimize(sink.checksum);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(w.arrival_order.size()));
  state.SetLabel(NameFor(static_cast<int>(state.range(0))));
}
BENCHMARK(BM_HandlerOnly)->DenseRange(0, 4)->Unit(benchmark::kMillisecond);

/// Full pipeline: handler + windowed aggregation.
void BM_FullPipeline(benchmark::State& state) {
  const auto& w = Workload();
  for (auto _ : state) {
    ContinuousQuery q;
    q.name = "bench";
    q.handler = SpecFor(static_cast<int>(state.range(0)));
    q.window.window = WindowSpec::Tumbling(Millis(50));
    q.window.aggregate.kind = AggKind::kSum;
    QueryExecutor exec(q);
    for (const Event& e : w.arrival_order) exec.Feed(e);
    exec.Finish();
    benchmark::DoNotOptimize(exec.results().size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(w.arrival_order.size()));
  state.SetLabel(NameFor(static_cast<int>(state.range(0))));
}
BENCHMARK(BM_FullPipeline)->DenseRange(0, 4)->Unit(benchmark::kMillisecond);

/// Sliding windows multiply per-tuple work by size/slide; measure scaling.
void BM_SlidingWindowFanout(benchmark::State& state) {
  const auto& w = Workload();
  const int64_t fanout = state.range(0);
  for (auto _ : state) {
    ContinuousQuery q;
    q.name = "bench";
    q.handler = DisorderHandlerSpec::Fixed(Millis(30));
    q.window.window =
        WindowSpec::Sliding(Millis(50) * fanout, Millis(50));
    q.window.aggregate.kind = AggKind::kSum;
    QueryExecutor exec(q);
    for (const Event& e : w.arrival_order) exec.Feed(e);
    exec.Finish();
    benchmark::DoNotOptimize(exec.results().size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(w.arrival_order.size()));
}
BENCHMARK(BM_SlidingWindowFanout)
    ->Arg(1)
    ->Arg(4)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond);

/// 1M-tuple workload for the batch-size sweep (big enough that steady-state
/// per-tuple cost dominates setup).
const GeneratedWorkload& BigWorkload() {
  static const GeneratedWorkload* w = [] {
    WorkloadConfig cfg = BaseConfig(1000000);
    cfg.delay.model = DelayModel::kExponential;
    cfg.delay.a = 20000.0;
    return new GeneratedWorkload(GenerateWorkload(cfg));
  }();
  return *w;
}

/// Batched hot path: the full pipeline fed through FeedBatch in chunks of
/// range(1) events. batch=1 is the per-tuple dispatch cost floor; larger
/// batches amortize virtual dispatch and buffer churn. Output is identical
/// across batch sizes (OnBatch contract), so this isolates mechanics.
void BM_FullPipelineBatchSweep(benchmark::State& state) {
  const auto& w = BigWorkload();
  const size_t batch = static_cast<size_t>(state.range(1));
  const std::span<const Event> events(w.arrival_order);
  for (auto _ : state) {
    ContinuousQuery q;
    q.name = "bench";
    q.handler = SpecFor(static_cast<int>(state.range(0)));
    q.window.window = WindowSpec::Tumbling(Millis(50));
    q.window.aggregate.kind = AggKind::kSum;
    QueryExecutor exec(q);
    for (size_t i = 0; i < events.size(); i += batch) {
      exec.FeedBatch(events.subspan(i, std::min(batch, events.size() - i)));
    }
    exec.Finish();
    benchmark::DoNotOptimize(exec.results().size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(events.size()));
  state.SetLabel(NameFor(static_cast<int>(state.range(0))));
}
BENCHMARK(BM_FullPipelineBatchSweep)
    ->ArgsProduct({{1, 3}, {1, 16, 256, 4096}})
    ->Unit(benchmark::kMillisecond);

/// Thread scaling: N identical independent queries over one stream,
/// sequential (shared feed loop) vs one worker thread per query. Equal
/// work per configuration, so wall-time ratio is the parallel speedup.
void BM_MultiQuerySequential(benchmark::State& state) {
  const auto& w = Workload();
  const int num_queries = static_cast<int>(state.range(0));
  VectorSource source(w.arrival_order);
  for (auto _ : state) {
    MultiQueryRunner runner(MultiQueryRunner::Plan::kIndependent);
    for (int i = 0; i < num_queries; ++i) {
      ContinuousQuery q;
      q.name = "bench";
      q.handler = SpecFor(3);
      q.window.window = WindowSpec::Tumbling(Millis(50));
      q.window.aggregate.kind = AggKind::kSum;
      runner.AddQuery(q);
    }
    source.Reset();
    const auto reports = runner.Run(&source);
    benchmark::DoNotOptimize(reports.size());
  }
  state.SetItemsProcessed(state.iterations() * num_queries *
                          static_cast<int64_t>(w.arrival_order.size()));
}
BENCHMARK(BM_MultiQuerySequential)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

void BM_MultiQueryParallel(benchmark::State& state) {
  const auto& w = Workload();
  const int num_queries = static_cast<int>(state.range(0));
  VectorSource source(w.arrival_order);
  for (auto _ : state) {
    ParallelMultiQueryRunner runner;
    for (int i = 0; i < num_queries; ++i) {
      ContinuousQuery q;
      q.name = "bench";
      q.handler = SpecFor(3);
      q.window.window = WindowSpec::Tumbling(Millis(50));
      q.window.aggregate.kind = AggKind::kSum;
      runner.AddQuery(q);
    }
    source.Reset();
    const auto reports = runner.Run(&source);
    benchmark::DoNotOptimize(reports.size());
  }
  state.SetItemsProcessed(state.iterations() * num_queries *
                          static_cast<int64_t>(w.arrival_order.size()));
}
BENCHMARK(BM_MultiQueryParallel)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bench
}  // namespace streamq

BENCHMARK_MAIN();
