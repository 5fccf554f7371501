/// Component microbenchmarks (google-benchmark): the per-tuple costs that
/// determine engine throughput — buffer operations, the lateness sketch,
/// the control step, the AQ-K-slack handler alone, window assignment and
/// aggregate updates.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "agg/aggregate.h"
#include "common/rng.h"
#include "common/stats.h"
#include "control/pi_controller.h"
#include "disorder/handler_factory.h"
#include "disorder/reorder_buffer.h"
#include "stream/generator.h"
#include "window/window.h"

namespace streamq {
namespace {

void BM_ReorderBufferPushPop(benchmark::State& state) {
  const int64_t buffered = state.range(0);
  Rng rng(1);
  std::vector<Event> events(static_cast<size_t>(buffered) + 1024);
  for (size_t i = 0; i < events.size(); ++i) {
    events[i].id = static_cast<int64_t>(i);
    events[i].event_time = rng.NextInt(0, 1 << 20);
  }
  ReorderBuffer buf;
  size_t next = 0;
  for (int64_t i = 0; i < buffered; ++i) buf.Push(events[next++]);
  Event out;
  for (auto _ : state) {
    // Steady state: one push + one pop at constant occupancy.
    buf.Push(events[next % events.size()]);
    ++next;
    buf.PopMin(&out);
    benchmark::DoNotOptimize(out.event_time);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ReorderBufferPushPop)->Arg(64)->Arg(1024)->Arg(16384);

void BM_SlidingSketchAdd(benchmark::State& state) {
  SlidingWindowQuantile sketch(static_cast<size_t>(state.range(0)));
  Rng rng(2);
  for (auto _ : state) {
    sketch.Add(rng.NextDouble());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SlidingSketchAdd)->Arg(1024)->Arg(4096)->Arg(16384);

void BM_SlidingSketchQuantile(benchmark::State& state) {
  SlidingWindowQuantile sketch(static_cast<size_t>(state.range(0)));
  Rng rng(3);
  for (int64_t i = 0; i < state.range(0); ++i) sketch.Add(rng.NextDouble());
  for (auto _ : state) {
    benchmark::DoNotOptimize(sketch.Quantile(0.95));
  }
}
BENCHMARK(BM_SlidingSketchQuantile)->Arg(1024)->Arg(4096)->Arg(16384);

// The quality controller's cadence: one adaptation interval of adds into a
// full window (each evicting the oldest value), then one Quantile(0.95).
// Values are integer microsecond latenesses, `zero_share` of them zero.
void RunSketchControlStep(benchmark::State& state, double zero_share) {
  constexpr int kInterval = 256;
  const auto capacity = static_cast<size_t>(state.range(0));
  SlidingWindowQuantile sketch(capacity);
  Rng rng(6);
  ExponentialDelay delay(5000.0);
  std::vector<double> values(capacity + (1 << 16));
  for (double& v : values) {
    v = rng.NextBool(zero_share) ? 0.0 : std::floor(delay.Sample(&rng));
  }
  size_t next = 0;
  for (size_t i = 0; i < capacity; ++i) sketch.Add(values[next++]);
  for (auto _ : state) {
    for (int i = 0; i < kInterval; ++i) {
      sketch.Add(values[next]);
      if (++next == values.size()) next = 0;
    }
    benchmark::DoNotOptimize(sketch.Quantile(0.95));
  }
  state.SetItemsProcessed(state.iterations() * kInterval);
}

void BM_SlidingSketchControlStep(benchmark::State& state) {
  RunSketchControlStep(state, 1.0 / 3.0);
}
BENCHMARK(BM_SlidingSketchControlStep)->Arg(1024)->Arg(4096)->Arg(65536);

// A nearly in-order stream: 97% of the latenesses are zero, so the 0.95
// quantile lies in the zero bucket, which holds most of the window.
void BM_SlidingSketchControlStepInOrder(benchmark::State& state) {
  RunSketchControlStep(state, 0.97);
}
BENCHMARK(BM_SlidingSketchControlStepInOrder)->Arg(4096);

/// Discards every signal: the handler's own cost with nothing behind it.
class NullSink : public EventSink {
 public:
  void OnEvent(const Event&) override {}
  void OnEvents(std::span<const Event>) override {}
  void OnWatermark(TimestampUs, TimestampUs) override {}
};

// The paper's operator alone, per tuple: the default AQ-K-slack spec
// (q* = 0.95) over perfbench's aq-burst stream at seed 1 (1M events at 10k
// events/s, exponential delay with mean 10 ms, x8 bursts of 400 ms every
// 2 s from t = 1 s), fed in 512-event batches into a null sink, flush
// included. One iteration is a fresh handler over the whole stream, so its
// time in ms reads as ns/event. The config below copies `AqBurstSpec` and
// `BaseConfig` in perfbench/src/inproc.cc field for field (values too:
// they draw from the same RNG as the delays); change them together.
void BM_AqKSlackOnBatch(benchmark::State& state) {
  static const std::vector<Event>* stream = [] {
    WorkloadConfig cfg;
    cfg.num_events = 1000000;
    cfg.events_per_second = 10000.0;
    cfg.value.model = ValueModel::kUniform;
    cfg.value.a = 0.5;
    cfg.value.b = 1.5;
    cfg.delay.model = DelayModel::kExponential;
    cfg.delay.a = 10000.0;
    cfg.dynamics.kind = DynamicsKind::kBurst;
    cfg.dynamics.factor = 8.0;
    cfg.dynamics.t0 = Seconds(1);
    cfg.dynamics.period = Seconds(2);
    cfg.dynamics.duration = Millis(400);
    cfg.seed = 1;
    return new std::vector<Event>(GenerateWorkload(cfg).arrival_order);
  }();
  constexpr size_t kBatch = 512;
  const std::span<const Event> events(*stream);
  NullSink sink;
  for (auto _ : state) {
    std::unique_ptr<DisorderHandler> handler =
        MakeDisorderHandlerOrDie(DisorderHandlerSpec::Aq({}));
    for (size_t i = 0; i < events.size(); i += kBatch) {
      handler->OnBatch(events.subspan(i, std::min(kBatch, events.size() - i)),
                       &sink);
    }
    handler->Flush(&sink);
    benchmark::DoNotOptimize(handler->stats().events_out);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(events.size()));
}
BENCHMARK(BM_AqKSlackOnBatch)->Unit(benchmark::kMillisecond);

// A quantile window of pane runs: range(0) sorted runs of about range(1)
// uniform values each, median across them. 5 x 125 is the amend path's
// sliding 500/100 window; 10 x 64 is the most runs unhinted selections
// still try cuts on; 50 x 16 and 100 x 8 are windows of many short panes
// (size/slide of 50 and 100). `first` selects with no hint, as a
// window's first emission does; `revision` passes the median the window had
// before its latest value arrived, as a revision does. 64 windows rotate so
// the answers are not the same run after run.
void BM_InterpolateRuns(benchmark::State& state, bool revision) {
  struct RunWindow {
    std::vector<std::vector<double>> runs;
    std::vector<std::span<const double>> views;
    double hint = std::numeric_limits<double>::quiet_NaN();
  };
  const auto run_count = static_cast<size_t>(state.range(0));
  const int64_t run_size = state.range(1);
  Rng rng(8);
  std::vector<RunWindow> windows(64);
  for (RunWindow& w : windows) {
    w.runs.resize(run_count);
    for (std::vector<double>& run : w.runs) {
      run.resize(static_cast<size_t>(
          rng.NextInt(run_size - run_size / 8, run_size + run_size / 8)));
      for (double& v : run) v = rng.NextDouble();
      std::sort(run.begin(), run.end());
    }
    w.views.assign(w.runs.begin(), w.runs.end());
    if (revision) {
      // The median without the latest value: drop one value of one run.
      std::vector<std::vector<double>> before = w.runs;
      std::vector<double>& run = before[static_cast<size_t>(
          rng.NextInt(0, static_cast<int64_t>(run_count) - 1))];
      run.erase(run.begin() +
                rng.NextInt(0, static_cast<int64_t>(run.size()) - 1));
      const std::vector<std::span<const double>> views(before.begin(),
                                                       before.end());
      w.hint = InterpolateRuns(views, 0.5);
    }
  }
  size_t next = 0;
  for (auto _ : state) {
    const RunWindow& w = windows[next];
    if (++next == windows.size()) next = 0;
    benchmark::DoNotOptimize(InterpolateRuns(w.views, 0.5, w.hint));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_InterpolateRuns, first, false)
    ->Args({5, 125})
    ->Args({10, 64})
    ->Args({50, 16})
    ->Args({100, 8});
BENCHMARK_CAPTURE(BM_InterpolateRuns, revision, true)
    ->Args({5, 125})
    ->Args({10, 64})
    ->Args({50, 16})
    ->Args({100, 8});

void BM_P2QuantileAdd(benchmark::State& state) {
  P2Quantile est(0.95);
  Rng rng(4);
  for (auto _ : state) {
    est.Add(rng.NextDouble());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_P2QuantileAdd);

void BM_PiControllerUpdate(benchmark::State& state) {
  PiController pi(PiController::Options{});
  Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pi.Update(rng.NextDouble() - 0.5));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PiControllerUpdate);

void BM_AssignWindowsSliding(benchmark::State& state) {
  const WindowSpec spec =
      WindowSpec::Sliding(Millis(50) * state.range(0), Millis(50));
  Rng rng(6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        AssignWindows(spec, rng.NextInt(0, Seconds(100))));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AssignWindowsSliding)->Arg(1)->Arg(4)->Arg(16);

void BM_AggregatorAdd(benchmark::State& state) {
  AggregateSpec spec;
  spec.kind = static_cast<AggKind>(state.range(0));
  auto agg = MakeAggregator(spec);
  Rng rng(7);
  for (auto _ : state) {
    agg->Add(rng.NextDouble());
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(spec.Describe());
}
BENCHMARK(BM_AggregatorAdd)
    ->Arg(static_cast<int>(AggKind::kSum))
    ->Arg(static_cast<int>(AggKind::kMean))
    ->Arg(static_cast<int>(AggKind::kMax))
    ->Arg(static_cast<int>(AggKind::kMedian));

}  // namespace
}  // namespace streamq

BENCHMARK_MAIN();
