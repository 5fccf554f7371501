/// R-F4 — The latency/quality trade-off of fixed K-slack.
///
/// Sweeps the buffer bound K on three stationary delay distributions and
/// reports, per point, the mean/p95 buffering latency and the achieved
/// coverage and value quality. This is the curve that motivates the paper:
/// quality saturates while latency keeps growing linearly in K, and the
/// "right" K differs per distribution — hence drive the buffer by quality,
/// not by K.

#include <iostream>

#include "bench/bench_util.h"
#include "core/latency_recorder.h"

namespace streamq {
namespace bench {
namespace {

void Run() {
  const int64_t kNumEvents = 100000;
  TableWriter table("R-F4: fixed K-slack latency vs quality trade-off",
                    {"workload", "K_ms", "buf_latency_mean_ms",
                     "buf_latency_p95_ms", "coverage", "value_quality",
                     "late_frac"});

  WindowedAggregation::Options wopts;
  wopts.window = WindowSpec::Tumbling(Millis(50));
  wopts.aggregate.kind = AggKind::kSum;

  for (const NamedWorkload& nw : StandardWorkloads(kNumEvents)) {
    // Stationary regimes only: the trade-off curve is a stationary concept.
    if (nw.config.dynamics.kind != DynamicsKind::kStationary) continue;
    const GeneratedWorkload w = GenerateWorkload(nw.config);
    const OracleEvaluator oracle(w.arrival_order, wopts.window,
                                 wopts.aggregate);

    for (DurationUs k :
         {Millis(0), Millis(2), Millis(5), Millis(10), Millis(20), Millis(40),
          Millis(80), Millis(160), Millis(320)}) {
      ContinuousQuery q;
      q.name = "f4";
      q.handler = DisorderHandlerSpec::Fixed(k);
      q.window = wopts;
      LatencyRecorder latencies;
      const ScoredRun run = RunScored(q, w, oracle, &latencies);
      const DistributionSummary lat = Summarize(latencies.series());
      table.BeginRow();
      table.Cell(nw.name);
      table.Cell(ToMillis(k), 0);
      table.Cell(lat.mean / 1000.0, 3);
      table.Cell(lat.p95 / 1000.0, 3);
      table.Cell(run.quality.coverage.mean, 4);
      table.Cell(run.quality.MeanQualityIncludingMissed(), 4);
      table.Cell(static_cast<double>(run.report.handler_stats.events_late) /
                     static_cast<double>(run.report.handler_stats.events_in),
                 4);
    }
  }
  EmitTable(table, "f4_tradeoff.csv");
}

}  // namespace
}  // namespace bench
}  // namespace streamq

int main() {
  streamq::bench::Run();
  return 0;
}
