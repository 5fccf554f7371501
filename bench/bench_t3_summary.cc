/// R-T3 — Headline comparison: quality-driven execution vs all baselines,
/// across every workload regime.
///
/// For each workload: quality and latency of pass-through (no handling),
/// fixed K-slack at a single globally chosen K (what an operator without
/// hindsight would deploy), MP-K-slack, the speculative strategy
/// (pass-through + revisions), and AQ-K-slack at q* = 0.95. Reproduced
/// shape: AQ meets the target everywhere with latency well below
/// MP-K-slack; the single fixed K is sometimes too small (quality miss) and
/// sometimes too large (latency waste) — it cannot be right for every
/// regime, which is the paper's core argument.

#include <iostream>

#include "bench/bench_util.h"
#include "core/latency_recorder.h"

namespace streamq {
namespace bench {
namespace {

void Run() {
  const int64_t kNumEvents = 80000;
  WindowedAggregation::Options wopts;
  wopts.window = WindowSpec::Tumbling(Millis(50));
  wopts.aggregate.kind = AggKind::kSum;

  TableWriter table(
      "R-T3: strategy comparison across workloads (q*=0.95, window 50ms, "
      "sum)",
      {"workload", "strategy", "first_quality", "final_quality",
       "frac>=0.95", "buf_latency_mean_ms", "buf_latency_p95_ms",
       "revisions"});

  for (const NamedWorkload& nw : StandardWorkloads(kNumEvents)) {
    const GeneratedWorkload w = GenerateWorkload(nw.config);
    const OracleEvaluator oracle(w.arrival_order, wopts.window,
                                 wopts.aggregate);

    struct Strategy {
      const char* name;
      ContinuousQuery query;
    };
    std::vector<Strategy> strategies;

    {
      ContinuousQuery q;
      q.handler = DisorderHandlerSpec::PassThrough();
      q.window = wopts;
      strategies.push_back({"pass-through", q});
    }
    {
      ContinuousQuery q;
      q.handler = DisorderHandlerSpec::PassThrough();
      q.window = wopts;
      q.window.allowed_lateness = Seconds(2);
      q.window.emit_revision_per_update = false;
      strategies.push_back({"speculative", q});
    }
    {
      ContinuousQuery q;
      q.handler = DisorderHandlerSpec::Fixed(Millis(40));  // One global K.
      q.window = wopts;
      strategies.push_back({"fixed-K(40ms)", q});
    }
    {
      ContinuousQuery q;
      q.handler = DisorderHandlerSpec::Mp({});
      q.window = wopts;
      strategies.push_back({"mp-kslack", q});
    }
    {
      AqKSlack::Options aq;
      aq.target_quality = 0.95;
      ContinuousQuery q;
      q.handler = DisorderHandlerSpec::Aq(aq);
      q.window = wopts;
      strategies.push_back({"aq-kslack(0.95)", q});
    }

    for (auto& s : strategies) {
      s.query.name = s.name;
      LatencyRecorder latencies;
      const ScoredRun r = RunScored(s.query, w, oracle, &latencies);
      QualityEvalOptions final_opts;
      final_opts.use_final_emission = true;
      const QualityReport final_quality =
          EvaluateQuality(r.report.results, oracle, final_opts);
      const DistributionSummary lat = Summarize(latencies.series());
      table.BeginRow();
      table.Cell(nw.name);
      table.Cell(s.name);
      table.Cell(r.quality.MeanQualityIncludingMissed(), 4);
      table.Cell(final_quality.MeanQualityIncludingMissed(), 4);
      table.Cell(r.quality.FractionMeeting(0.95), 4);
      table.Cell(lat.mean / 1000.0, 3);
      table.Cell(lat.p95 / 1000.0, 3);
      table.Cell(r.report.window_stats.revisions);
    }
  }
  EmitTable(table, "t3_summary.csv");
}

}  // namespace
}  // namespace bench
}  // namespace streamq

int main() {
  streamq::bench::Run();
  return 0;
}
