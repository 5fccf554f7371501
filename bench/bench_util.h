#ifndef STREAMQ_BENCH_BENCH_UTIL_H_
#define STREAMQ_BENCH_BENCH_UTIL_H_

#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/table_writer.h"
#include "core/executor.h"
#include "core/pipeline_observer.h"
#include "quality/oracle.h"
#include "quality/quality_metrics.h"
#include "stream/generator.h"

namespace streamq {
namespace bench {

/// Named workload regimes shared by the experiment harnesses, mirroring the
/// workload mix a SIGMOD evaluation of this operator family uses: a
/// light-tailed base case, heavier-tailed distributions, and non-stationary
/// dynamics that stress adaptation.
struct NamedWorkload {
  std::string name;
  WorkloadConfig config;
};

inline WorkloadConfig BaseConfig(int64_t num_events) {
  WorkloadConfig cfg;
  cfg.num_events = num_events;
  cfg.events_per_second = 10000.0;
  cfg.value.model = ValueModel::kUniform;
  cfg.value.a = 0.5;
  cfg.value.b = 1.5;
  cfg.seed = 2015;
  return cfg;
}

inline std::vector<NamedWorkload> StandardWorkloads(int64_t num_events) {
  std::vector<NamedWorkload> out;

  {
    NamedWorkload w{"exp-20ms", BaseConfig(num_events)};
    w.config.delay.model = DelayModel::kExponential;
    w.config.delay.a = 20000.0;
    out.push_back(w);
  }
  {
    NamedWorkload w{"lognormal", BaseConfig(num_events)};
    w.config.delay.model = DelayModel::kLogNormal;
    w.config.delay.a = 9.5;  // Median ~13ms.
    w.config.delay.b = 1.0;
    out.push_back(w);
  }
  {
    NamedWorkload w{"pareto-heavy", BaseConfig(num_events)};
    w.config.delay.model = DelayModel::kPareto;
    w.config.delay.a = 2000.0;
    w.config.delay.b = 1.5;
    out.push_back(w);
  }
  {
    NamedWorkload w{"step-x5", BaseConfig(num_events)};
    w.config.delay.model = DelayModel::kExponential;
    w.config.delay.a = 10000.0;
    w.config.dynamics.kind = DynamicsKind::kStep;
    w.config.dynamics.factor = 5.0;
    w.config.dynamics.t0 =
        static_cast<TimestampUs>(num_events / 2 * 100);  // Mid-stream.
    out.push_back(w);
  }
  {
    NamedWorkload w{"burst-x8", BaseConfig(num_events)};
    w.config.delay.model = DelayModel::kExponential;
    w.config.delay.a = 10000.0;
    w.config.dynamics.kind = DynamicsKind::kBurst;
    w.config.dynamics.factor = 8.0;
    w.config.dynamics.t0 = Seconds(1);
    w.config.dynamics.period = Seconds(2);
    w.config.dynamics.duration = Millis(400);
    out.push_back(w);
  }
  {
    NamedWorkload w{"sine", BaseConfig(num_events)};
    w.config.delay.model = DelayModel::kExponential;
    w.config.delay.a = 15000.0;
    w.config.dynamics.kind = DynamicsKind::kSine;
    w.config.dynamics.amplitude = 0.8;
    w.config.dynamics.period = Seconds(2);
    out.push_back(w);
  }
  return out;
}

/// Result of one (query, workload) execution scored against the oracle.
struct ScoredRun {
  RunReport report;
  QualityReport quality;
};

/// `observer` (optional) watches the run: latency percentiles come from a
/// LatencyRecorder here, since handlers keep only the moments.
inline ScoredRun RunScored(const ContinuousQuery& query,
                           const GeneratedWorkload& workload,
                           const OracleEvaluator& oracle,
                           PipelineObserver* observer = nullptr) {
  ScoredRun out;
  QueryExecutor exec(query);
  exec.SetObserver(observer);
  VectorSource source(workload.arrival_order);
  out.report = exec.Run(&source);
  out.quality = EvaluateQuality(out.report.results, oracle);
  return out;
}

/// Prints the table to stdout and saves its CSV under bench_results/.
inline void EmitTable(const TableWriter& table, const std::string& csv_name) {
  table.Print(std::cout);
  std::cout << std::endl;
  std::error_code ec;
  std::filesystem::create_directories("bench_results", ec);
  if (!ec) {
    std::ofstream out("bench_results/" + csv_name);
    out << table.ToCsv();
  }
}

/// Binary-searches the smallest fixed K achieving mean quality >= target on
/// this workload — the "offline oracle tuning" baseline: the best a static
/// configuration could do with perfect hindsight.
inline DurationUs OracleTunedFixedK(const GeneratedWorkload& workload,
                                    const OracleEvaluator& oracle,
                                    const WindowedAggregation::Options& wopts,
                                    double target) {
  DurationUs lo = 0, hi = Millis(1);
  auto quality_at = [&](DurationUs k) {
    ContinuousQuery q;
    q.name = "tuning";
    q.handler = DisorderHandlerSpec::Fixed(k);
    q.window = wopts;
    return RunScored(q, workload, oracle).quality.MeanQualityIncludingMissed();
  };
  while (quality_at(hi) < target && hi < Seconds(300)) hi *= 2;
  while (hi - lo > Millis(1)) {
    const DurationUs mid = lo + (hi - lo) / 2;
    if (quality_at(mid) >= target) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return hi;
}

}  // namespace bench
}  // namespace streamq

#endif  // STREAMQ_BENCH_BENCH_UTIL_H_
