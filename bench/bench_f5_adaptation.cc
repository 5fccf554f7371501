/// R-F5 — Buffer-bound adaptation under a disorder regime change.
///
/// Runs fixed K-slack, MP-K-slack (sliding max) and AQ-K-slack over a
/// stream whose delay scale steps up x5 mid-stream, and prints the slack K
/// each operator uses over time. The reproduced shape: fixed K is flat (and
/// wrong on one side of the step); MP-K-slack jumps to the new max and stays
/// pinned to worst case; AQ-K-slack settles at the (much lower) quantile the
/// quality target requires, on both sides of the step.

#include <iostream>

#include "bench/bench_util.h"
#include "disorder/event_sink.h"

namespace streamq {
namespace bench {
namespace {

struct SlackSample {
  TimestampUs stream_time;
  DurationUs k;
};

/// Runs a raw handler over the stream, sampling current_slack() every
/// `sample_every` tuples.
std::vector<SlackSample> TraceSlack(DisorderHandler* handler,
                                    const std::vector<Event>& arrivals,
                                    int64_t sample_every) {
  CountingSink sink;
  std::vector<SlackSample> samples;
  int64_t i = 0;
  for (const Event& e : arrivals) {
    handler->OnEvent(e, &sink);
    if (++i % sample_every == 0) {
      samples.push_back({e.arrival_time, handler->current_slack()});
    }
  }
  handler->Flush(&sink);
  return samples;
}

void Run() {
  WorkloadConfig cfg = BaseConfig(100000);
  cfg.delay.model = DelayModel::kExponential;
  cfg.delay.a = 10000.0;
  cfg.dynamics.kind = DynamicsKind::kStep;
  cfg.dynamics.factor = 5.0;
  cfg.dynamics.t0 = Seconds(5);
  const GeneratedWorkload w = GenerateWorkload(cfg);

  const int64_t kSampleEvery = 2000;

  FixedKSlack fixed(Millis(30));
  MpKSlack mp(MpKSlack::Options{});
  AqKSlack::Options aq_options;
  aq_options.target_quality = 0.95;
  AqKSlack aq(aq_options);

  const auto fixed_trace = TraceSlack(&fixed, w.arrival_order, kSampleEvery);
  const auto mp_trace = TraceSlack(&mp, w.arrival_order, kSampleEvery);
  const auto aq_trace = TraceSlack(&aq, w.arrival_order, kSampleEvery);

  TableWriter table(
      "R-F5: slack K over time under a x5 delay step at t=5s (q*=0.95)",
      {"stream_time_s", "fixed_K_ms", "mp_kslack_K_ms", "aq_kslack_K_ms"});
  for (size_t i = 0; i < aq_trace.size(); ++i) {
    table.BeginRow();
    table.Cell(ToSeconds(aq_trace[i].stream_time), 2);
    table.Cell(ToMillis(fixed_trace[i].k), 2);
    table.Cell(ToMillis(mp_trace[i].k), 2);
    table.Cell(ToMillis(aq_trace[i].k), 2);
  }
  EmitTable(table, "f5_adaptation.csv");

  std::cout << "fixed:     " << fixed.stats().ToString() << "\n"
            << "mp-kslack: " << mp.stats().ToString() << "\n"
            << "aq-kslack: " << aq.stats().ToString() << std::endl;
}

}  // namespace
}  // namespace bench
}  // namespace streamq

int main() {
  streamq::bench::Run();
  return 0;
}
