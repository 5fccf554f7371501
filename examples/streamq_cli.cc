/// streamq_cli — run a continuous query over a trace file from the command
/// line; the operational front door for evaluating the engine on recorded
/// feeds.
///
/// Usage:
///   streamq_cli --trace=feed.csv [options]
///   streamq_cli --demo            (generate a demo workload instead)
///
/// Session options (shared with the server's RegisterQuery frames and the
/// load generator — see core/session_options.h for the full list):
///   --window=<ms> --slide=<ms> --agg=<name> --strategy=<s> --quality=<q>
///   --latency-budget=<ms> --k=<ms> --per-key --lateness=<ms>
///   --threads=<n> --vshards=<v> --steal
///   --buffer-cap=<n> --shed=<policy> --max-slack=<ms> --validate=<mode>
///   --window-engine=<hot|amend> --speculative
///
/// CLI-only options:
///   --audit                score results against the exact oracle
///   --results=<n>          print the first n results, default 0
///   --metrics-out=<path>   export pipeline metrics after the run ("-" for
///                          stdout); also enables a periodic progress line
///                          on stderr while the stream is running
///   --metrics-format=<f>   prom (default) | json
///
/// Fault injection (all probabilities per tuple, default 0 = off):
///   --fault-seed=<n>       fault RNG seed, default 42
///   --fault-drop=<p>       drop the tuple
///   --fault-dup=<p>        duplicate the tuple
///   --fault-ts=<p>         corrupt timestamps (negative/overflow/clock
///                          regression)
///   --fault-value=<p>      corrupt the value (NaN/Inf)
///   --fault-stall=<p>      wall-clock stall before delivery
///   --fault-stall-us=<us>  stall length, default 1000
///   --fault-burst=<p>      start a disorder burst
///   --fault-burst-len=<n>  tuples per burst, default 32
///   --fault-burst-spread=<ms>  event-time spread of a burst, default 100
///
/// Unknown flags are rejected with a non-zero exit and a closest-match
/// hint ("unknown flag --thread (did you mean --threads?)").

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/metrics_observer.h"
#include "core/session_options.h"
#include "core/stream_session.h"
#include "quality/oracle.h"
#include "quality/quality_metrics.h"
#include "stream/disorder_metrics.h"
#include "stream/fault_injector.h"
#include "stream/generator.h"
#include "stream/trace_io.h"

using namespace streamq;  // Example/tool code only.

namespace {

/// Flags the CLI adds on top of the shared SessionOptions vocabulary.
struct CliFlags {
  std::string trace;
  bool demo = false;
  bool audit = false;
  int64_t print_results = 0;
  std::string metrics_out;
  std::string metrics_format = "prom";
  FaultSpec fault;
};

/// The CLI-only flag names, for the did-you-mean hint.
const std::vector<std::string>& CliOnlyFlags() {
  static const std::vector<std::string> kFlags = {
      "--trace", "--demo", "--audit", "--results", "--metrics-out",
      "--metrics-format", "--fault-seed", "--fault-drop", "--fault-dup",
      "--fault-ts", "--fault-value", "--fault-stall", "--fault-stall-us",
      "--fault-burst", "--fault-burst-len", "--fault-burst-spread"};
  return kFlags;
}

/// True if any fault class is enabled (the injector is only interposed
/// then, so the default path stays byte-identical to before).
bool FaultsEnabled(const FaultSpec& f) {
  return f.drop_prob > 0.0 || f.duplicate_prob > 0.0 ||
         f.timestamp_corrupt_prob > 0.0 || f.value_corrupt_prob > 0.0 ||
         f.stall_prob > 0.0 || f.burst_prob > 0.0;
}

/// The CLI's observer: full metrics collection plus a ~2 Hz progress line on
/// stderr so long trace replays are visibly alive.
class CliObserver : public MetricsObserver {
 public:
  void OnSourceBatch(int64_t events) override {
    MetricsObserver::OnSourceBatch(events);
    events_seen_ += events;
    const TimestampUs now = WallClockMicros();
    if (start_ == 0) start_ = now;
    if (now - last_print_ < Millis(500)) return;
    last_print_ = now;
    const double elapsed = ToSeconds(now - start_);
    std::fprintf(stderr, "[streamq] %lld events in %.1fs (%.0f kev/s)\n",
                 static_cast<long long>(events_seen_), elapsed,
                 elapsed > 0.0 ? static_cast<double>(events_seen_) /
                                     elapsed / 1000.0
                               : 0.0);
  }

 private:
  int64_t events_seen_ = 0;
  TimestampUs start_ = 0;
  TimestampUs last_print_ = 0;
};

/// Writes the snapshot in the requested format to `path` ("-" = stdout).
bool WriteMetrics(const MetricsSnapshot& snapshot, const std::string& path,
                  const std::string& format) {
  const std::string text =
      format == "json" ? snapshot.ToJson() : snapshot.ToPrometheusText();
  if (path == "-") {
    std::fwrite(text.data(), 1, text.size(), stdout);
    return true;
  }
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "failed to open %s for writing\n", path.c_str());
    return false;
  }
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  std::printf("metrics written to %s (%s)\n", path.c_str(), format.c_str());
  return true;
}

bool TakeFlag(const std::string& arg, const char* name, std::string* out) {
  const size_t len = std::strlen(name);
  if (arg.compare(0, len, name) == 0 && arg.size() > len &&
      arg[len] == '=') {
    *out = arg.substr(len + 1);
    return true;
  }
  return false;
}

bool ParseNumeric(const std::string& arg, const char* name,
                  const std::string& value, double* out) {
  const Status parsed = ParseDoubleStrict(value, out);
  if (!parsed.ok()) {
    std::fprintf(stderr, "bad %s: %s\n", name, parsed.ToString().c_str());
    return false;
  }
  (void)arg;
  return true;
}

/// Consumes the tokens SessionOptions::ParseTokens did not recognize.
/// Anything left after the CLI's own flags is a hard error with a
/// closest-match hint.
bool ParseCliFlags(const std::vector<std::string>& tokens, CliFlags* flags) {
  for (const std::string& arg : tokens) {
    std::string value;
    double num = 0.0;
    if (arg == "--demo") {
      flags->demo = true;
    } else if (arg == "--audit") {
      flags->audit = true;
    } else if (TakeFlag(arg, "--trace", &value)) {
      flags->trace = value;
    } else if (TakeFlag(arg, "--results", &value)) {
      if (!ParseInt64Strict(value, &flags->print_results).ok()) {
        std::fprintf(stderr, "bad --results: %s\n", value.c_str());
        return false;
      }
    } else if (TakeFlag(arg, "--metrics-out", &value)) {
      flags->metrics_out = value;
    } else if (TakeFlag(arg, "--metrics-format", &value)) {
      flags->metrics_format = value;
    } else if (TakeFlag(arg, "--fault-seed", &value)) {
      int64_t seed = 0;
      if (!ParseInt64Strict(value, &seed).ok()) {
        std::fprintf(stderr, "bad --fault-seed: %s\n", value.c_str());
        return false;
      }
      flags->fault.seed = static_cast<uint64_t>(seed);
    } else if (TakeFlag(arg, "--fault-drop", &value)) {
      if (!ParseNumeric(arg, "--fault-drop", value, &num)) return false;
      flags->fault.drop_prob = num;
    } else if (TakeFlag(arg, "--fault-dup", &value)) {
      if (!ParseNumeric(arg, "--fault-dup", value, &num)) return false;
      flags->fault.duplicate_prob = num;
    } else if (TakeFlag(arg, "--fault-ts", &value)) {
      if (!ParseNumeric(arg, "--fault-ts", value, &num)) return false;
      flags->fault.timestamp_corrupt_prob = num;
    } else if (TakeFlag(arg, "--fault-value", &value)) {
      if (!ParseNumeric(arg, "--fault-value", value, &num)) return false;
      flags->fault.value_corrupt_prob = num;
    } else if (TakeFlag(arg, "--fault-stall", &value)) {
      if (!ParseNumeric(arg, "--fault-stall", value, &num)) return false;
      flags->fault.stall_prob = num;
    } else if (TakeFlag(arg, "--fault-stall-us", &value)) {
      if (!ParseInt64Strict(value, &flags->fault.stall_us).ok()) {
        std::fprintf(stderr, "bad --fault-stall-us: %s\n", value.c_str());
        return false;
      }
    } else if (TakeFlag(arg, "--fault-burst", &value)) {
      if (!ParseNumeric(arg, "--fault-burst", value, &num)) return false;
      flags->fault.burst_prob = num;
    } else if (TakeFlag(arg, "--fault-burst-len", &value)) {
      if (!ParseInt64Strict(value, &flags->fault.burst_len).ok()) {
        std::fprintf(stderr, "bad --fault-burst-len: %s\n", value.c_str());
        return false;
      }
    } else if (TakeFlag(arg, "--fault-burst-spread", &value)) {
      int64_t ms = 0;
      if (!ParseInt64Strict(value, &ms).ok()) {
        std::fprintf(stderr, "bad --fault-burst-spread: %s\n", value.c_str());
        return false;
      }
      flags->fault.burst_spread_us = Millis(ms);
    } else {
      const std::string hint = SuggestFlag(arg, CliOnlyFlags());
      if (hint.empty()) {
        std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      } else {
        std::fprintf(stderr, "unknown flag: %s (did you mean %s?)\n",
                     arg.c_str(), hint.c_str());
      }
      return false;
    }
  }
  if (flags->trace.empty() && !flags->demo) {
    std::fprintf(stderr,
                 "usage: streamq_cli --trace=feed.csv | --demo [options]\n"
                 "(see the header of examples/streamq_cli.cc)\n");
    return false;
  }
  if (flags->metrics_format != "prom" && flags->metrics_format != "json") {
    std::fprintf(stderr, "bad --metrics-format: %s (want prom or json)\n",
                 flags->metrics_format.c_str());
    return false;
  }
  const Status fault_ok = flags->fault.Validate();
  if (!fault_ok.ok()) {
    std::fprintf(stderr, "bad fault flags: %s\n",
                 fault_ok.ToString().c_str());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  // Session flags go through the shared parser; whatever it does not
  // recognize comes back for the CLI-only pass.
  SessionOptions options;
  options.Name("cli");
  std::vector<std::string> leftover;
  const Status parsed = SessionOptions::ParseArgs(argc, argv, &options,
                                                  &leftover);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.ToString().c_str());
    return 2;
  }
  CliFlags flags;
  if (!ParseCliFlags(leftover, &flags)) return 2;
  const Status valid = options.Validate();
  if (!valid.ok()) {
    std::fprintf(stderr, "%s\n", valid.ToString().c_str());
    return 2;
  }

  // --- Load or generate the stream.
  std::vector<Event> events;
  if (flags.demo) {
    WorkloadConfig cfg;
    cfg.num_events = 100000;
    cfg.num_keys = 4;
    cfg.delay.model = DelayModel::kLogNormal;
    cfg.delay.a = 9.5;
    cfg.delay.b = 1.0;
    events = GenerateWorkload(cfg).arrival_order;
    std::printf("generated demo workload: 100000 events\n");
  } else {
    auto loaded = LoadTrace(flags.trace);
    if (!loaded.ok()) {
      std::fprintf(stderr, "failed to load %s: %s\n", flags.trace.c_str(),
                   loaded.status().ToString().c_str());
      return 1;
    }
    events = std::move(loaded).value();
  }
  std::printf("stream: %s\n", ComputeDisorderStats(events).ToString().c_str());

  // --- Open the session (builds the query and the runtime in one step).
  auto session = StreamSession::Open(options);
  if (!session.ok()) {
    std::fprintf(stderr, "%s\n", session.status().ToString().c_str());
    return 2;
  }
  std::printf("query: %s\n", session.value()->query().Describe().c_str());

  // --- Run.
  CliObserver observer;
  const bool want_metrics = !flags.metrics_out.empty();
  if (want_metrics) session.value()->SetObserver(&observer);
  VectorSource source(std::move(events));
  RunReport report;
  if (FaultsEnabled(flags.fault)) {
    FaultInjectingSource faulty(&source, flags.fault);
    report = session.value()->Run(&faulty);
    std::printf("faults: %s\n", faulty.stats().ToString().c_str());
  } else {
    report = session.value()->Run(&source);
  }
  std::printf("%s\n", report.ToString().c_str());
  if (!report.status.ok()) {
    std::fprintf(stderr, "run degraded: %s\n",
                 report.status.ToString().c_str());
  }

  if (want_metrics &&
      !WriteMetrics(observer.Snapshot(), flags.metrics_out,
                    flags.metrics_format)) {
    return 1;
  }

  for (int64_t i = 0;
       i < flags.print_results &&
       i < static_cast<int64_t>(report.results.size());
       ++i) {
    std::printf("  %s\n",
                report.results[static_cast<size_t>(i)].ToString().c_str());
  }

  // --- Optional oracle audit.
  if (flags.audit) {
    const ContinuousQuery& query = session.value()->query();
    const OracleEvaluator oracle(source.events(), query.window.window,
                                 query.window.aggregate);
    const QualityReport quality = EvaluateQuality(report.results, oracle);
    std::printf("audit: %s\n", quality.ToString().c_str());
  }
  return 0;
}
