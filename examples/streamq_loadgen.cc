/// streamq_loadgen — multi-client load driver for streamq_server: registers
/// tenants, replays seeded workloads from concurrent connections, and
/// reports delivered throughput, ingest RTT percentiles, and every tenant's
/// final accounting (`in == out + late + shed` must hold, and does).
///
/// Usage:
///   streamq_loadgen --port=<p> [options] [session flags]
///   streamq_loadgen --serve [options]      (spin up an in-process server —
///                                           the single-command smoke test)
///   streamq_loadgen --port=<p> --shutdown  (stop a running server)
///
/// Load options:
///   --clients=<n>    concurrent ingest connections, default 1
///   --tenants=<n>    tenants registered (ids 1..n), default 1
///   --events=<n>     events per tenant, default 100000; 0 = run for
///                    --measure-s instead (duration mode)
///   --rate=<eps>     per-client pacing in events/s (0 = closed loop)
///   --warmup-s=<s>   throwaway warmup traffic seconds, default 0
///   --measure-s=<s>  duration-mode run length, default 5
///   --batch=<n>      events per ingest frame, default 512
///   --seed=<n>       workload seed (replayable), default 42
///   --keys=<n>       keys per tenant workload, default 64
///   --disorder=<ms>  mean exponential arrival delay, default 5
///   --workload-eps=<eps>  event-time rate of each workload, default 10000
///   --csv=<path>     append one result row (header written when new)
///
/// Resilience options (the R-F25 fault-tolerance experiment):
///   --retry             drive through ResilientClient: sequenced idempotent
///                       ingest + automatic reconnect (needs clients <=
///                       tenants); checksums stay identical to a fault-free
///                       run even under --chaos
///   --retry-attempts=<n>  attempts per operation, default 8
///   --chaos=<pct>       shorthand: reset/short-write/corrupt/truncate each
///                       at pct/100 probability per send
///   --chaos-reset=<p> --chaos-short-write=<p> --chaos-corrupt=<p>
///   --chaos-truncate=<p> --chaos-stall=<p>    per-op probabilities in [0,1)
///   --chaos-accept-close=<p>  serve mode only: the in-process server closes
///                       freshly accepted connections with probability p
///   --chaos-seed=<n>    fault-schedule seed (replayable), default 42
///
/// Admission-control options (forwarded to the --serve in-process server):
///   --quota-rate=<eps>      per-tenant token-bucket refill, 0 = unlimited
///   --quota-burst=<n>       bucket capacity, 0 = one second of rate
///   --quota-max-sessions=<n>   concurrent registered tenants, 0 = unlimited
///   --quota-max-buffered=<n>   per-tenant in-flight event cap, 0 = unlimited
///
/// Any session flag (--window, --strategy, --quality, --threads, ... — see
/// core/session_options.h) is forwarded into every tenant's RegisterQuery.
/// Exactly one run is one (clients, tenants) cell; sweeps loop outside.

#include <cstdio>
#include <optional>
#include <string>
#include <sys/stat.h>
#include <vector>

#include "core/session_options.h"
#include "net/client.h"
#include "net/loadgen.h"
#include "net/server.h"

using namespace streamq;  // Example/tool code only.

namespace {

const std::vector<std::string>& LoadGenFlags() {
  static const std::vector<std::string> kFlags = {
      "--port", "--serve", "--shutdown", "--clients", "--tenants",
      "--events", "--rate", "--warmup-s", "--measure-s", "--batch",
      "--seed", "--keys", "--disorder", "--workload-eps", "--csv",
      "--retry", "--retry-attempts", "--chaos", "--chaos-reset",
      "--chaos-short-write", "--chaos-corrupt", "--chaos-truncate",
      "--chaos-stall", "--chaos-accept-close", "--chaos-seed",
      "--quota-rate", "--quota-burst", "--quota-max-sessions",
      "--quota-max-buffered"};
  return kFlags;
}

bool AppendCsvRow(const std::string& path, const LoadGenOptions& options,
                  const LoadGenReport& report) {
  struct stat st;
  const bool fresh = ::stat(path.c_str(), &st) != 0 || st.st_size == 0;
  FILE* f = std::fopen(path.c_str(), "a");
  if (f == nullptr) {
    std::fprintf(stderr, "failed to open %s for append\n", path.c_str());
    return false;
  }
  if (fresh) {
    std::fprintf(f,
                 "clients,tenants,events_per_tenant,rate_eps,batch,seed,"
                 "disorder_ms,events_sent,wall_s,throughput_eps,rtt_p50_us,"
                 "rtt_p99_us,errors,identities_ok,deliveries_ok,steals,"
                 "faults,retries,reconnects,replayed,deduped,"
                 "throttled,checksum\n");
  }
  std::fprintf(f, "%d,%d,%lld,%.0f,%d,%llu,%.3f,%lld,%.4f,%.1f,%.1f,%.1f,"
                  "%lld,%d,%d,%lld,%lld,%lld,%lld,%lld,%lld,%lld,%llu\n",
               options.clients, options.tenants,
               static_cast<long long>(options.events_per_tenant),
               options.rate_eps, options.batch,
               static_cast<unsigned long long>(options.seed),
               options.disorder_ms,
               static_cast<long long>(report.events_sent), report.wall_s,
               report.throughput_eps, report.rtt_p50_us, report.rtt_p99_us,
               static_cast<long long>(report.errors),
               report.all_identities_ok ? 1 : 0,
               report.all_deliveries_ok ? 1 : 0,
               static_cast<long long>(report.segments_stolen),
               static_cast<long long>(report.faults_injected),
               static_cast<long long>(report.retries),
               static_cast<long long>(report.reconnects),
               static_cast<long long>(report.replayed),
               static_cast<long long>(report.deduped),
               static_cast<long long>(report.throttled),
               static_cast<unsigned long long>(report.combined_checksum));
  std::fclose(f);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  // Session flags first (they parameterize every tenant's RegisterQuery);
  // the leftovers are the loadgen's own knobs.
  LoadGenOptions options;
  options.session.Name("loadgen");
  std::vector<std::string> leftover;
  const Status parsed =
      SessionOptions::ParseArgs(argc, argv, &options.session, &leftover);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.ToString().c_str());
    return 2;
  }

  bool serve = false;
  bool shutdown = false;
  bool have_port = false;
  std::string csv_path;
  ServerOptions server_options;
  for (const std::string& arg : leftover) {
    const size_t eq = arg.find('=');
    const std::string flag = arg.substr(0, eq);
    const std::string value =
        eq == std::string::npos ? "" : arg.substr(eq + 1);
    int64_t num = 0;
    double fnum = 0.0;
    auto want_int = [&](const char* name) {
      if (ParseInt64Strict(value, &num).ok()) return true;
      std::fprintf(stderr, "bad %s: %s\n", name, value.c_str());
      return false;
    };
    auto want_double = [&](const char* name) {
      if (ParseDoubleStrict(value, &fnum).ok()) return true;
      std::fprintf(stderr, "bad %s: %s\n", name, value.c_str());
      return false;
    };
    if (flag == "--port") {
      if (!want_int("--port") || num < 0 || num > 65535) return 2;
      options.port = static_cast<uint16_t>(num);
      have_port = true;
    } else if (arg == "--serve") {
      serve = true;
    } else if (arg == "--shutdown") {
      shutdown = true;
    } else if (flag == "--clients") {
      if (!want_int("--clients")) return 2;
      options.clients = static_cast<int>(num);
    } else if (flag == "--tenants") {
      if (!want_int("--tenants")) return 2;
      options.tenants = static_cast<int>(num);
    } else if (flag == "--events") {
      if (!want_int("--events")) return 2;
      options.events_per_tenant = num;
    } else if (flag == "--rate") {
      if (!want_double("--rate")) return 2;
      options.rate_eps = fnum;
    } else if (flag == "--warmup-s") {
      if (!want_double("--warmup-s")) return 2;
      options.warmup_s = fnum;
    } else if (flag == "--measure-s") {
      if (!want_double("--measure-s")) return 2;
      options.measure_s = fnum;
    } else if (flag == "--batch") {
      if (!want_int("--batch")) return 2;
      options.batch = static_cast<int>(num);
    } else if (flag == "--seed") {
      if (!want_int("--seed")) return 2;
      options.seed = static_cast<uint64_t>(num);
    } else if (flag == "--keys") {
      if (!want_int("--keys")) return 2;
      options.keys = num;
    } else if (flag == "--disorder") {
      if (!want_double("--disorder")) return 2;
      options.disorder_ms = fnum;
    } else if (flag == "--workload-eps") {
      if (!want_double("--workload-eps")) return 2;
      options.workload_eps = fnum;
    } else if (flag == "--csv") {
      csv_path = value;
    } else if (arg == "--retry") {
      options.retry = true;
    } else if (flag == "--retry-attempts") {
      if (!want_int("--retry-attempts")) return 2;
      options.retry_policy.max_attempts = static_cast<int>(num);
    } else if (flag == "--chaos") {
      if (!want_double("--chaos")) return 2;
      const double p = fnum / 100.0;
      options.chaos.reset_prob = p;
      options.chaos.short_write_prob = p;
      options.chaos.corrupt_prob = p;
      options.chaos.truncate_prob = p;
    } else if (flag == "--chaos-reset") {
      if (!want_double("--chaos-reset")) return 2;
      options.chaos.reset_prob = fnum;
    } else if (flag == "--chaos-short-write") {
      if (!want_double("--chaos-short-write")) return 2;
      options.chaos.short_write_prob = fnum;
    } else if (flag == "--chaos-corrupt") {
      if (!want_double("--chaos-corrupt")) return 2;
      options.chaos.corrupt_prob = fnum;
    } else if (flag == "--chaos-truncate") {
      if (!want_double("--chaos-truncate")) return 2;
      options.chaos.truncate_prob = fnum;
    } else if (flag == "--chaos-stall") {
      if (!want_double("--chaos-stall")) return 2;
      options.chaos.stall_prob = fnum;
    } else if (flag == "--chaos-accept-close") {
      if (!want_double("--chaos-accept-close")) return 2;
      options.chaos.accept_close_prob = fnum;
    } else if (flag == "--chaos-seed") {
      if (!want_int("--chaos-seed")) return 2;
      options.chaos.seed = static_cast<uint64_t>(num);
    } else if (flag == "--quota-rate") {
      if (!want_double("--quota-rate")) return 2;
      server_options.quota_rate_eps = fnum;
    } else if (flag == "--quota-burst") {
      if (!want_double("--quota-burst")) return 2;
      server_options.quota_burst = fnum;
    } else if (flag == "--quota-max-sessions") {
      if (!want_int("--quota-max-sessions")) return 2;
      server_options.quota_max_sessions = num;
    } else if (flag == "--quota-max-buffered") {
      if (!want_int("--quota-max-buffered")) return 2;
      server_options.quota_max_buffered = num;
    } else {
      const std::string hint = SuggestFlag(arg, LoadGenFlags());
      if (hint.empty()) {
        std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      } else {
        std::fprintf(stderr, "unknown flag: %s (did you mean %s?)\n",
                     arg.c_str(), hint.c_str());
      }
      return 2;
    }
  }
  if (!serve && !have_port) {
    std::fprintf(stderr,
                 "usage: streamq_loadgen --port=<p> [options], or --serve "
                 "for an in-process server\n(see the header of "
                 "examples/streamq_loadgen.cc)\n");
    return 2;
  }

  if (shutdown) {
    auto client = StreamQClient::Connect(options.port);
    if (!client.ok()) {
      std::fprintf(stderr, "connect: %s\n",
                   client.status().ToString().c_str());
      return 1;
    }
    const Status sent = client.value()->Shutdown();
    if (!sent.ok()) {
      std::fprintf(stderr, "shutdown: %s\n", sent.ToString().c_str());
      return 1;
    }
    std::printf("server shutdown requested\n");
    return 0;
  }

  // --serve: host the server in-process — one command, full loop, exactly
  // what the CI smoke step runs. Accept-close chaos is a server-side fault,
  // so it gets its own injector here (only that class: the client-side
  // injector inside RunLoadGen covers the rest, and the control connection
  // must not be corrupted once established).
  std::optional<ChaosInjector> accept_chaos;
  if (serve && options.chaos.accept_close_prob > 0.0) {
    ChaosSpec accept_spec;
    accept_spec.seed = options.chaos.seed;
    accept_spec.accept_close_prob = options.chaos.accept_close_prob;
    accept_chaos.emplace(accept_spec);
    server_options.chaos = &*accept_chaos;
  }
  StreamQServer server(server_options);
  if (serve) {
    const Status started = server.Start();
    if (!started.ok()) {
      std::fprintf(stderr, "in-process server: %s\n",
                   started.ToString().c_str());
      return 1;
    }
    options.port = server.port();
    std::printf("in-process server on 127.0.0.1:%u\n", options.port);
  }

  auto report = RunLoadGen(options);
  if (serve) server.Stop();
  if (!report.ok()) {
    std::fprintf(stderr, "loadgen: %s\n", report.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", report.value().Summary().c_str());
  for (const TenantOutcome& t : report.value().tenants) {
    std::printf("  tenant %u: %s\n", t.tenant, t.stats.ToString().c_str());
  }
  if (serve) {
    const ServerStats stats = server.stats();
    std::printf("server: %lld frames, %lld protocol errors, %lld "
                "application errors\n",
                static_cast<long long>(stats.frames_processed),
                static_cast<long long>(stats.protocol_errors),
                static_cast<long long>(stats.application_errors));
  }
  if (!csv_path.empty() &&
      !AppendCsvRow(csv_path, options, report.value())) {
    return 1;
  }
  // Exit status carries the verdict so shell harnesses can gate on it.
  if (!report.value().all_identities_ok ||
      !report.value().all_deliveries_ok || report.value().errors > 0) {
    std::fprintf(stderr, "FAILED: identity/delivery violation or errors\n");
    return 3;
  }
  return 0;
}
