/// R-F25 — Resilience: chaos goodput, replay/dedup identity, and admission
/// control under overload.
///
/// One table (CSV: bench_results/f25_resilience.csv), two sections:
///
///   chaos     The same seeded 4-tenant workload driven by ResilientClients
///             at 0%, 1% and 5% injected transport fault rates. A single
///             ChaosInjector is wired into BOTH the server (every accepted
///             connection) and every client connection, so requests, acks
///             and session grants all cross the hostile wire — the only
///             configuration in which ack loss forces genuine retransmits
///             and the server's dedup path carries real traffic.
///
///   overload  The same workload against per-tenant rate quotas (with and
///             without chaos on top): clients absorb kOverloaded replies,
///             honor the server's retry-after, and resend the same sequence
///             numbers until admitted.
///
/// Hard gates (tools/check_bench_regression.py, f25 suite):
///
///   * Exactly-once under faults — the combined per-tenant result checksum
///     is identical across EVERY row: fault-free, 5% chaos, throttled, and
///     chaos-plus-throttled runs all converge to byte-identical results.
///     Every row's replayed == deduped (no retransmit was double-applied),
///     identities/deliveries hold, and errors == 0.
///
///   * Chaos is real — rows with fault_pct > 0 must report faults > 0 (the
///     schedule actually fired) and the 5% rows must inject more than the
///     1% row.
///
///   * Quotas hold exactly — a token bucket admitting at rate R with burst
///     B cannot accept N events per tenant in less than (N - B) / R wall
///     seconds, so overload rows are gated on wall_ms >= that bound as
///     well as throttled > 0: the run was genuinely stretched by
///     admission control, not merely annotated with it.
///
/// Event counts are small (4 x 5000): the sweep measures protocol-level
/// robustness accounting, not aggregation speed — service capacity is the
/// perfbench `service` workload's job.

#include <atomic>
#include <cstdint>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "net/chaos.h"
#include "net/retry.h"
#include "net/server.h"
#include "stream/generator.h"

namespace streamq {
namespace bench {
namespace {

constexpr int kClients = 2;
constexpr int kTenants = 4;
constexpr int64_t kEventsPerTenant = 5000;
constexpr size_t kBatch = 250;

struct RunConfig {
  const char* section;
  double fault_pct;     // Per-send probability (in %) of each fault class.
  double quota_eps;     // Per-tenant token-bucket rate; 0 = unlimited.
  double quota_burst;   // Bucket capacity in events.
};

struct RunOutcome {
  double wall_s = 0.0;
  int64_t events = 0;
  int64_t errors = 0;
  int64_t retries = 0;
  int64_t reconnects = 0;
  int64_t replayed = 0;
  int64_t deduped = 0;
  int64_t throttled = 0;
  int64_t faults = 0;
  bool identities_ok = true;
  bool deliveries_ok = true;
  uint64_t checksum = 0xcbf29ce484222325ULL;
};

uint64_t FoldChecksum(uint64_t h, uint64_t v) {
  h ^= v;
  h *= 0x100000001b3ULL;
  return h;
}

std::vector<Event> TenantStream(int tenant) {
  WorkloadConfig config;
  config.num_events = kEventsPerTenant;
  config.num_keys = 8;
  config.seed = 100 + static_cast<uint64_t>(tenant);
  return GenerateWorkload(config).arrival_order;
}

/// Fast-cycling schedule (faults cost milliseconds, not the production
/// 250ms ceiling), decorrelated per client like the loadgen drivers. The
/// attempt budget is deep: at the 5% row roughly one send in five is
/// faulted on each side of the wire, and a batch must survive anyway.
RetryPolicy ClientPolicy(int client_index) {
  RetryPolicy policy;
  policy.max_attempts = 30;
  policy.initial_backoff = Millis(1);
  policy.max_backoff = Millis(16);
  policy.deadline = Seconds(120);
  policy.seed =
      9 ^ (static_cast<uint64_t>(client_index) + 1) * 0x9E3779B97F4A7C15ULL;
  return policy;
}

/// One full run: server + kClients resilient drivers, tenants striped
/// across clients, batches round-robined so every run applies the same
/// per-tenant byte stream in the same order regardless of faults. Each
/// driver finishes with an idempotent sequenced heartbeat past
/// `flush_bound` (watermark advance over the hostile wire), then the
/// injector is disarmed and every tenant is sealed with Unregister over a
/// clean connection — injection window and audit window, like a real
/// chaos drill.
RunOutcome RunOnce(const RunConfig& config,
                   const std::vector<std::vector<Event>>& streams,
                   TimestampUs flush_bound) {
  RunOutcome out;

  std::optional<ChaosInjector> injector;
  if (config.fault_pct > 0.0) {
    ChaosSpec spec;
    spec.seed = 77;
    const double p = config.fault_pct / 100.0;
    spec.reset_prob = p;
    spec.short_write_prob = p;
    spec.corrupt_prob = p;
    spec.truncate_prob = p;
    spec.accept_close_prob = p;
    injector.emplace(spec);
  }

  ServerOptions server_options;
  server_options.quota_rate_eps = config.quota_eps;
  server_options.quota_burst = config.quota_burst;
  if (injector) server_options.chaos = &*injector;
  StreamQServer server(server_options);
  const Status started = server.Start();
  if (!started.ok()) {
    std::cerr << "server start failed: " << started.ToString() << "\n";
    std::exit(1);
  }
  // Truncation faults hang the reply until the recv timeout fires, so the
  // chaos rows run on a short fuse; clean rows never time out.
  const DurationUs reply_timeout = injector ? Millis(250) : Seconds(30);

  std::atomic<int64_t> errors{0};
  std::atomic<int64_t> retries{0};
  std::atomic<int64_t> reconnects{0};
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> drivers;
  for (int c = 0; c < kClients; ++c) {
    drivers.emplace_back([&, c] {
      auto client =
          ResilientClient::Connect(server.port(), ClientPolicy(c),
                                   injector ? &*injector : nullptr,
                                   reply_timeout);
      if (!client.ok()) {
        errors.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      std::vector<int> own;
      for (int t = 1; t <= kTenants; ++t) {
        if ((t - 1) % kClients != c) continue;
        own.push_back(t);
        SessionOptions options;
        options.Name("tenant-" + std::to_string(t)).Window(100);
        if (!client.value()->Open(static_cast<uint32_t>(t), options).ok()) {
          errors.fetch_add(1, std::memory_order_relaxed);
          return;
        }
      }
      size_t offset = 0;
      bool more = true;
      while (more) {
        more = false;
        for (int t : own) {
          const std::vector<Event>& stream =
              streams[static_cast<size_t>(t - 1)];
          if (offset >= stream.size()) continue;
          const size_t n = std::min(kBatch, stream.size() - offset);
          const Status st = client.value()->Ingest(
              static_cast<uint32_t>(t),
              std::span<const Event>(stream.data() + offset, n));
          if (!st.ok()) errors.fetch_add(1, std::memory_order_relaxed);
          more = true;
        }
        offset += kBatch;
      }
      for (int t : own) {
        const Status beat = client.value()->Heartbeat(
            static_cast<uint32_t>(t), flush_bound, flush_bound);
        if (!beat.ok()) errors.fetch_add(1, std::memory_order_relaxed);
      }
      retries.fetch_add(client.value()->stats().retries,
                        std::memory_order_relaxed);
      reconnects.fetch_add(client.value()->stats().reconnects,
                           std::memory_order_relaxed);
    });
  }
  for (std::thread& t : drivers) t.join();
  out.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  out.errors = errors.load();
  out.retries = retries.load();
  out.reconnects = reconnects.load();

  // Verification window: disarm the injector and seal every tenant over a
  // clean wire. Unregister is the only call that finishes the session (the
  // accounting identity and the result checksum are Finish()-time
  // properties), and it is not idempotent — so it runs outside the fault
  // window, exactly as a real chaos drill separates injection from audit.
  if (injector) injector->Disarm();
  auto collector = StreamQClient::Connect(server.port());
  if (!collector.ok()) {
    ++out.errors;
  } else {
    for (int t = 1; t <= kTenants; ++t) {
      auto stats = collector.value()->Unregister(static_cast<uint32_t>(t));
      if (!stats.ok()) {
        ++out.errors;
        continue;
      }
      out.events += stats.value().events_ingested;
      out.identities_ok &= stats.value().AccountingIdentityHolds();
      out.deliveries_ok &= stats.value().events_ingested == kEventsPerTenant;
      out.checksum = FoldChecksum(out.checksum, stats.value().result_checksum);
    }
  }

  const ServerStats stats = server.stats();
  out.replayed = stats.frames_replayed;
  out.deduped = stats.frames_deduped;
  out.throttled = stats.frames_throttled;
  if (injector) out.faults = injector->stats().total();
  server.Stop();
  return out;
}

void Run() {
  std::vector<std::vector<Event>> streams;
  for (int t = 1; t <= kTenants; ++t) streams.push_back(TenantStream(t));
  TimestampUs flush_bound = 0;
  for (const std::vector<Event>& stream : streams) {
    for (const Event& e : stream) {
      flush_bound = std::max(flush_bound, e.event_time);
    }
  }
  flush_bound += Millis(10);  // A few windows past the last event.

  TableWriter table(
      "R-F25: resilience — chaos goodput, replay/dedup identity, and "
      "admission control (4 tenants, 2 resilient clients, loopback TCP)",
      {"section", "fault_pct", "quota_eps", "burst", "clients", "tenants",
       "events", "batch", "wall_ms", "keps", "errors", "retries",
       "reconnects", "replayed", "deduped", "throttled", "faults",
       "identities", "deliveries", "checksum"});

  const RunConfig kConfigs[] = {
      {"chaos", 0.0, 0.0, 0.0},
      {"chaos", 1.0, 0.0, 0.0},
      {"chaos", 5.0, 0.0, 0.0},
      {"overload", 0.0, 20000.0, 500.0},
      {"overload", 5.0, 20000.0, 500.0},
  };

  for (const RunConfig& config : kConfigs) {
    const RunOutcome outcome = RunOnce(config, streams, flush_bound);
    table.BeginRow();
    table.Cell(config.section);
    table.Cell(config.fault_pct, 1);
    table.Cell(config.quota_eps, 0);
    table.Cell(config.quota_burst, 0);
    table.Cell(static_cast<int64_t>(kClients));
    table.Cell(static_cast<int64_t>(kTenants));
    table.Cell(outcome.events);
    table.Cell(static_cast<int64_t>(kBatch));
    table.Cell(outcome.wall_s * 1000.0, 2);
    table.Cell(outcome.wall_s > 0.0
                   ? static_cast<double>(outcome.events) / outcome.wall_s /
                         1000.0
                   : 0.0,
               1);
    table.Cell(outcome.errors);
    table.Cell(outcome.retries);
    table.Cell(outcome.reconnects);
    table.Cell(outcome.replayed);
    table.Cell(outcome.deduped);
    table.Cell(outcome.throttled);
    table.Cell(outcome.faults);
    table.Cell(static_cast<int64_t>(outcome.identities_ok ? 1 : 0));
    table.Cell(static_cast<int64_t>(outcome.deliveries_ok ? 1 : 0));
    table.Cell(static_cast<int64_t>(outcome.checksum));
  }

  EmitTable(table, "f25_resilience.csv");
}

}  // namespace
}  // namespace bench
}  // namespace streamq

int main() {
  streamq::bench::Run();
  return 0;
}
