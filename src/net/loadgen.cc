#include "net/loadgen.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>

#include "net/client.h"
#include "stream/generator.h"

namespace streamq {

namespace {

using Clock = std::chrono::steady_clock;

/// One (tenant, stripe) assignment a client drives.
struct Assignment {
  uint32_t tenant = 0;
  const std::vector<Event>* events = nullptr;
  int rank = 0;         // This client's stripe among the tenant's writers.
  int num_writers = 1;  // 1 whenever clients <= tenants (single writer).
};

/// Per-client results, merged after join.
struct ClientResult {
  Status status;
  int64_t batches_sent = 0;
  std::vector<int64_t> events_sent_per_tenant;  // Indexed by tenant - 1.
  int64_t errors = 0;
  std::vector<double> rtt_us;
  /// Retry-mode taxonomy (zero in plain mode).
  ResilienceStats resilience;
};

WorkloadConfig TenantWorkload(const LoadGenOptions& options, uint32_t tenant,
                              int64_t num_events) {
  WorkloadConfig config;
  config.num_events = num_events;
  config.events_per_second = options.workload_eps;
  config.num_keys = options.keys;
  config.delay.model = DelayModel::kExponential;
  config.delay.a = options.disorder_ms * 1000.0;
  // Decorrelate tenants without losing replayability.
  config.seed = options.seed ^ (static_cast<uint64_t>(tenant) * 0x9e3779b97f4a7c15ULL);
  return config;
}

/// Event-time span of a workload plus one mean gap — the per-lap offset in
/// duration mode, so cycled laps keep event time monotone overall.
TimestampUs WorkloadSpan(const std::vector<Event>& events, double eps) {
  TimestampUs max_t = 0;
  for (const Event& e : events) max_t = std::max(max_t, e.event_time);
  return max_t + static_cast<TimestampUs>(1e6 / std::max(eps, 1.0)) + 1;
}

uint64_t FoldChecksum(uint64_t h, uint64_t v) {
  h ^= v;
  h *= 0x100000001b3ULL;
  return h;
}

/// The shared measured-phase loop: walks each assignment's batch stripe in
/// order (cycling with time-shifted laps in duration mode), pacing and
/// recording RTTs. `send` is Status(tenant, span) — the plain or resilient
/// ingest path.
template <typename SendFn>
void DriveLoop(const LoadGenOptions& options,
               const std::vector<Assignment>& assignments,
               Clock::time_point deadline, bool duration_mode,
               const SendFn& send, ClientResult* result) {
  // Cursor per assignment: next batch index within this client's stripe.
  struct Cursor {
    int64_t next_batch = 0;  // Global batch index into the tenant stream.
    int64_t lap = 0;         // Duration-mode lap count.
    TimestampUs lap_span = 0;
    bool done = false;
  };
  std::vector<Cursor> cursors(assignments.size());
  for (size_t i = 0; i < assignments.size(); ++i) {
    cursors[i].next_batch = assignments[i].rank;
    if (duration_mode) {
      cursors[i].lap_span =
          WorkloadSpan(*assignments[i].events, options.workload_eps);
    }
  }

  const int64_t batch = options.batch;
  std::vector<Event> scratch;
  Clock::time_point next_send = Clock::now();
  const bool paced = options.rate_eps > 0.0;

  size_t live = assignments.size();
  size_t turn = 0;
  while (live > 0) {
    if (duration_mode && Clock::now() >= deadline) break;
    // Round-robin across this client's tenants so they all advance.
    const size_t i = turn++ % assignments.size();
    Cursor& cur = cursors[i];
    if (cur.done) continue;
    const Assignment& a = assignments[i];
    const std::vector<Event>& stream = *a.events;
    const int64_t num_batches =
        (static_cast<int64_t>(stream.size()) + batch - 1) / batch;

    if (cur.next_batch >= num_batches) {
      if (duration_mode) {
        ++cur.lap;
        cur.next_batch = a.rank;
      } else {
        cur.done = true;
        --live;
        continue;
      }
    }

    const int64_t begin = cur.next_batch * batch;
    const int64_t end =
        std::min<int64_t>(begin + batch, static_cast<int64_t>(stream.size()));
    std::span<const Event> slice(stream.data() + begin,
                                 static_cast<size_t>(end - begin));
    std::span<const Event> to_send = slice;
    if (duration_mode && cur.lap > 0) {
      // Shift the lap's events forward in time so the stream stays a
      // stream instead of rewinding.
      scratch.assign(slice.begin(), slice.end());
      const TimestampUs shift = cur.lap * cur.lap_span;
      const int64_t id_shift =
          cur.lap * static_cast<int64_t>(stream.size());
      for (Event& e : scratch) {
        e.id += id_shift;
        e.event_time += shift;
        e.arrival_time += shift;
      }
      to_send = scratch;
    }

    if (paced) {
      std::this_thread::sleep_until(next_send);
      next_send += std::chrono::microseconds(static_cast<int64_t>(
          1e6 * static_cast<double>(to_send.size()) / options.rate_eps));
    }

    const Clock::time_point t0 = Clock::now();
    const Status sent = send(a.tenant, to_send);
    const Clock::time_point t1 = Clock::now();
    result->rtt_us.push_back(
        std::chrono::duration<double, std::micro>(t1 - t0).count());
    ++result->batches_sent;
    if (sent.ok()) {
      result->events_sent_per_tenant[a.tenant - 1] +=
          static_cast<int64_t>(to_send.size());
    } else {
      ++result->errors;
    }
    cur.next_batch += a.num_writers;
  }
  result->status = Status::OK();
}

void DriveClient(const LoadGenOptions& options,
                 const std::vector<Assignment>& assignments,
                 Clock::time_point deadline, bool duration_mode,
                 ClientResult* result) {
  result->events_sent_per_tenant.assign(options.tenants, 0);
  Result<std::unique_ptr<StreamQClient>> connected =
      StreamQClient::Connect(options.port);
  if (!connected.ok()) {
    result->status = connected.status();
    return;
  }
  StreamQClient& client = *connected.value();
  DriveLoop(
      options, assignments, deadline, duration_mode,
      [&client](uint32_t tenant, std::span<const Event> events) {
        return client.Ingest(tenant, events);
      },
      result);
}

/// Retry-mode driver: a ResilientClient opens its own tenants (sequenced
/// sessions; registration must ride the same retrying connection so a
/// chaos fault during open is survivable), then runs the shared loop over
/// idempotent SeqIngest.
void DriveResilientClient(const LoadGenOptions& options,
                          const std::vector<Assignment>& assignments,
                          Clock::time_point deadline, bool duration_mode,
                          int client_index, ChaosInjector* injector,
                          ClientResult* result) {
  result->events_sent_per_tenant.assign(options.tenants, 0);
  RetryPolicy policy = options.retry_policy;
  // Decorrelate token minting and jitter across driver clients.
  policy.seed ^= (static_cast<uint64_t>(client_index) + 1) *
                 0x9E3779B97F4A7C15ULL;
  // A truncated frame leaves the peer waiting for bytes that never come,
  // so the reply timeout is what bounds each injected hang; the fault-free
  // default of 30 s would stretch a chaos run by minutes.
  const DurationUs reply_timeout =
      options.chaos.Enabled() ? Millis(500) : Seconds(30);
  Result<std::unique_ptr<ResilientClient>> connected =
      ResilientClient::Connect(options.port, policy, injector, reply_timeout);
  if (!connected.ok()) {
    result->status = connected.status();
    return;
  }
  ResilientClient& client = *connected.value();
  for (const Assignment& a : assignments) {
    SessionOptions session = options.session;
    session.Name("tenant-" + std::to_string(a.tenant));
    const Status opened = client.Open(a.tenant, session);
    if (!opened.ok()) {
      result->status = opened;
      result->resilience = client.stats();
      return;
    }
  }
  DriveLoop(
      options, assignments, deadline, duration_mode,
      [&client](uint32_t tenant, std::span<const Event> events) {
        return client.Ingest(tenant, events);
      },
      result);
  result->resilience = client.stats();
}

/// Warmup: scratch tenants (one per client, ids far above the measured
/// range) absorb paced traffic for warmup_s, then vanish.
void RunWarmup(const LoadGenOptions& options) {
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(options.warmup_s));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(options.clients));
  for (int c = 0; c < options.clients; ++c) {
    threads.emplace_back([&options, deadline, c] {
      const uint32_t tenant = 0x40000000u + static_cast<uint32_t>(c);
      Result<std::unique_ptr<StreamQClient>> connected =
          StreamQClient::Connect(options.port);
      if (!connected.ok()) return;
      StreamQClient& client = *connected.value();
      SessionOptions session = options.session;
      session.Name("warmup-" + std::to_string(tenant));
      if (!client.RegisterQuery(tenant, session).ok()) return;
      const GeneratedWorkload workload = GenerateWorkload(
          TenantWorkload(options, tenant, std::max<int64_t>(options.batch, 1)));
      while (Clock::now() < deadline) {
        (void)client.Ingest(tenant, workload.arrival_order);
        if (options.rate_eps > 0.0) {
          std::this_thread::sleep_for(std::chrono::microseconds(
              static_cast<int64_t>(1e6 * workload.arrival_order.size() /
                                   options.rate_eps)));
        }
      }
      (void)client.Unregister(tenant);
    });
  }
  for (std::thread& t : threads) t.join();
}

}  // namespace

Status LoadGenOptions::Validate() const {
  if (clients < 1) return Status::InvalidArgument("--clients must be >= 1");
  if (tenants < 1) return Status::InvalidArgument("--tenants must be >= 1");
  if (events_per_tenant < 0) {
    return Status::InvalidArgument("--events must be >= 0");
  }
  if (events_per_tenant == 0 && measure_s <= 0.0) {
    return Status::InvalidArgument(
        "duration mode (--events=0) needs --measure-s > 0");
  }
  if (batch < 1) return Status::InvalidArgument("--batch must be >= 1");
  if (rate_eps < 0.0) return Status::InvalidArgument("--rate must be >= 0");
  if (warmup_s < 0.0) return Status::InvalidArgument("--warmup-s must be >= 0");
  if (keys < 1) return Status::InvalidArgument("--keys must be >= 1");
  if (disorder_ms < 0.0) {
    return Status::InvalidArgument("--disorder must be >= 0");
  }
  if (workload_eps <= 0.0) {
    return Status::InvalidArgument("--workload-eps must be > 0");
  }
  if (retry) {
    STREAMQ_RETURN_NOT_OK(retry_policy.Validate());
    if (clients > tenants) {
      return Status::InvalidArgument(
          "--retry needs --clients <= --tenants: sequenced ingest requires "
          "a single writer per tenant");
    }
  }
  STREAMQ_RETURN_NOT_OK(chaos.Validate());
  if (chaos.Enabled() && !retry) {
    return Status::InvalidArgument(
        "--chaos-* fault injection requires --retry (a plain client cannot "
        "survive transport faults)");
  }
  return session.Validate();
}

std::string LoadGenReport::Summary() const {
  std::ostringstream out;
  out << "clients sent " << events_sent << " events in " << batches_sent
      << " batches over " << wall_s << " s (" << throughput_eps
      << " events/s), rtt p50 " << rtt_p50_us << " us p99 " << rtt_p99_us
      << " us, errors " << errors << ", tenants " << tenants.size()
      << ", identities " << (all_identities_ok ? "ok" : "VIOLATED")
      << ", delivery " << (all_deliveries_ok ? "ok" : "INCOMPLETE")
      << ", steals " << segments_stolen << ", faults " << faults_injected
      << ", retries " << retries << ", reconnects " << reconnects
      << ", replayed " << replayed << ", deduped " << deduped
      << ", throttled " << throttled
      << ", checksum " << combined_checksum;
  return out.str();
}

Result<LoadGenReport> RunLoadGen(const LoadGenOptions& options) {
  STREAMQ_RETURN_NOT_OK(options.Validate());
  const bool duration_mode = options.events_per_tenant == 0;

  // Control connection: registration and final collection stay off the
  // measured path — and off the chaos path, so sealing each tenant's
  // report is reliable even at high fault rates. Connecting retries a few
  // times because a chaos-configured server may close fresh accepts.
  std::unique_ptr<StreamQClient> control;
  for (int attempt = 0;; ++attempt) {
    Result<std::unique_ptr<StreamQClient>> connected =
        StreamQClient::Connect(options.port);
    if (connected.ok()) {
      // An accept-close fault only shows on the first round trip (the TCP
      // handshake happens in the kernel), so probe before trusting it.
      if (connected.value()->Metrics().ok()) {
        control = std::move(connected).value();
        break;
      }
      if (attempt >= 8) {
        return Status::IOError("control connection kept failing its probe");
      }
      continue;
    }
    if (attempt >= 8) return connected.status();
  }
  if (!options.retry) {
    // Retry mode instead opens sequenced sessions from the driver threads,
    // so registration itself survives injected faults.
    for (int t = 1; t <= options.tenants; ++t) {
      SessionOptions session = options.session;
      session.Name("tenant-" + std::to_string(t));
      STREAMQ_RETURN_NOT_OK(
          control->RegisterQuery(static_cast<uint32_t>(t), session));
    }
  }

  std::optional<ChaosInjector> injector;
  if (options.chaos.Enabled()) injector.emplace(options.chaos);

  // Deterministic per-tenant workloads (generated once, shared read-only).
  const int64_t per_tenant = duration_mode
                                 ? std::max<int64_t>(options.batch * 64, 4096)
                                 : options.events_per_tenant;
  std::vector<std::vector<Event>> streams;
  streams.reserve(static_cast<size_t>(options.tenants));
  for (int t = 1; t <= options.tenants; ++t) {
    streams.push_back(
        GenerateWorkload(
            TenantWorkload(options, static_cast<uint32_t>(t), per_tenant))
            .arrival_order);
  }

  // Tenant -> writers. clients <= tenants: single writer per tenant,
  // tenants round-robined over clients. clients > tenants: clients
  // round-robined over tenants, each co-writer taking a batch stripe.
  std::vector<std::vector<Assignment>> per_client(
      static_cast<size_t>(options.clients));
  if (options.clients <= options.tenants) {
    for (int t = 0; t < options.tenants; ++t) {
      per_client[static_cast<size_t>(t % options.clients)].push_back(
          Assignment{static_cast<uint32_t>(t + 1), &streams[t], 0, 1});
    }
  } else {
    std::vector<int> writers(static_cast<size_t>(options.tenants), 0);
    for (int c = 0; c < options.clients; ++c) {
      ++writers[static_cast<size_t>(c % options.tenants)];
    }
    for (int c = 0; c < options.clients; ++c) {
      const int t = c % options.tenants;
      per_client[static_cast<size_t>(c)].push_back(
          Assignment{static_cast<uint32_t>(t + 1), &streams[t],
                     c / options.tenants, writers[static_cast<size_t>(t)]});
    }
  }

  if (options.warmup_s > 0.0) RunWarmup(options);

  // Measured phase.
  std::vector<ClientResult> results(static_cast<size_t>(options.clients));
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(
                      duration_mode ? options.measure_s : 0.0));
  {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(options.clients));
    for (int c = 0; c < options.clients; ++c) {
      if (options.retry) {
        threads.emplace_back(DriveResilientClient, std::cref(options),
                             std::cref(per_client[static_cast<size_t>(c)]),
                             deadline, duration_mode, c,
                             injector ? &*injector : nullptr,
                             &results[static_cast<size_t>(c)]);
      } else {
        threads.emplace_back(DriveClient, std::cref(options),
                             std::cref(per_client[static_cast<size_t>(c)]),
                             deadline, duration_mode,
                             &results[static_cast<size_t>(c)]);
      }
    }
    for (std::thread& t : threads) t.join();
  }
  const double wall_s =
      std::chrono::duration<double>(Clock::now() - start).count();

  LoadGenReport report;
  std::vector<int64_t> sent_per_tenant(static_cast<size_t>(options.tenants),
                                       0);
  std::vector<double> rtts;
  for (const ClientResult& r : results) {
    STREAMQ_RETURN_NOT_OK(r.status);
    report.batches_sent += r.batches_sent;
    report.errors += r.errors;
    report.retries += r.resilience.retries;
    report.reconnects += r.resilience.reconnects;
    for (int t = 0; t < options.tenants; ++t) {
      sent_per_tenant[static_cast<size_t>(t)] +=
          r.events_sent_per_tenant[static_cast<size_t>(t)];
    }
    rtts.insert(rtts.end(), r.rtt_us.begin(), r.rtt_us.end());
  }
  if (injector) report.faults_injected = injector->stats().total();
  for (int64_t n : sent_per_tenant) report.events_sent += n;
  report.wall_s = wall_s;
  report.throughput_eps =
      wall_s > 0.0 ? static_cast<double>(report.events_sent) / wall_s : 0.0;
  if (!rtts.empty()) {
    std::sort(rtts.begin(), rtts.end());
    report.rtt_p50_us = rtts[rtts.size() / 2];
    report.rtt_p99_us = rtts[static_cast<size_t>(
        static_cast<double>(rtts.size() - 1) * 0.99)];
    report.rtt_max_us = rtts.back();
  }

  // Seal every tenant and collect its final accounting.
  report.all_identities_ok = true;
  report.all_deliveries_ok = true;
  uint64_t checksum = 0xcbf29ce484222325ULL;
  for (int t = 1; t <= options.tenants; ++t) {
    STREAMQ_ASSIGN_OR_RETURN(SnapshotStats stats,
                             control->Unregister(static_cast<uint32_t>(t)));
    TenantOutcome outcome;
    outcome.tenant = static_cast<uint32_t>(t);
    outcome.events_sent = sent_per_tenant[static_cast<size_t>(t - 1)];
    outcome.stats = stats;
    outcome.delivery_ok = stats.events_ingested == outcome.events_sent;
    outcome.identity_ok = stats.AccountingIdentityHolds();
    report.all_identities_ok &= outcome.identity_ok;
    report.all_deliveries_ok &= outcome.delivery_ok;
    report.segments_stolen += stats.segments_stolen;
    report.replayed += stats.frames_replayed;
    report.deduped += stats.frames_deduped;
    report.throttled += stats.frames_throttled;
    checksum = FoldChecksum(checksum, stats.result_checksum);
    report.tenants.push_back(std::move(outcome));
  }
  report.combined_checksum = checksum;
  return report;
}

}  // namespace streamq
