#ifndef STREAMQ_NET_LOADGEN_H_
#define STREAMQ_NET_LOADGEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/session_options.h"
#include "net/chaos.h"
#include "net/frame.h"
#include "net/retry.h"

namespace streamq {

/// Multi-client load driver for a running streamq server — the measurement
/// half of the service split (the DECS-style server/loadgen pairing).
///
/// Determinism: every tenant's event stream is generated from
/// `seed ^ f(tenant)` and delivered in generated arrival order by a single
/// writer whenever `clients <= tenants`, so the tenant's final report —
/// including its result checksum — is byte-identical across runs and across
/// client counts. That is what lets the loadgen smoke and the R-F25 bench
/// gate on checksum equality while sweeping concurrency. With
/// `clients > tenants` the extra clients co-write tenants (batch-striped),
/// which keeps the accounting identity but makes arrival interleaving
/// timing-dependent; checksums are then only comparable within a run.
///
/// Pacing: `rate_eps` throttles each client to a fixed event rate (open
/// load). Paced clients spend most wall time asleep, so aggregate
/// throughput scales with client count by overlap even on a single core:
/// paced runs measure pacing, not server capacity.
struct LoadGenOptions {
  /// Server port on 127.0.0.1.
  uint16_t port = 0;

  /// Concurrent client connections driving ingest.
  int clients = 1;

  /// Tenants (queries) registered for the measured phase, ids 1..tenants.
  int tenants = 1;

  /// Events per tenant for the measured phase. 0 switches to duration
  /// mode: cycle the workload (with event times shifted each lap) until
  /// `measure_s` elapses.
  int64_t events_per_tenant = 100000;

  /// Per-client pacing in events/second. 0 = closed loop (send as fast as
  /// the request/reply RTT allows).
  double rate_eps = 0.0;

  /// Seconds of throwaway traffic (separate scratch tenants) before the
  /// measured phase, to warm connections, allocators, and branch caches.
  double warmup_s = 0.0;

  /// Duration-mode length in seconds (only used when events_per_tenant
  /// is 0).
  double measure_s = 5.0;

  /// Events per kIngest frame.
  int batch = 512;

  /// Base PRNG seed; equal seeds replay bit-identical workloads.
  uint64_t seed = 42;

  /// Distinct keys per tenant workload.
  int64_t keys = 64;

  /// Mean exponential arrival delay (disorder) in milliseconds.
  double disorder_ms = 5.0;

  /// Mean event-time rate of each tenant's workload (events/s).
  double workload_eps = 10000.0;

  /// Session template every tenant registers with (name is overridden to
  /// tenant-<id>); the same SessionOptions vocabulary as the CLI.
  SessionOptions session;

  /// Drive through ResilientClient: sequenced idempotent ingest with
  /// automatic reconnect and backoff. Requires clients <= tenants (the
  /// sequence number needs a single writer per tenant). Checksums stay
  /// byte-identical to a fault-free run even under --chaos faults.
  bool retry = false;

  /// Backoff/attempt schedule for retry mode.
  RetryPolicy retry_policy;

  /// Transport fault injection on every driver connection (requires
  /// retry mode; the control connection stays chaos-free so final
  /// collection is reliable). All-zero probabilities = off.
  ChaosSpec chaos;

  Status Validate() const;
};

/// Final accounting for one measured tenant.
struct TenantOutcome {
  uint32_t tenant = 0;
  /// Events this run handed to Ingest RPCs that returned OK.
  int64_t events_sent = 0;
  /// The server's sealed final report for the tenant.
  SnapshotStats stats;
  /// events_sent == server-side ingested count.
  bool delivery_ok = false;
  /// The in == out + late + shed conservation identity.
  bool identity_ok = false;
};

struct LoadGenReport {
  std::vector<TenantOutcome> tenants;

  int64_t events_sent = 0;
  int64_t batches_sent = 0;
  /// Client-observed RPC failures (error replies, transport errors).
  int64_t errors = 0;

  /// Measured-phase wall time and aggregate delivered throughput.
  double wall_s = 0.0;
  double throughput_eps = 0.0;

  /// Ingest round-trip latency over the measured phase, microseconds.
  double rtt_p50_us = 0.0;
  double rtt_p99_us = 0.0;
  double rtt_max_us = 0.0;

  /// FNV fold of per-tenant result checksums in tenant-id order — one
  /// number that witnesses every tenant's result bytes.
  uint64_t combined_checksum = 0;

  /// Scheduler activity summed over the sealed tenant reports: segments
  /// starving workers stole. Zero unless tenants registered with --threads
  /// plus --steal.
  int64_t segments_stolen = 0;

  /// Resilience taxonomy (all zero unless retry/chaos mode):
  /// connection-killing faults the injector fired (resets + short writes +
  /// accept closes), client-side retried attempts and reconnects, and the
  /// server's sequenced-protocol accounting summed over tenant reports
  /// (replayed == deduped is the no-double-apply invariant; throttled
  /// counts admission-control pushbacks).
  int64_t faults_injected = 0;
  int64_t retries = 0;
  int64_t reconnects = 0;
  int64_t replayed = 0;
  int64_t deduped = 0;
  int64_t throttled = 0;

  bool all_identities_ok = false;
  bool all_deliveries_ok = false;

  std::string Summary() const;
};

/// Runs the full driver: registers tenants, optional warmup, measured
/// ingest from `clients` concurrent connections, then unregisters each
/// tenant and collects its sealed report.
Result<LoadGenReport> RunLoadGen(const LoadGenOptions& options);

}  // namespace streamq

#endif  // STREAMQ_NET_LOADGEN_H_
