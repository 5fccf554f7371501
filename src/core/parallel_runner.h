#ifndef STREAMQ_CORE_PARALLEL_RUNNER_H_
#define STREAMQ_CORE_PARALLEL_RUNNER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "core/continuous_query.h"
#include "core/executor.h"
#include "core/pipeline_observer.h"
#include "stream/source.h"

namespace streamq {

/// Shared knobs for the threaded runners below.
struct ParallelOptions {
  /// Events per batch handed across the thread boundary. Batches are the
  /// unit of queue traffic, so this trades dispatch amortization against
  /// pipeline latency; the default matches QueryExecutor::Run.
  size_t batch_size = QueryExecutor::kDefaultRunBatchSize;

  /// Bound (in batches) on each worker's input queue. Limits memory to
  /// queue_capacity * batch_size events per worker when the source outruns
  /// a query.
  size_t queue_capacity = 64;

  /// First deadline when a worker's queue stays full. The driver retries
  /// with this timeout doubled per attempt (exponential backoff), so a
  /// merely slow worker gets progressively more patience.
  DurationUs feed_timeout_us = Millis(250);

  /// Attempts before the driver declares the worker stuck, closes its
  /// queue, and degrades the run (ResourceExhausted in that worker's
  /// report) instead of blocking forever. With the defaults the driver
  /// waits ~7.75 s total per worker.
  int feed_max_attempts = 5;

  /// ShardedKeyedRunner only: number of virtual shards multiplexed over
  /// the worker threads (0 = one per worker, the static legacy topology,
  /// bit-for-bit identical routing to earlier releases). With more virtual
  /// shards than workers, each shard is a self-contained executor that
  /// work stealing can move between workers without splitting any key's
  /// state. Must be >= the worker count when nonzero.
  size_t virtual_shards = 0;

  /// ShardedKeyedRunner only: demand-driven work stealing, the one way a
  /// shard moves between workers. Each worker's bounded queue is its deque
  /// of ready virtual-shard batch segments; when a worker runs dry
  /// (blocked on an empty deque) while another is backlogged by at least
  /// two feed batches, the runner moves the hottest movable shard from the
  /// most-backlogged victim to the starving worker through an in-band
  /// kRelease safe-point handshake (DESIGN §14).
  /// Stealing moves whole shards — never splitting a key's state — so the
  /// merged output is byte-identical to a static placement for *any*
  /// steal schedule; the trigger reads worker progress, so the steal count
  /// (recorded in runtime_config and WorkerLoad) is timing-dependent even
  /// though the results are not.
  bool steal = false;

  /// Field and range checks for everything above, centralized so every
  /// front end (runner constructors, SessionOptions::Validate, tests)
  /// rejects the same bad numerics with the same did-you-mean hints. The
  /// runners check-fail on options that do not validate.
  Status Validate() const;
};

/// Post-run, per-worker accounting from the driver and workers: what was
/// routed to each worker's queue, what it reported processing, and how
/// often the driver stalled on its queue. For the independent runner every
/// worker is routed the whole stream; for the keyed runner this is the
/// placement-weighted load work stealing acts on.
struct WorkerLoad {
  int64_t events_routed = 0;
  int64_t batches_routed = 0;
  int64_t events_processed = 0;
  int64_t stalls = 0;
  /// Shards this worker pulled while starving (steal mode) and shards
  /// pulled *from* it.
  int64_t segments_stolen = 0;
  int64_t segments_donated = 0;
};

/// Runs N independent continuous queries over one arrival-ordered stream,
/// one worker thread per query.
///
/// A driver thread (the caller) pulls batches from the source and publishes
/// each batch — one shared, immutable copy — to every worker's bounded SPSC
/// queue. Each worker drives its own QueryExecutor::FeedBatch over exactly
/// the stream prefix order the sequential MultiQueryRunner would have fed
/// it, so every query's results, stats, and watermarks are byte-identical
/// to a sequential kIndependent run (and therefore deterministic): threads
/// change *when* work happens, never *what* each query observes.
class ParallelMultiQueryRunner {
 public:
  explicit ParallelMultiQueryRunner(ParallelOptions options = {})
      : options_(options) {}

  /// Registers a query. All queries must be added before Run().
  void AddQuery(const ContinuousQuery& query);

  /// Runs all queries to completion; reports are in AddQuery order, with
  /// wall_seconds/throughput measured over the shared (parallel) run.
  ///
  /// Failure containment: a worker that throws is caught on its own
  /// thread — its queue is closed, its report comes back with a non-OK
  /// status covering everything processed up to the failure, and the other
  /// queries finish normally. A worker whose queue stays full past the
  /// feed timeout is likewise abandoned with ResourceExhausted instead of
  /// wedging the driver. The process never terminates on a worker fault.
  std::vector<RunReport> Run(EventSource* source);

  const ParallelOptions& options() const { return options_; }

  /// Installs one observer on every worker pipeline plus the driver's queue
  /// instrumentation (per-worker queue depth, backpressure stalls). The
  /// observer is shared across threads, so it must be thread-safe (e.g.
  /// MetricsObserver); it must outlive Run().
  void SetObserver(PipelineObserver* observer) { observer_ = observer; }

 private:
  ParallelOptions options_;
  std::vector<ContinuousQuery> queries_;
  PipelineObserver* observer_ = nullptr;
};

/// Runs ONE keyed query with its key space sharded across worker threads.
///
/// The key space hashes onto V >= W *virtual shards* (ParallelOptions::
/// virtual_shards; V == W when 0), each a full pipeline (per-key disorder
/// handler + window operator with per-key watermarks) multiplexed onto W
/// worker threads. Each shard receives exactly the arrival-order
/// subsequence of tuples whose key hashes to it. Because a per-key
/// handler's buffering and a per-key-watermark window's *first emission*
/// for key k depend only on key k's own subsequence, every window's first
/// emission (bounds, key, value, tuple_count) is identical to the
/// unsharded run — and independent of shard→worker placement, which is
/// what makes stealing output-preserving: a steal moves a whole shard
/// (executor and all) between workers at an in-band safe point, never
/// splitting a key's state. What sharding may legitimately change:
/// each shard's merged watermark is at least the global one (fewer keys to
/// wait for), so terminal-flush emission times and revision/purge timing
/// can differ. Results are merged and sorted by (window start, key,
/// revision index) for a deterministic output order.
class ShardedKeyedRunner {
 public:
  /// `query` must use a per-key disorder handler (handler.per_key); the
  /// window operator is forced to per_key_watermarks to make first
  /// emissions shard-invariant (see class comment). `num_workers` is the
  /// worker-thread count (historically "shards": it doubles as the virtual
  /// shard count when options.virtual_shards is 0).
  ShardedKeyedRunner(const ContinuousQuery& query, size_t num_workers,
                     ParallelOptions options = {});

  /// Runs the query to completion and returns one merged report: counters
  /// summed, latency moments merged, max_buffer_size summed across shards
  /// (aggregate memory bound), final_slack = max over shards.
  RunReport Run(EventSource* source);

  size_t num_shards() const { return num_workers_; }
  size_t num_workers() const { return num_workers_; }

  /// Shard assignment: splitmix64-style mix of the key, mod num_shards.
  /// Raw keys are often sequential, so a plain modulo would alias key
  /// patterns onto shards; the mix makes placement uniform regardless.
  static size_t ShardOf(int64_t key, size_t num_shards);

  /// Per-worker accounting for the most recent Run, indexed by worker;
  /// empty before the first run.
  const std::vector<WorkerLoad>& worker_loads() const { return loads_; }

  /// Segments stolen by starving workers during the most recent run
  /// (options.steal). Timing-dependent by design; the merged output is
  /// byte-identical to a static run regardless of the schedule.
  int64_t steals() const { return steals_; }

  /// Installs one observer on every shard pipeline plus the driver's
  /// per-shard routing counters. Must be thread-safe and outlive Run().
  void SetObserver(PipelineObserver* observer) { observer_ = observer; }

 private:
  ContinuousQuery query_;
  size_t num_workers_;
  ParallelOptions options_;
  PipelineObserver* observer_ = nullptr;
  std::vector<WorkerLoad> loads_;
  int64_t steals_ = 0;
};

}  // namespace streamq

#endif  // STREAMQ_CORE_PARALLEL_RUNNER_H_
