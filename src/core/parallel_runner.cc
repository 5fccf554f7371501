#include "core/parallel_runner.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <string>
#include <thread>
#include <tuple>
#include <utility>

#include "common/arena.h"
#include "common/logging.h"
#include "common/time.h"
#include "core/queue_backoff.h"
#include "core/spsc_queue.h"
#include "stream/event.h"

namespace streamq {

namespace {

using EventArena = SlabArena<Event>;
using EventBatch = EventArena::Batch;
using EventSlab = EventArena::Slab;

/// What crosses a worker's queue. kBatch carries events for one executor —
/// a query on the independent runner, a virtual shard on the keyed one.
/// The markers drive the steal/termination protocol: kRelease publishes
/// "every batch this worker will ever see for this shard has been fed"
/// (the handoff safe point), kFinish flushes one executor, kStop ends the
/// worker. A default-constructed item is kStop.
enum class FeedKind : uint8_t { kStop, kBatch, kRelease, kFinish };

struct FeedItem {
  EventBatch batch;
  uint32_t shard = 0;
  FeedKind kind = FeedKind::kStop;
};

using FeedQueue = SpscQueue<FeedItem>;

/// One worker thread, its input queue, and the counters the feed side and
/// the worker share. Cache-line aligned so neighbouring workers' counters
/// do not false-share.
struct alignas(64) WorkerSlot {
  std::unique_ptr<FeedQueue> queue;
  std::thread thread;
  std::atomic<bool> exited{false};
  /// Pull signal for work stealing: the worker raises it when its queue
  /// runs dry, right before blocking, and clears it on the next item. The
  /// driver reads it relaxed — a heuristic, not a synchronization edge.
  std::atomic<uint32_t> hungry{0};
  std::atomic<int64_t> processed{0};
  Status worker_status;  // Written by the worker thread.
  // Feed-side state below: only the feeding thread touches it, and the
  // report reads it after the join.
  /// Cleared once, when the feed side abandons the worker.
  bool feeding = true;
  Status driver_status;
  int64_t routed_events = 0;
  int64_t routed_batches = 0;
  int64_t stalls = 0;
  int64_t stolen = 0;
  int64_t donated = 0;
};

/// One run of either runner: a table of executors, the worker threads that
/// drive them, and the feed side — delivery with bounded patience, the one
/// source pump, and the terminal flush. `placement` maps each executor to
/// the worker that owns it: the identity on the independent runner,
/// round-robin over virtual shards on the keyed one, where stealing is its
/// one writer. The runners differ only in the router they hand Pump and in
/// how they assemble the report.
struct RunState {
  RunState(std::vector<std::unique_ptr<QueryExecutor>> table,
           size_t worker_count, const ParallelOptions& opts,
           PipelineObserver* obs)
      : options(opts),
        observer(obs),
        executors(std::move(table)),
        num_workers(worker_count),
        workers(std::make_unique<WorkerSlot[]>(worker_count)),
        released(std::make_unique<std::atomic<uint32_t>[]>(executors.size())),
        placement(executors.size()),
        arena(EventArena::Options{.slab_capacity = opts.batch_size}),
        feeding_count(num_workers) {
    for (size_t e = 0; e < executors.size(); ++e) {
      if (observer != nullptr) executors[e]->SetObserver(observer);
      placement[e] = static_cast<uint32_t>(e % num_workers);
    }
    start = WallClockMicros();
    for (size_t w = 0; w < num_workers; ++w) {
      workers[w].queue = std::make_unique<FeedQueue>(options.queue_capacity);
      workers[w].thread = std::thread([this, w] { RunShardWorker(w); });
    }
  }

  RunState(const RunState&) = delete;
  RunState& operator=(const RunState&) = delete;

  /// Stop() joins the workers on the normal path. If the feed side throws
  /// instead, close every queue so the workers drain and exit, then join.
  ~RunState() {
    for (size_t w = 0; w < num_workers; ++w) {
      if (!workers[w].thread.joinable()) continue;
      workers[w].queue->Close();
      workers[w].thread.join();
    }
  }

  /// Worker loop. The executor table is shared, but an executor is only
  /// ever touched by its current owner: its batches arrive on exactly one
  /// queue at a time, and ownership moves only through the kRelease
  /// handshake, which sequences old-owner writes before new-owner reads.
  /// `owned` tracks the executors this worker is responsible for, so an
  /// abandoned worker still flushes its partial results. Exceptions are
  /// contained here: the queue is closed (so the feed side stops feeding),
  /// drained (so a blocked feeder gets room and the shared batches are
  /// released), and the failure lands in worker_status for the report
  /// instead of std::terminate.
  void RunShardWorker(size_t w) {
    WorkerSlot& self = workers[w];
    FeedQueue* q = self.queue.get();
    std::vector<uint8_t> owned(executors.size(), 0);
    try {
      FeedItem item;
      bool stop = false;
      while (!stop) {
        if (!q->TryPop(&item)) {
          // Queue dry: advertise hunger so a stealing driver can route a
          // backlogged shard here, then block for the next item.
          self.hungry.store(1, std::memory_order_relaxed);
          const bool got = q->Pop(&item);
          self.hungry.store(0, std::memory_order_relaxed);
          if (!got) break;
        }
        switch (item.kind) {
          case FeedKind::kBatch:
            owned[item.shard] = 1;
            executors[item.shard]->FeedBatch(*item.batch);
            self.processed.fetch_add(
                static_cast<int64_t>(item.batch->size()),
                std::memory_order_relaxed);
            item.batch.reset();
            break;
          case FeedKind::kRelease:
            // Everything before this marker in the queue has been fed;
            // publish the handoff (release pairs with the driver's acquire).
            owned[item.shard] = 0;
            released[item.shard].store(1, std::memory_order_release);
            break;
          case FeedKind::kFinish:
            owned[item.shard] = 0;
            executors[item.shard]->Finish();
            break;
          case FeedKind::kStop:
            stop = true;
            break;
        }
      }
      // A clean kStop arrives after kFinish markers cleared every owned
      // executor, making this a no-op. An abandoned worker (queue closed by
      // the driver) lands here after processing its backlog: finish what it
      // still owns so the partial results surface.
      for (size_t e = 0; e < owned.size(); ++e) {
        if (owned[e] != 0) executors[e]->Finish();
      }
    } catch (const std::exception& ex) {
      self.worker_status =
          Status::Internal(std::string("worker failed: ") + ex.what());
    } catch (...) {
      self.worker_status =
          Status::Internal("worker failed: non-standard exception");
    }
    if (!self.worker_status.ok()) {
      q->Close();
      FeedItem drain;
      while (q->TryPop(&drain)) {
        // Honor handoff markers even in the failure drain: this worker will
        // never touch the shard again, and the driver may be waiting.
        if (drain.kind == FeedKind::kRelease) {
          released[drain.shard].store(1, std::memory_order_release);
        }
        drain.batch.reset();
      }
    }
    self.exited.store(true, std::memory_order_release);
  }

  /// Delivers one item to worker `w` with bounded patience. Fast path: one
  /// lock-free TryPush. On a full ring: one backpressure-stall
  /// notification, then deadline pushes with exponentially growing
  /// timeouts. Returns false when the worker is no longer fed — it was
  /// abandoned earlier, it closed its queue itself (failure; its own status
  /// explains why), or it stayed wedged past every deadline, in which case
  /// it is abandoned with ResourceExhausted and its queue is closed so it
  /// sees early end-of-stream.
  bool Deliver(size_t w, FeedItem item) {
    WorkerSlot& slot = workers[w];
    if (!slot.feeding) return false;
    FeedQueue* q = slot.queue.get();
    if (q->TryPush(std::move(item))) return true;
    Status fail;
    if (!q->closed()) {
      ++slot.stalls;
      if (observer != nullptr) observer->OnBackpressureStall(w);
      DurationUs timeout = options.feed_timeout_us;
      for (int attempt = 0; attempt < options.feed_max_attempts; ++attempt) {
        // TryPushFor only consumes `item` on success, so retry keeps it.
        if (q->TryPushFor(std::move(item), timeout)) return true;
        if (q->closed()) break;
        timeout *= 2;
      }
      if (!q->closed()) {
        fail = Status::ResourceExhausted(
            "worker " + std::to_string(w) +
            " stuck: queue full past feed timeout");
        q->Close();
      }
    }
    slot.feeding = false;
    if (!fail.ok()) slot.driver_status = std::move(fail);
    --feeding_count;
    return false;
  }

  /// Deliver for a batch of events bound for `executor`, with the routing
  /// accounting and queue-depth instrumentation.
  bool DeliverBatch(size_t w, uint32_t executor, EventBatch batch) {
    const auto count = static_cast<int64_t>(batch->size());
    if (!Deliver(w, FeedItem{std::move(batch), executor, FeedKind::kBatch})) {
      return false;
    }
    WorkerSlot& slot = workers[w];
    slot.routed_events += count;
    ++slot.routed_batches;
    if (observer != nullptr) observer->OnQueueDepth(w, slot.queue->size());
    return true;
  }

  /// The one source pump: pulls batches of options.batch_size until the
  /// source runs dry or no worker is left to feed, and hands each to
  /// `router`. The scratch chunk swap-cycles with the arena's batch nodes,
  /// so the steady state allocates nothing.
  template <typename Router>
  void Pump(EventSource* source, Router* router) {
    EventSlab chunk = arena.Acquire();
    while (feeding_count > 0 &&
           source->NextBatch(&chunk, options.batch_size) > 0) {
      const auto pulled = static_cast<int64_t>(chunk.size());
      events_pulled += pulled;
      if (observer != nullptr) observer->OnSourceBatch(pulled);
      router->Route(&chunk);
      router->AfterBatch();
    }
    arena.Recycle(std::move(chunk));
  }

  /// Terminal flush: a kFinish for every executor on its current owner's
  /// queue (owners flush in parallel), then one kStop per worker still
  /// reading its queue; joins the workers and returns the run's wall time.
  double Stop() {
    for (size_t e = 0; e < executors.size(); ++e) {
      (void)Deliver(placement[e], FeedItem{EventBatch(),
                                           static_cast<uint32_t>(e),
                                           FeedKind::kFinish});
    }
    for (size_t w = 0; w < num_workers; ++w) {
      if (!workers[w].queue->closed()) workers[w].queue->Push(FeedItem{});
    }
    for (size_t w = 0; w < num_workers; ++w) workers[w].thread.join();
    return ToSeconds(WallClockMicros() - start);
  }

  /// Executor `e`'s report. Status priority: its owner's fault explains
  /// more than the driver's view of it (abandonment), which explains more
  /// than the executor's own (strict validation) status.
  RunReport Report(size_t e) const {
    RunReport r = executors[e]->Report();
    const WorkerSlot& owner = workers[placement[e]];
    if (!owner.worker_status.ok()) {
      r.status = owner.worker_status;
    } else if (!owner.driver_status.ok()) {
      r.status = owner.driver_status;
    }
    return r;
  }

  WorkerLoad Load(size_t w) const {
    const WorkerSlot& slot = workers[w];
    WorkerLoad load;
    load.events_routed = slot.routed_events;
    load.batches_routed = slot.routed_batches;
    load.events_processed = slot.processed.load(std::memory_order_relaxed);
    load.stalls = slot.stalls;
    load.segments_stolen = slot.stolen;
    load.segments_donated = slot.donated;
    return load;
  }

  const ParallelOptions& options;
  PipelineObserver* const observer;
  const std::vector<std::unique_ptr<QueryExecutor>> executors;
  const size_t num_workers;
  const std::unique_ptr<WorkerSlot[]> workers;
  /// Per executor: set by its old owner once a kRelease handoff is done.
  const std::unique_ptr<std::atomic<uint32_t>[]> released;
  std::vector<uint32_t> placement;
  EventArena arena;
  TimestampUs start = 0;
  size_t feeding_count;
  int64_t events_pulled = 0;
};

// --- Independent (multi-query) runner ------------------------------------

/// Every worker sees the whole stream: one shared, immutable copy of each
/// batch, fed to the worker's one query.
struct BroadcastRouter {
  void Route(EventSlab* chunk) {
    const EventBatch batch = run->arena.Share(chunk);
    for (size_t i = 0; i < run->num_workers; ++i) {
      (void)run->DeliverBatch(i, static_cast<uint32_t>(i), batch);
    }
  }
  void AfterBatch() {}

  RunState* run;
};

std::vector<RunReport> RunIndependent(const std::vector<ContinuousQuery>& queries,
                                      EventSource* source,
                                      const ParallelOptions& options,
                                      PipelineObserver* observer) {
  const size_t n = queries.size();
  std::vector<std::unique_ptr<QueryExecutor>> executors;
  executors.reserve(n);
  for (const ContinuousQuery& q : queries) {
    executors.push_back(std::make_unique<QueryExecutor>(q));
  }
  RunState run(std::move(executors), n, options, observer);
  BroadcastRouter router{&run};
  run.Pump(source, &router);
  const double wall_seconds = run.Stop();
  if (observer != nullptr) {
    observer->OnRunCompleted(run.events_pulled, wall_seconds);
  }

  char cfg[32];
  std::snprintf(cfg, sizeof(cfg), "workers=%zu", n);

  std::vector<RunReport> reports;
  reports.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    RunReport r = run.Report(i);
    // Workers do not time themselves; charge the shared parallel wall time.
    r.SetWallSeconds(wall_seconds);
    r.runtime_config = cfg;
    reports.push_back(std::move(r));
  }
  return reports;
}

// --- Sharded keyed runner -------------------------------------------------

/// Splits each chunk by key hash into per-shard slabs and delivers every
/// touched shard's slab to the worker that owns the shard. The router also
/// runs work stealing: it moves a shard between workers through the
/// in-band kRelease handoff, buffering the shard's batches while the
/// handoff is in flight.
class ShardRouter {
 public:
  explicit ShardRouter(RunState* run)
      : run_(run),
        slabs_(run->executors.size()),
        shard_routed_(run->executors.size(), 0) {
    touched_.reserve(std::min<size_t>(slabs_.size(), 256));
  }

  void Route(EventSlab* chunk) {
    const size_t num_shards = slabs_.size();
    for (const Event& e : *chunk) {
      const auto v = static_cast<uint32_t>(
          ShardedKeyedRunner::ShardOf(e.key, num_shards));
      EventSlab& slab = slabs_[v];
      if (slab.empty()) touched_.push_back(v);
      slab.push_back(e);
    }
    chunk->clear();
    for (const uint32_t v : touched_) {
      shard_routed_[v] += static_cast<int64_t>(slabs_[v].size());
      EventBatch batch = run_->arena.Share(&slabs_[v]);
      if (handing_off_ && v == handoff_shard_) {
        // In flight between workers: buffer until the old owner
        // acknowledges the release marker.
        handoff_pending_.push_back(std::move(batch));
        continue;
      }
      Deliver(v, std::move(batch));
    }
    touched_.clear();
  }

  void AfterBatch() {
    if (handing_off_ &&
        run_->released[handoff_shard_].load(std::memory_order_acquire) != 0) {
      CompleteHandoff();
    }
    if (run_->options.steal && !handing_off_) MaybeSteal();
  }

  /// Returns the shard slabs to the arena and settles an in-flight handoff
  /// before the terminal flush: waits for the old owner's acknowledgement
  /// (or its exit — a dead owner can never touch the shard again, which is
  /// just as safe).
  void Finish() {
    for (EventSlab& slab : slabs_) {
      if (slab.capacity() > 0) run_->arena.Recycle(std::move(slab));
    }
    if (!handing_off_) return;
    BackoffUntil([this] {
      return run_->released[handoff_shard_].load(
                 std::memory_order_acquire) != 0 ||
             run_->workers[handoff_from_].exited.load(
                 std::memory_order_acquire);
    });
    CompleteHandoff();
  }

 private:
  void Deliver(uint32_t v, EventBatch batch) {
    const size_t w = run_->placement[v];
    const auto count = static_cast<int64_t>(batch->size());
    if (run_->DeliverBatch(w, v, std::move(batch)) &&
        run_->observer != nullptr) {
      run_->observer->OnShardBatch(w, count);
    }
  }

  /// The old owner acknowledged the handoff (or died): flush the batches
  /// buffered while the shard was in flight to its new worker, in routed
  /// order. placement[handoff_shard_] already points at the target.
  void CompleteHandoff() {
    for (EventBatch& b : handoff_pending_) Deliver(handoff_shard_, std::move(b));
    handoff_pending_.clear();
    handing_off_ = false;
  }

  /// Safe-point handoff: re-arm the release flag *before* the marker is
  /// visible, then hand the in-band kRelease marker to the current owner.
  /// From the marker on, batches for the shard are buffered until the
  /// owner acknowledges, so at most one handoff is in flight.
  bool StartHandoff(uint32_t shard, size_t from, size_t to) {
    run_->released[shard].store(0, std::memory_order_relaxed);
    if (!run_->Deliver(from, FeedItem{EventBatch(), shard,
                                      FeedKind::kRelease})) {
      return false;
    }
    handing_off_ = true;
    handoff_shard_ = shard;
    handoff_from_ = static_cast<uint32_t>(from);
    run_->placement[shard] = static_cast<uint32_t>(to);
    return true;
  }

  /// Demand-driven steal: a worker blocked on an empty queue (hungry)
  /// pulls the hottest movable shard from the most-backlogged worker.
  /// Triggers read worker progress (hunger flags, processed counters), so
  /// *when* steals happen is timing-dependent; *what* they produce is not —
  /// placement never affects the merged output (see class comment).
  void MaybeSteal() {
    const size_t num_workers = run_->num_workers;
    auto& workers = run_->workers;
    // Thief: a starving worker that is still fed and genuinely drained.
    size_t thief = num_workers;
    for (size_t w = 0; w < num_workers; ++w) {
      if (workers[w].hungry.load(std::memory_order_relaxed) != 0 &&
          workers[w].feeding &&
          workers[w].queue->empty()) {
        thief = w;
        break;
      }
    }
    if (thief == num_workers) return;
    // Victim: the most backlogged worker (routed minus processed) with at
    // least two feed batches pending and batches still queued; a drained
    // victim has nothing worth pulling.
    size_t victim = num_workers;
    int64_t victim_backlog =
        2 * static_cast<int64_t>(run_->options.batch_size) - 1;
    for (size_t w = 0; w < num_workers; ++w) {
      if (w == thief) continue;
      if (!workers[w].feeding) continue;
      if (workers[w].queue->empty()) continue;
      const int64_t backlog =
          workers[w].routed_events -
          workers[w].processed.load(std::memory_order_relaxed);
      if (backlog > victim_backlog) {
        victim = w;
        victim_backlog = backlog;
      }
    }
    if (victim == num_workers) return;
    // Segment: the hottest shard on the victim that moves at most half its
    // load. Taking more would flip the imbalance onto the thief and bounce
    // the shard straight back (and with one shard holding all the heat,
    // there is nothing stealable — correct: moving it only relabels the
    // bottleneck).
    const std::vector<uint32_t>& placement = run_->placement;
    int64_t victim_total = 0;
    for (size_t v = 0; v < placement.size(); ++v) {
      if (placement[v] == victim) victim_total += shard_routed_[v];
    }
    int64_t best = -1;
    for (size_t v = 0; v < placement.size(); ++v) {
      if (placement[v] != victim) continue;
      const int64_t load = shard_routed_[v];
      if (load <= 0 || 2 * load > victim_total) continue;
      if (best < 0 || load > shard_routed_[static_cast<size_t>(best)]) {
        best = static_cast<int64_t>(v);
      }
    }
    if (best < 0) return;
    if (StartHandoff(static_cast<uint32_t>(best), victim, thief)) {
      ++workers[thief].stolen;
      ++workers[victim].donated;
      if (run_->observer != nullptr) {
        run_->observer->OnSegmentSteal(victim, thief,
                                       static_cast<size_t>(best));
      }
    }
  }

  RunState* const run_;
  std::vector<EventSlab> slabs_;
  std::vector<uint32_t> touched_;
  /// Events routed to each shard so far: the load estimate stealing ranks
  /// shards by.
  std::vector<int64_t> shard_routed_;
  bool handing_off_ = false;
  uint32_t handoff_shard_ = 0;
  uint32_t handoff_from_ = 0;
  std::vector<EventBatch> handoff_pending_;
};

struct KeyedOutcome {
  RunReport merged;
  std::vector<WorkerLoad> loads;
  int64_t steals = 0;
};

KeyedOutcome RunSharded(const ContinuousQuery& query, size_t num_workers,
                        EventSource* source, const ParallelOptions& options,
                        PipelineObserver* observer) {
  const size_t W = num_workers;
  const size_t V =
      options.virtual_shards == 0 ? W : options.virtual_shards;
  STREAMQ_CHECK_GE(V, W) << "virtual_shards must cover every worker";

  std::vector<std::unique_ptr<QueryExecutor>> executors;
  executors.reserve(V);
  for (size_t v = 0; v < V; ++v) {
    executors.push_back(std::make_unique<QueryExecutor>(query));
  }
  RunState run(std::move(executors), W, options, observer);
  ShardRouter router(&run);
  run.Pump(source, &router);
  router.Finish();
  const double wall_seconds = run.Stop();

  KeyedOutcome out;
  out.loads.resize(W);
  for (size_t w = 0; w < W; ++w) {
    out.loads[w] = run.Load(w);
    out.steals += out.loads[w].segments_stolen;
  }

  char cfg[160];
  std::snprintf(cfg, sizeof(cfg), "workers=%zu vshards=%zu steal=%s steals=%lld",
                W, V, options.steal ? "on" : "off",
                static_cast<long long>(out.steals));

  // Merge shard reports into one.
  RunReport& merged = out.merged;
  merged.query_name = query.name;
  merged.runtime_config = cfg;
  for (size_t v = 0; v < V; ++v) {
    RunReport r = run.Report(v);
    if (merged.status.ok() && !r.status.ok()) merged.status = r.status;
    merged.events_processed += r.events_processed;
    merged.events_rejected += r.events_rejected;
    merged.handler_stats.events_in += r.handler_stats.events_in;
    merged.handler_stats.events_out += r.handler_stats.events_out;
    merged.handler_stats.events_late += r.handler_stats.events_late;
    merged.handler_stats.events_dropped += r.handler_stats.events_dropped;
    merged.handler_stats.events_shed += r.handler_stats.events_shed;
    merged.handler_stats.events_force_released +=
        r.handler_stats.events_force_released;
    // Shards buffer concurrently; the sum bounds aggregate memory.
    merged.handler_stats.max_buffer_size += r.handler_stats.max_buffer_size;
    merged.handler_stats.buffering_latency_us.Merge(
        r.handler_stats.buffering_latency_us);
    merged.window_stats.events += r.window_stats.events;
    merged.window_stats.late_applied += r.window_stats.late_applied;
    merged.window_stats.late_dropped += r.window_stats.late_dropped;
    merged.window_stats.windows_fired += r.window_stats.windows_fired;
    merged.window_stats.revisions += r.window_stats.revisions;
    merged.results_amended += r.results_amended;
    merged.window_stats.max_live_windows += r.window_stats.max_live_windows;
    merged.final_slack = std::max(merged.final_slack, r.final_slack);
    merged.results.insert(merged.results.end(),
                          std::make_move_iterator(r.results.begin()),
                          std::make_move_iterator(r.results.end()));
  }
  merged.segments_stolen = out.steals;
  merged.SetWallSeconds(wall_seconds);
  std::stable_sort(merged.results.begin(), merged.results.end(),
                   [](const WindowResult& a, const WindowResult& b) {
                     return std::tie(a.bounds.start, a.key, a.revision_index) <
                            std::tie(b.bounds.start, b.key, b.revision_index);
                   });
  if (observer != nullptr) {
    observer->OnRunCompleted(merged.events_processed, wall_seconds);
  }

  return out;
}

}  // namespace

Status ParallelOptions::Validate() const {
  if (batch_size == 0) {
    return Status::InvalidArgument("batch_size must be positive");
  }
  if (queue_capacity == 0) {
    return Status::InvalidArgument("queue_capacity must be positive");
  }
  if (feed_timeout_us <= 0) {
    return Status::InvalidArgument("feed_timeout_us must be positive");
  }
  if (feed_max_attempts <= 0) {
    return Status::InvalidArgument("feed_max_attempts must be positive");
  }
  return Status::OK();
}

void ParallelMultiQueryRunner::AddQuery(const ContinuousQuery& query) {
  STREAMQ_CHECK_OK(query.Validate());
  queries_.push_back(query);
}

std::vector<RunReport> ParallelMultiQueryRunner::Run(EventSource* source) {
  STREAMQ_CHECK(!queries_.empty()) << "no queries added";
  STREAMQ_CHECK_OK(options_.Validate());
  return RunIndependent(queries_, source, options_, observer_);
}

ShardedKeyedRunner::ShardedKeyedRunner(const ContinuousQuery& query,
                                       size_t num_workers,
                                       ParallelOptions options)
    : query_(query), num_workers_(num_workers), options_(options) {
  STREAMQ_CHECK_GT(num_workers, 0u);
  STREAMQ_CHECK_OK(options_.Validate());
  STREAMQ_CHECK_OK(query.Validate());
  STREAMQ_CHECK(query.handler.per_key)
      << "ShardedKeyedRunner requires a per-key disorder handler";
  if (options_.virtual_shards != 0) {
    STREAMQ_CHECK_GE(options_.virtual_shards, num_workers)
        << "virtual_shards must cover every worker";
  }
  // Per-key watermarks make a window's first emission depend only on its
  // key's subsequence, which is what makes sharding result-preserving.
  query_.window.per_key_watermarks = true;
}

size_t ShardedKeyedRunner::ShardOf(int64_t key, size_t num_shards) {
  // splitmix64 finalizer.
  uint64_t x = static_cast<uint64_t>(key);
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return static_cast<size_t>(x % num_shards);
}

RunReport ShardedKeyedRunner::Run(EventSource* source) {
  KeyedOutcome out =
      RunSharded(query_, num_workers_, source, options_, observer_);
  loads_ = std::move(out.loads);
  steals_ = out.steals;
  return std::move(out.merged);
}

}  // namespace streamq
