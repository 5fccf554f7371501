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
#include "common/cpu_affinity.h"
#include "common/logging.h"
#include "common/time.h"
#include "core/adaptive_batch.h"
#include "core/mpsc_queue.h"
#include "core/queue_backoff.h"
#include "core/spsc_queue.h"
#include "stream/event.h"

namespace streamq {

namespace {

using EventBatch = EventArena::Batch;
using EventSlab = EventArena::Slab;

/// Run-scoped arena pool for everything crossing the queues: feed scratch,
/// shard sub-batches, and the batch nodes themselves. use_arena=false keeps
/// the same code path but disables pooling, so every batch is one heap
/// allocation freed by whichever thread drops it last — the reference
/// malloc path.
EventArena MakeRunArena(const ParallelOptions& options) {
  EventArena::Options a;
  a.slab_capacity = options.batch_size;
  const bool pool = options.use_arena;
  a.max_free_slabs = pool ? 1024 : 0;
  a.max_free_batches = pool ? 1024 : 0;
  return EventArena(a);
}

AdaptiveBatcher::Options BatcherOptions(const ParallelOptions& options) {
  AdaptiveBatcher::Options b;
  b.min_batch = options.min_batch;
  b.max_batch = options.max_batch;
  b.initial = options.batch_size;
  return b;
}

/// Mean worker-queue occupancy as a fraction of capacity — the adaptive
/// batch controller's depth input.
template <typename Queue>
double MeanDepthFraction(const std::vector<std::unique_ptr<Queue>>& queues) {
  double sum = 0.0;
  for (const auto& q : queues) {
    sum += static_cast<double>(q->size()) /
           static_cast<double>(q->capacity());
  }
  return queues.empty() ? 0.0 : sum / static_cast<double>(queues.size());
}

void MaybePin(const ParallelOptions& options, int core) {
  // Placement is a hint: a refused mask (cgroup cpuset, unsupported OS)
  // must never fail the run.
  if (options.pin_cores) (void)PinCurrentThreadToCore(core);
}

const char* DescribePin(const ParallelOptions& options) {
  if (!options.pin_cores) return "off";
  return CpuPinningSupported() ? "on" : "unsupported";
}

/// Driver-side delivery of one item with bounded patience. Fast path: one
/// lock-free TryPush. On a full ring: one backpressure-stall notification,
/// then deadline pushes with exponentially growing timeouts. Returns false
/// when the worker was abandoned — either it closed the queue itself
/// (failure; its own status explains why) or it stayed wedged past every
/// deadline, in which case `*fail_status` gets ResourceExhausted and the
/// queue is closed so the worker sees early end-of-stream.
template <typename Queue, typename Item>
bool FeedQueue(Queue* q, Item item, size_t worker,
               const ParallelOptions& options, PipelineObserver* observer,
               std::atomic<int64_t>* stall_counter, Status* fail_status) {
  if (q->TryPush(std::move(item))) return true;
  if (q->closed()) return false;
  stall_counter->fetch_add(1, std::memory_order_relaxed);
  if (observer != nullptr) observer->OnBackpressureStall(worker);
  DurationUs timeout = options.feed_timeout_us;
  for (int attempt = 0; attempt < options.feed_max_attempts; ++attempt) {
    // TryPushFor only consumes `item` on success, so retry keeps it.
    if (q->TryPushFor(std::move(item), timeout)) return true;
    if (q->closed()) return false;
    timeout *= 2;
  }
  *fail_status = Status::ResourceExhausted(
      "worker " + std::to_string(worker) +
      " stuck: queue full past feed timeout");
  q->Close();
  return false;
}

/// First abandoner records the driver status and drops the worker from the
/// feed set; with several producers the CAS makes exactly one of them win,
/// so `*driver_status` is written once, race-free.
void AbandonWorker(std::atomic<bool>* feeding_flag,
                   std::atomic<size_t>* feeding_count, Status* driver_status,
                   Status fail) {
  bool expected = true;
  if (feeding_flag->compare_exchange_strong(expected, false)) {
    if (!fail.ok()) *driver_status = std::move(fail);
    feeding_count->fetch_sub(1, std::memory_order_relaxed);
  }
}

/// End-of-stream sentinel (empty batch / kStop item), unless the worker is
/// already gone.
template <typename Queue>
void SendEos(Queue* q) {
  if (!q->closed()) q->Push({});
}

/// Report status priority: a worker fault explains more than the driver's
/// view of it, which explains more than the executor's own (strict
/// validation) status.
void ApplyRunStatus(RunReport* report, const Status& worker_status,
                    const Status& driver_status) {
  if (!worker_status.ok()) {
    report->status = worker_status;
  } else if (!driver_status.ok()) {
    report->status = driver_status;
  }
}

// --- Independent (multi-query) runner ------------------------------------

/// Worker loop: drain the queue into the executor, then flush. Exceptions
/// are contained on the worker thread — the queue is closed (so producers
/// stop feeding), drained (so a blocked producer gets room and the shared
/// batches are released), and the failure lands in `*status` for the
/// merged report instead of std::terminate.
template <typename Queue>
void RunWorker(QueryExecutor* exec, Queue* q, Status* status) {
  try {
    EventBatch batch;
    while (q->Pop(&batch)) {
      if (!batch) break;  // End-of-stream sentinel.
      exec->FeedBatch(*batch);
      batch.reset();
    }
    exec->Finish();
  } catch (const std::exception& ex) {
    *status = Status::Internal(std::string("worker failed: ") + ex.what());
  } catch (...) {
    *status = Status::Internal("worker failed: non-standard exception");
  }
  if (!status->ok()) {
    q->Close();
    EventBatch drain;
    while (q->TryPop(&drain)) drain.reset();
  }
}

template <typename Queue>
std::vector<RunReport> RunIndependent(const std::vector<ContinuousQuery>& queries,
                                      std::span<EventSource* const> sources,
                                      const ParallelOptions& options,
                                      PipelineObserver* observer) {
  const size_t n = queries.size();
  const size_t num_producers = sources.size();

  std::vector<std::unique_ptr<QueryExecutor>> executors;
  std::vector<std::unique_ptr<Queue>> queues;
  executors.reserve(n);
  queues.reserve(n);
  for (const ContinuousQuery& q : queries) {
    executors.push_back(std::make_unique<QueryExecutor>(q));
    if (observer != nullptr) executors.back()->SetObserver(observer);
    queues.push_back(std::make_unique<Queue>(options.queue_capacity));
  }

  EventArena arena = MakeRunArena(options);
  const TimestampUs start = WallClockMicros();

  std::vector<Status> worker_status(n);
  std::vector<Status> driver_status(n);
  auto feeding = std::make_unique<std::atomic<bool>[]>(n);
  auto stalls = std::make_unique<std::atomic<int64_t>[]>(n);
  for (size_t i = 0; i < n; ++i) {
    feeding[i].store(true, std::memory_order_relaxed);
    stalls[i].store(0, std::memory_order_relaxed);
  }
  std::atomic<size_t> feeding_count{n};
  std::atomic<int64_t> events_pulled{0};
  std::atomic<size_t> final_batch{options.batch_size};

  std::vector<std::thread> workers;
  workers.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers.emplace_back([&, i] {
      MaybePin(options, static_cast<int>(i));
      RunWorker(executors[i].get(), queues[i].get(), &worker_status[i]);
    });
  }

  // Producer: pull arrival-ordered batches and publish each to every worker
  // still accepting input. A failed or stuck worker is abandoned (see
  // FeedQueue), never waited on forever. The scratch slab swap-cycles with
  // the arena's batch nodes, so the steady state allocates nothing.
  auto produce = [&](EventSource* source, size_t producer) {
    MaybePin(options, static_cast<int>(n + producer));
    AdaptiveBatcher batcher(BatcherOptions(options));
    size_t feed_batch = options.batch_size;
    EventSlab chunk = arena.Acquire();
    while (feeding_count.load(std::memory_order_relaxed) > 0 &&
           source->NextBatch(&chunk, feed_batch) > 0) {
      const TimestampUs route_start =
          options.adaptive_batch ? WallClockMicros() : 0;
      const int64_t pulled = static_cast<int64_t>(chunk.size());
      events_pulled.fetch_add(pulled, std::memory_order_relaxed);
      if (observer != nullptr) observer->OnSourceBatch(pulled);
      EventBatch batch = arena.Share(&chunk);
      for (size_t i = 0; i < n; ++i) {
        if (!feeding[i].load(std::memory_order_relaxed)) continue;
        EventBatch copy = batch;
        Status fail;
        if (!FeedQueue(queues[i].get(), std::move(copy), i, options, observer,
                       &stalls[i], &fail)) {
          AbandonWorker(&feeding[i], &feeding_count, &driver_status[i],
                        std::move(fail));
          continue;
        }
        if (observer != nullptr) observer->OnQueueDepth(i, queues[i]->size());
      }
      if (options.adaptive_batch &&
          batcher.Observe(MeanDepthFraction(queues),
                          static_cast<double>(WallClockMicros() -
                                              route_start))) {
        feed_batch = batcher.batch();
        if (observer != nullptr) {
          observer->OnBatchSizeAdapted(producer, feed_batch);
        }
      }
    }
    arena.Recycle(std::move(chunk));
    final_batch.store(feed_batch, std::memory_order_relaxed);
  };

  if (num_producers == 1) {
    produce(sources[0], 0);  // Single source: drive from the caller thread.
  } else {
    std::vector<std::thread> producers;
    producers.reserve(num_producers);
    for (size_t p = 0; p < num_producers; ++p) {
      producers.emplace_back([&, p] { produce(sources[p], p); });
    }
    for (std::thread& t : producers) t.join();
  }

  for (auto& q : queues) SendEos(q.get());
  for (std::thread& t : workers) t.join();

  const double wall_seconds = ToSeconds(WallClockMicros() - start);
  if (observer != nullptr) {
    observer->OnRunCompleted(events_pulled.load(std::memory_order_relaxed),
                             wall_seconds);
  }

  char cfg[224];
  std::snprintf(cfg, sizeof(cfg),
                "workers=%zu producers=%zu feed=%s arena=%s pin=%s "
                "batch_final=%zu",
                n, num_producers, num_producers > 1 ? "mpsc" : "spsc",
                options.use_arena ? "on" : "off", DescribePin(options),
                final_batch.load(std::memory_order_relaxed));

  std::vector<RunReport> reports;
  reports.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    RunReport r = executors[i]->Report();
    // Workers do not time themselves; charge the shared parallel wall time.
    r.wall_seconds = wall_seconds;
    r.throughput_eps =
        wall_seconds > 0.0
            ? static_cast<double>(r.events_processed) / wall_seconds
            : 0.0;
    r.runtime_config = cfg;
    ApplyRunStatus(&r, worker_status[i], driver_status[i]);
    reports.push_back(std::move(r));
  }
  return reports;
}

// --- Sharded keyed runner -------------------------------------------------

/// What crosses a keyed worker's queue. kBatch carries events for one
/// virtual shard; the markers drive the steal/termination protocol:
/// kRelease publishes "every batch this worker will ever see for this
/// shard has been fed" (the handoff safe point), kFinish flushes one
/// shard's executor, kStop ends the worker. A default-constructed item is
/// kStop, so SendEos works unchanged.
enum class FeedKind : uint8_t { kStop, kBatch, kRelease, kFinish };

struct FeedItem {
  EventBatch batch;
  uint32_t shard = 0;
  FeedKind kind = FeedKind::kStop;
};

/// Keyed worker loop. `executors` is the full virtual-shard table (shared,
/// but a shard is only ever touched by its current owner: batches for it
/// arrive on exactly one queue at a time, and ownership moves only through
/// the kRelease handshake, which sequences old-owner writes
/// before new-owner reads). `owned` tracks which shards this worker is
/// currently responsible for, so an abandoned worker can still flush its
/// partial results like the legacy runner did. `hungry` is the pull signal
/// for work stealing: the worker raises it when its queue runs dry, right
/// before blocking, and clears it on the next item — the driver reads it
/// (relaxed; it is a heuristic, not a synchronization edge) to pick steal
/// beneficiaries.
template <typename Queue>
void RunShardWorker(Queue* q, QueryExecutor* const* executors,
                    size_t num_virtual, std::atomic<uint32_t>* released,
                    Status* status, std::atomic<int64_t>* processed,
                    std::atomic<bool>* exited, std::atomic<uint32_t>* hungry) {
  std::vector<uint8_t> owned(num_virtual, 0);
  try {
    FeedItem item;
    bool stop = false;
    while (!stop) {
      if (!q->TryPop(&item)) {
        // Queue dry: advertise hunger so a stealing driver can route a
        // backlogged shard here, then block for the next item.
        hungry->store(1, std::memory_order_relaxed);
        const bool got = q->Pop(&item);
        hungry->store(0, std::memory_order_relaxed);
        if (!got) break;
      }
      switch (item.kind) {
        case FeedKind::kBatch:
          owned[item.shard] = 1;
          executors[item.shard]->FeedBatch(*item.batch);
          processed->fetch_add(static_cast<int64_t>(item.batch->size()),
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
    // shard, making this a no-op. An abandoned worker (queue closed by the
    // driver) lands here after processing its backlog: finish what it
    // still owns so the partial results surface, as the legacy runner did.
    for (size_t v = 0; v < num_virtual; ++v) {
      if (owned[v] != 0) executors[v]->Finish();
    }
  } catch (const std::exception& ex) {
    *status = Status::Internal(std::string("worker failed: ") + ex.what());
  } catch (...) {
    *status = Status::Internal("worker failed: non-standard exception");
  }
  if (!status->ok()) {
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
  exited->store(true, std::memory_order_release);
}

struct KeyedOutcome {
  RunReport merged;
  std::vector<WorkerLoad> loads;
  int64_t steals = 0;
  size_t final_batch = 0;
};

template <typename Queue>
KeyedOutcome RunSharded(const ContinuousQuery& query, size_t num_workers,
                        std::span<EventSource* const> sources,
                        const ParallelOptions& options,
                        PipelineObserver* observer) {
  const size_t W = num_workers;
  const size_t V =
      options.virtual_shards == 0 ? W : options.virtual_shards;
  STREAMQ_CHECK_GE(V, W) << "virtual_shards must cover every worker";
  const size_t num_producers = sources.size();

  std::vector<std::unique_ptr<QueryExecutor>> executors;
  executors.reserve(V);
  std::vector<QueryExecutor*> exec_ptrs(V);
  for (size_t v = 0; v < V; ++v) {
    executors.push_back(std::make_unique<QueryExecutor>(query));
    if (observer != nullptr) executors.back()->SetObserver(observer);
    exec_ptrs[v] = executors.back().get();
  }
  std::vector<std::unique_ptr<Queue>> queues;
  queues.reserve(W);
  for (size_t w = 0; w < W; ++w) {
    queues.push_back(std::make_unique<Queue>(options.queue_capacity));
  }

  auto released = std::make_unique<std::atomic<uint32_t>[]>(V);
  for (size_t v = 0; v < V; ++v) released[v].store(0, std::memory_order_relaxed);
  auto feeding = std::make_unique<std::atomic<bool>[]>(W);
  auto exited = std::make_unique<std::atomic<bool>[]>(W);
  auto processed = std::make_unique<std::atomic<int64_t>[]>(W);
  auto routed_events = std::make_unique<std::atomic<int64_t>[]>(W);
  auto routed_batches = std::make_unique<std::atomic<int64_t>[]>(W);
  auto stalls = std::make_unique<std::atomic<int64_t>[]>(W);
  for (size_t w = 0; w < W; ++w) {
    feeding[w].store(true, std::memory_order_relaxed);
    exited[w].store(false, std::memory_order_relaxed);
    processed[w].store(0, std::memory_order_relaxed);
    routed_events[w].store(0, std::memory_order_relaxed);
    routed_batches[w].store(0, std::memory_order_relaxed);
    stalls[w].store(0, std::memory_order_relaxed);
  }
  std::atomic<size_t> feeding_count{W};
  std::vector<Status> worker_status(W);
  std::vector<Status> driver_status(W);

  /// shard -> worker. Starts round-robin (identity when V == W, matching
  /// the legacy static routing bit for bit); stealing is the only writer,
  /// and only in the single-producer path.
  std::vector<uint32_t> placement(V);
  for (size_t v = 0; v < V; ++v) placement[v] = static_cast<uint32_t>(v % W);

  auto hungry = std::make_unique<std::atomic<uint32_t>[]>(W);
  for (size_t w = 0; w < W; ++w) hungry[w].store(0, std::memory_order_relaxed);

  EventArena arena = MakeRunArena(options);
  const TimestampUs start = WallClockMicros();

  std::vector<std::thread> workers;
  workers.reserve(W);
  for (size_t w = 0; w < W; ++w) {
    workers.emplace_back([&, w] {
      MaybePin(options, static_cast<int>(w));
      RunShardWorker(queues[w].get(), exec_ptrs.data(), V, released.get(),
                     &worker_status[w], &processed[w], &exited[w],
                     &hungry[w]);
    });
  }

  int64_t steals = 0;
  std::vector<int64_t> stolen_by(W, 0);
  std::vector<int64_t> donated_by(W, 0);
  std::atomic<size_t> final_batch{options.batch_size};

  if (num_producers == 1) {
    // --- Single-producer drive; stealing lives here ----------------------
    EventSource* source = sources[0];
    std::vector<EventSlab> shard_slabs(V);
    std::vector<uint32_t> touched;
    touched.reserve(std::min<size_t>(V, 256));
    // Events routed to each shard so far: the load estimate stealing ranks
    // shards by.
    std::vector<int64_t> shard_routed(V, 0);
    AdaptiveBatcher batcher(BatcherOptions(options));
    size_t feed_batch = options.batch_size;

    bool handing_off = false;
    uint32_t handoff_shard = 0;
    uint32_t handoff_from = 0;
    std::vector<EventBatch> handoff_pending;

    auto deliver = [&](uint32_t v, EventBatch batch) {
      const size_t w = placement[v];
      if (!feeding[w].load(std::memory_order_relaxed)) return;  // Degraded.
      const int64_t count = static_cast<int64_t>(batch->size());
      FeedItem item;
      item.batch = std::move(batch);
      item.shard = v;
      item.kind = FeedKind::kBatch;
      Status fail;
      if (!FeedQueue(queues[w].get(), std::move(item), w, options, observer,
                     &stalls[w], &fail)) {
        AbandonWorker(&feeding[w], &feeding_count, &driver_status[w],
                      std::move(fail));
        return;
      }
      routed_events[w].fetch_add(count, std::memory_order_relaxed);
      routed_batches[w].fetch_add(1, std::memory_order_relaxed);
      if (observer != nullptr) {
        observer->OnShardBatch(w, count);
        observer->OnQueueDepth(w, queues[w]->size());
      }
    };

    // The old owner acknowledged the handoff (or died): flush the batches
    // buffered while the shard was in flight to its new worker, in routed
    // order. placement[handoff_shard] already points at the target.
    auto complete_handoff = [&] {
      for (EventBatch& b : handoff_pending) {
        deliver(handoff_shard, std::move(b));
      }
      handoff_pending.clear();
      handing_off = false;
    };

    // Safe-point handoff: re-arm the release flag *before* the marker is
    // visible, then hand the in-band kRelease marker to the current owner.
    // From the marker on, batches for the shard are buffered
    // (handoff_pending) until the owner acknowledges, so at most one
    // handoff is in flight.
    auto start_handoff = [&](uint32_t shard, size_t from, size_t to) -> bool {
      released[shard].store(0, std::memory_order_relaxed);
      FeedItem marker;
      marker.shard = shard;
      marker.kind = FeedKind::kRelease;
      Status fail;
      if (!FeedQueue(queues[from].get(), std::move(marker), from, options,
                     observer, &stalls[from], &fail)) {
        AbandonWorker(&feeding[from], &feeding_count, &driver_status[from],
                      std::move(fail));
        return false;
      }
      handing_off = true;
      handoff_shard = shard;
      handoff_from = static_cast<uint32_t>(from);
      placement[shard] = static_cast<uint32_t>(to);
      return true;
    };

    // Demand-driven steal: a worker blocked on an empty queue (hungry)
    // pulls the hottest movable shard from the most-backlogged worker.
    // Triggers read worker progress (hunger flags, processed counters), so
    // *when* steals happen is timing-dependent; *what* they produce is not
    // — placement never affects the merged output (see class comment).
    auto maybe_steal = [&] {
      // Thief: a starving worker that is still fed and genuinely drained.
      size_t thief = W;
      for (size_t w = 0; w < W; ++w) {
        if (hungry[w].load(std::memory_order_relaxed) != 0 &&
            feeding[w].load(std::memory_order_relaxed) &&
            queues[w]->empty()) {
          thief = w;
          break;
        }
      }
      if (thief == W) return;
      // Victim: the most backlogged worker (routed minus processed) with
      // at least two feed batches pending and batches still queued; a
      // drained victim has nothing worth pulling.
      size_t victim = W;
      int64_t victim_backlog = 2 * static_cast<int64_t>(feed_batch) - 1;
      for (size_t w = 0; w < W; ++w) {
        if (w == thief) continue;
        if (!feeding[w].load(std::memory_order_relaxed)) continue;
        if (queues[w]->empty()) continue;
        const int64_t backlog =
            routed_events[w].load(std::memory_order_relaxed) -
            processed[w].load(std::memory_order_relaxed);
        if (backlog > victim_backlog) {
          victim = w;
          victim_backlog = backlog;
        }
      }
      if (victim == W) return;
      // Segment: the hottest shard on the victim that moves at most half
      // its load. Taking more would flip the imbalance onto the thief and
      // bounce the shard straight back (and with one shard holding all
      // the heat, there is nothing stealable — correct: moving it only
      // relabels the bottleneck).
      int64_t victim_total = 0;
      for (size_t v = 0; v < V; ++v) {
        if (placement[v] == victim) victim_total += shard_routed[v];
      }
      int64_t best = -1;
      for (size_t v = 0; v < V; ++v) {
        if (placement[v] != victim) continue;
        const int64_t load = shard_routed[v];
        if (load <= 0 || 2 * load > victim_total) continue;
        if (best < 0 || load > shard_routed[static_cast<size_t>(best)]) {
          best = static_cast<int64_t>(v);
        }
      }
      if (best < 0) return;
      if (start_handoff(static_cast<uint32_t>(best), victim, thief)) {
        ++steals;
        ++stolen_by[thief];
        ++donated_by[victim];
        if (observer != nullptr) {
          observer->OnSegmentSteal(victim, thief,
                                   static_cast<size_t>(best));
        }
      }
    };

    EventSlab chunk = arena.Acquire();
    while (feeding_count.load(std::memory_order_relaxed) > 0 &&
           source->NextBatch(&chunk, feed_batch) > 0) {
      const TimestampUs route_start =
          options.adaptive_batch ? WallClockMicros() : 0;
      if (observer != nullptr) {
        observer->OnSourceBatch(static_cast<int64_t>(chunk.size()));
      }
      for (const Event& e : chunk) {
        const auto v = static_cast<uint32_t>(
            ShardedKeyedRunner::ShardOf(e.key, V));
        EventSlab& slab = shard_slabs[v];
        if (slab.empty()) touched.push_back(v);
        slab.push_back(e);
      }
      chunk.clear();
      for (const uint32_t v : touched) {
        shard_routed[v] += static_cast<int64_t>(shard_slabs[v].size());
        if (handing_off && v == handoff_shard) {
          // In flight between workers: buffer until the old owner
          // acknowledges the release marker.
          handoff_pending.push_back(arena.Share(&shard_slabs[v]));
          continue;
        }
        deliver(v, arena.Share(&shard_slabs[v]));
      }
      touched.clear();
      if (options.adaptive_batch &&
          batcher.Observe(MeanDepthFraction(queues),
                          static_cast<double>(WallClockMicros() -
                                              route_start))) {
        feed_batch = batcher.batch();
        if (observer != nullptr) observer->OnBatchSizeAdapted(0, feed_batch);
      }
      if (handing_off &&
          released[handoff_shard].load(std::memory_order_acquire) != 0) {
        complete_handoff();
      }
      if (options.steal && !handing_off) maybe_steal();
    }
    arena.Recycle(std::move(chunk));
    for (EventSlab& slab : shard_slabs) {
      if (slab.capacity() > 0) arena.Recycle(std::move(slab));
    }
    final_batch.store(feed_batch, std::memory_order_relaxed);

    // Settle an in-flight handoff before the terminal flush: wait for
    // the old owner's acknowledgement (or its exit — a dead owner can
    // never touch the shard again, which is just as safe).
    if (handing_off) {
      BackoffUntil([&] {
        return released[handoff_shard].load(std::memory_order_acquire) != 0 ||
               exited[handoff_from].load(std::memory_order_acquire);
      });
      complete_handoff();
    }
  } else {
    // --- Multi-producer drive: static placement over MPSC queues ---------
    STREAMQ_CHECK(!options.steal) << "steal requires a single-source run";
    std::vector<std::thread> producers;
    producers.reserve(num_producers);
    for (size_t p = 0; p < num_producers; ++p) {
      producers.emplace_back([&, p] {
        MaybePin(options, static_cast<int>(W + p));
        EventSource* source = sources[p];
        std::vector<EventSlab> shard_slabs(V);
        std::vector<uint32_t> touched;
        touched.reserve(std::min<size_t>(V, 256));
        AdaptiveBatcher batcher(BatcherOptions(options));
        size_t feed_batch = options.batch_size;
        EventSlab chunk = arena.Acquire();
        while (feeding_count.load(std::memory_order_relaxed) > 0 &&
               source->NextBatch(&chunk, feed_batch) > 0) {
          const TimestampUs route_start =
              options.adaptive_batch ? WallClockMicros() : 0;
          if (observer != nullptr) {
            observer->OnSourceBatch(static_cast<int64_t>(chunk.size()));
          }
          for (const Event& e : chunk) {
            const auto v = static_cast<uint32_t>(
                ShardedKeyedRunner::ShardOf(e.key, V));
            EventSlab& slab = shard_slabs[v];
            if (slab.empty()) touched.push_back(v);
            slab.push_back(e);
          }
          chunk.clear();
          for (const uint32_t v : touched) {
            const size_t w = placement[v];  // Static; never written here.
            if (!feeding[w].load(std::memory_order_relaxed)) {
              shard_slabs[v].clear();
              continue;
            }
            const int64_t count =
                static_cast<int64_t>(shard_slabs[v].size());
            FeedItem item;
            item.batch = arena.Share(&shard_slabs[v]);
            item.shard = v;
            item.kind = FeedKind::kBatch;
            Status fail;
            if (!FeedQueue(queues[w].get(), std::move(item), w, options,
                           observer, &stalls[w], &fail)) {
              AbandonWorker(&feeding[w], &feeding_count, &driver_status[w],
                            std::move(fail));
              continue;
            }
            routed_events[w].fetch_add(count, std::memory_order_relaxed);
            routed_batches[w].fetch_add(1, std::memory_order_relaxed);
            if (observer != nullptr) {
              observer->OnShardBatch(w, count);
              observer->OnQueueDepth(w, queues[w]->size());
            }
          }
          touched.clear();
          if (options.adaptive_batch &&
              batcher.Observe(MeanDepthFraction(queues),
                              static_cast<double>(WallClockMicros() -
                                                  route_start))) {
            feed_batch = batcher.batch();
            if (observer != nullptr) {
              observer->OnBatchSizeAdapted(p, feed_batch);
            }
          }
        }
        arena.Recycle(std::move(chunk));
        for (EventSlab& slab : shard_slabs) {
          if (slab.capacity() > 0) arena.Recycle(std::move(slab));
        }
        final_batch.store(feed_batch, std::memory_order_relaxed);
      });
    }
    for (std::thread& t : producers) t.join();
  }

  // Terminal flush: every shard gets a kFinish on its current owner's
  // queue (owners flush in parallel), then the stop sentinels.
  for (size_t v = 0; v < V; ++v) {
    const size_t w = placement[v];
    if (!feeding[w].load(std::memory_order_relaxed)) continue;
    FeedItem fin;
    fin.shard = static_cast<uint32_t>(v);
    fin.kind = FeedKind::kFinish;
    Status fail;
    if (!FeedQueue(queues[w].get(), std::move(fin), w, options, observer,
                   &stalls[w], &fail)) {
      AbandonWorker(&feeding[w], &feeding_count, &driver_status[w],
                    std::move(fail));
    }
  }
  for (auto& q : queues) SendEos(q.get());
  for (std::thread& t : workers) t.join();

  const double wall_seconds = ToSeconds(WallClockMicros() - start);

  char cfg[320];
  std::snprintf(
      cfg, sizeof(cfg),
      "workers=%zu vshards=%zu producers=%zu feed=%s arena=%s pin=%s "
      "steal=%s steals=%lld batch_final=%zu",
      W, V, num_producers, num_producers > 1 ? "mpsc" : "spsc",
      options.use_arena ? "on" : "off", DescribePin(options),
      options.steal ? "on" : "off", static_cast<long long>(steals),
      final_batch.load(std::memory_order_relaxed));

  // Merge shard reports into one.
  KeyedOutcome out;
  out.steals = steals;
  out.final_batch = final_batch.load(std::memory_order_relaxed);
  RunReport& merged = out.merged;
  merged.query_name = query.name;
  merged.wall_seconds = wall_seconds;
  merged.runtime_config = cfg;
  for (size_t v = 0; v < V; ++v) {
    RunReport r = executors[v]->Report();
    const size_t w = placement[v];
    ApplyRunStatus(&r, worker_status[w], driver_status[w]);
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
    merged.handler_stats.latency_samples.insert(
        merged.handler_stats.latency_samples.end(),
        r.handler_stats.latency_samples.begin(),
        r.handler_stats.latency_samples.end());
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
  merged.segments_stolen = steals;
  merged.throughput_eps =
      wall_seconds > 0.0
          ? static_cast<double>(merged.events_processed) / wall_seconds
          : 0.0;
  std::stable_sort(merged.results.begin(), merged.results.end(),
                   [](const WindowResult& a, const WindowResult& b) {
                     return std::tie(a.bounds.start, a.key, a.revision_index) <
                            std::tie(b.bounds.start, b.key, b.revision_index);
                   });
  if (observer != nullptr) {
    observer->OnRunCompleted(merged.events_processed, wall_seconds);
  }

  out.loads.resize(W);
  for (size_t w = 0; w < W; ++w) {
    out.loads[w].events_routed =
        routed_events[w].load(std::memory_order_relaxed);
    out.loads[w].batches_routed =
        routed_batches[w].load(std::memory_order_relaxed);
    out.loads[w].events_processed =
        processed[w].load(std::memory_order_relaxed);
    out.loads[w].stalls = stalls[w].load(std::memory_order_relaxed);
    out.loads[w].segments_stolen = stolen_by[w];
    out.loads[w].segments_donated = donated_by[w];
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
  if (min_batch == 0) {
    return Status::InvalidArgument("min_batch must be positive");
  }
  if (max_batch < min_batch) {
    return Status::InvalidArgument(
        "max_batch must be >= min_batch (the adaptive controller clamps "
        "to [min_batch, max_batch])");
  }
  if (adaptive_batch && (batch_size < min_batch || batch_size > max_batch)) {
    return Status::InvalidArgument(
        "batch_size is the adaptive controller's starting point and must "
        "lie within [min_batch, max_batch]");
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
  EventSource* one[1] = {source};
  return RunIndependent<SpscQueue<EventBatch>>(
      queries_, std::span<EventSource* const>(one, 1), options_, observer_);
}

std::vector<RunReport> ParallelMultiQueryRunner::RunMultiSource(
    std::span<EventSource* const> sources) {
  STREAMQ_CHECK(!queries_.empty()) << "no queries added";
  STREAMQ_CHECK(!sources.empty()) << "no sources";
  STREAMQ_CHECK_OK(options_.Validate());
  if (sources.size() == 1) {
    return RunIndependent<SpscQueue<EventBatch>>(queries_, sources, options_,
                                                 observer_);
  }
  return RunIndependent<MpscQueue<EventBatch>>(queries_, sources, options_,
                                               observer_);
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
  EventSource* one[1] = {source};
  KeyedOutcome out = RunSharded<SpscQueue<FeedItem>>(
      query_, num_workers_, std::span<EventSource* const>(one, 1), options_,
      observer_);
  loads_ = std::move(out.loads);
  steals_ = out.steals;
  final_batch_ = out.final_batch;
  return std::move(out.merged);
}

RunReport ShardedKeyedRunner::RunMultiSource(
    std::span<EventSource* const> sources) {
  STREAMQ_CHECK(!sources.empty()) << "no sources";
  STREAMQ_CHECK(!options_.steal || sources.size() == 1)
      << "steal requires a single-source run";
  KeyedOutcome out =
      sources.size() == 1
          ? RunSharded<SpscQueue<FeedItem>>(query_, num_workers_, sources,
                                            options_, observer_)
          : RunSharded<MpscQueue<FeedItem>>(query_, num_workers_, sources,
                                            options_, observer_);
  loads_ = std::move(out.loads);
  steals_ = out.steals;
  final_batch_ = out.final_batch;
  return std::move(out.merged);
}

}  // namespace streamq
