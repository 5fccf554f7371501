// SpscQueue, ParallelMultiQueryRunner, and ShardedKeyedRunner.
//
// The parallel runner's contract is *determinism*: threads change when work
// happens, never what each query observes, so its reports must be
// byte-identical to the sequential kIndependent plan. The sharded runner's
// contract is weaker (see parallel_runner.h): first-emission content is
// shard-invariant; with no late tuples at all, entire runs are.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/multi_query.h"
#include "core/parallel_runner.h"
#include "core/spsc_queue.h"
#include "stream/generator.h"
#include "stream/source.h"
#include "tests/test_util.h"

namespace streamq {
namespace {

// ---------------------------------------------------------------- SpscQueue

TEST(SpscQueueTest, CapacityRoundsUpToPowerOfTwo) {
  SpscQueue<int> q3(3);
  EXPECT_EQ(q3.capacity(), 4u);
  SpscQueue<int> q4(4);
  EXPECT_EQ(q4.capacity(), 4u);
  SpscQueue<int> q1(1);
  EXPECT_EQ(q1.capacity(), 1u);
}

TEST(SpscQueueTest, FifoSingleThread) {
  SpscQueue<int> q(4);
  int out = 0;
  EXPECT_FALSE(q.TryPop(&out));
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(q.TryPush(int(i)));
  EXPECT_FALSE(q.TryPush(99));  // Full.
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(q.TryPop(&out));
    EXPECT_EQ(out, i);
  }
  EXPECT_FALSE(q.TryPop(&out));  // Empty again.
}

TEST(SpscQueueTest, TwoThreadsTransferEverythingInOrder) {
  constexpr int kCount = 100000;
  SpscQueue<int> q(8);  // Tiny ring so both sides hit full/empty often.
  std::vector<int> received;
  received.reserve(kCount);
  std::thread consumer([&q, &received] {
    int out = 0;
    while (q.Pop(&out)) received.push_back(out);
  });
  for (int i = 0; i < kCount; ++i) EXPECT_TRUE(q.Push(int(i)));
  q.Close();
  consumer.join();
  ASSERT_EQ(received.size(), static_cast<size_t>(kCount));
  for (int i = 0; i < kCount; ++i) ASSERT_EQ(received[i], i);
}

TEST(SpscQueueTest, CloseStopsPushesButDrainsPops) {
  SpscQueue<int> q(4);
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  q.Close();
  EXPECT_TRUE(q.closed());
  EXPECT_FALSE(q.TryPush(3));  // Closed: no new elements.
  EXPECT_FALSE(q.Push(3));     // Blocking push returns instead of spinning.
  int out = 0;
  EXPECT_TRUE(q.Pop(&out));  // Published elements survive the close…
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(q.Pop(&out));
  EXPECT_EQ(out, 2);
  EXPECT_FALSE(q.Pop(&out));  // …then the drained queue reports done.
}

TEST(SpscQueueTest, TryPushForTimesOutOnFullRingAndKeepsValue) {
  SpscQueue<std::unique_ptr<int>> q(1);
  ASSERT_TRUE(q.TryPush(std::make_unique<int>(1)));  // Ring now full.
  auto value = std::make_unique<int>(2);
  EXPECT_FALSE(q.TryPushFor(std::move(value), /*timeout_us=*/2000));
  ASSERT_NE(value, nullptr);  // Only consumed on success.
  EXPECT_EQ(*value, 2);
  std::unique_ptr<int> out;
  ASSERT_TRUE(q.TryPop(&out));
  EXPECT_TRUE(q.TryPushFor(std::move(value), /*timeout_us=*/2000));
  EXPECT_EQ(value, nullptr);
}

// ------------------------------------------------- ParallelMultiQueryRunner

ContinuousQuery HandlerQuery(const std::string& name, double target_quality) {
  ContinuousQuery q;
  q.name = name;
  AqKSlack::Options aq;
  aq.target_quality = target_quality;
  q.handler = DisorderHandlerSpec::Aq(aq);
  q.window.window = WindowSpec::Tumbling(Millis(50));
  q.window.aggregate.kind = AggKind::kSum;
  return q;
}

/// Records each calling thread's latency series apart, in callback order.
class PerThreadLatencyRecorder : public PipelineObserver {
 public:
  void OnBufferingLatency(double latency_us) override {
    std::lock_guard<std::mutex> lock(mu_);
    by_thread_[std::this_thread::get_id()].push_back(latency_us);
  }

  std::vector<std::vector<double>> Series() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::vector<double>> out;
    for (const auto& [id, series] : by_thread_) out.push_back(series);
    return out;
  }

 private:
  mutable std::mutex mu_;
  std::map<std::thread::id, std::vector<double>> by_thread_;
};

void ExpectSameOutcome(const RunReport& a, const RunReport& b) {
  EXPECT_EQ(a.query_name, b.query_name);
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_EQ(a.results, b.results);
  EXPECT_EQ(a.handler_stats.events_in, b.handler_stats.events_in);
  EXPECT_EQ(a.handler_stats.events_out, b.handler_stats.events_out);
  EXPECT_EQ(a.handler_stats.events_late, b.handler_stats.events_late);
  EXPECT_EQ(a.handler_stats.buffering_latency_us.count(),
            b.handler_stats.buffering_latency_us.count());
  EXPECT_EQ(a.handler_stats.buffering_latency_us.mean(),
            b.handler_stats.buffering_latency_us.mean());
  EXPECT_EQ(a.handler_stats.buffering_latency_us.min(),
            b.handler_stats.buffering_latency_us.min());
  EXPECT_EQ(a.handler_stats.buffering_latency_us.max(),
            b.handler_stats.buffering_latency_us.max());
  EXPECT_EQ(a.window_stats.windows_fired, b.window_stats.windows_fired);
  EXPECT_EQ(a.window_stats.revisions, b.window_stats.revisions);
  EXPECT_EQ(a.final_slack, b.final_slack);
}

TEST(ParallelMultiQueryRunnerTest, MatchesSequentialIndependentPlan) {
  const auto w = testutil::DisorderedWorkload(8000);

  MultiQueryRunner sequential(MultiQueryRunner::Plan::kIndependent);
  ParallelMultiQueryRunner parallel;
  std::vector<ContinuousQuery> queries;
  for (int i = 0; i < 3; ++i) {
    // Built via += to dodge GCC 12's -Wrestrict false positive (PR105651).
    std::string name = "q";
    name += std::to_string(i);
    queries.push_back(HandlerQuery(name, 0.90 + 0.03 * i));
    sequential.AddQuery(queries.back());
    parallel.AddQuery(queries.back());
  }

  VectorSource s1(w.arrival_order);
  const auto seq_reports = sequential.Run(&s1);
  VectorSource s2(w.arrival_order);
  const auto par_reports = parallel.Run(&s2);

  ASSERT_EQ(seq_reports.size(), par_reports.size());
  for (size_t i = 0; i < seq_reports.size(); ++i) {
    ExpectSameOutcome(seq_reports[i], par_reports[i]);
  }

  // Each query's per-release latency series, element for element. On the
  // independent plan query i runs on worker i alone, so each worker
  // thread records one query's series in release order; a thread id does
  // not say which query, so the series are matched as a sorted list.
  std::vector<std::vector<double>> sequential_series;
  for (const ContinuousQuery& q : queries) {
    LatencyRecorder latencies;
    QueryExecutor exec(q);
    exec.SetObserver(&latencies);
    VectorSource source(w.arrival_order);
    exec.Run(&source);
    sequential_series.push_back(latencies.series());
    EXPECT_FALSE(sequential_series.back().empty());
  }
  PerThreadLatencyRecorder per_thread;
  ParallelMultiQueryRunner observed;
  for (const ContinuousQuery& q : queries) observed.AddQuery(q);
  observed.SetObserver(&per_thread);
  VectorSource s3(w.arrival_order);
  observed.Run(&s3);
  std::vector<std::vector<double>> parallel_series = per_thread.Series();
  std::sort(sequential_series.begin(), sequential_series.end());
  std::sort(parallel_series.begin(), parallel_series.end());
  EXPECT_EQ(sequential_series, parallel_series);
}

TEST(ParallelMultiQueryRunnerTest, TinyQueueStillDeliversEverything) {
  const auto w = testutil::DisorderedWorkload(4000);
  ParallelOptions options;
  options.batch_size = 13;    // Off-stride chunks…
  options.queue_capacity = 2;  // …through a nearly degenerate ring.
  ParallelMultiQueryRunner runner(options);
  runner.AddQuery(HandlerQuery("q", 0.95));
  VectorSource source(w.arrival_order);
  const auto reports = runner.Run(&source);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].events_processed,
            static_cast<int64_t>(w.arrival_order.size()));
  EXPECT_GT(reports[0].results.size(), 5u);  // ~9 windows in a 0.4 s stream.
}

// ------------------------------------------------------ failure containment

/// Observer whose worker-side hook throws after `fuse` releases: simulates
/// a worker pipeline blowing up mid-run (the hook runs inside
/// QueryExecutor::FeedBatch on the worker thread).
class ExplodingObserver : public PipelineObserver {
 public:
  explicit ExplodingObserver(int fuse) : remaining_(fuse) {}

  void OnHandlerRelease(int64_t released, size_t buffered_after,
                        TimestampUs watermark) override {
    (void)released;
    (void)buffered_after;
    (void)watermark;
    if (remaining_.fetch_sub(1) <= 0) {
      throw std::runtime_error("injected worker fault");
    }
  }

 private:
  std::atomic<int> remaining_;
};

TEST(ParallelMultiQueryRunnerTest, WorkerExceptionDegradesInsteadOfCrashing) {
  const auto w = testutil::DisorderedWorkload(8000);
  ExplodingObserver observer(/*fuse=*/100);
  ParallelMultiQueryRunner runner;
  runner.AddQuery(HandlerQuery("q0", 0.95));
  runner.AddQuery(HandlerQuery("q1", 0.95));
  runner.SetObserver(&observer);
  VectorSource source(w.arrival_order);
  const auto reports = runner.Run(&source);  // Must return, not terminate.
  ASSERT_EQ(reports.size(), 2u);
  int failed = 0;
  for (const RunReport& r : reports) {
    if (!r.status.ok()) {
      ++failed;
      EXPECT_EQ(r.status.code(), StatusCode::kInternal);
      EXPECT_NE(r.status.message().find("injected worker fault"),
                std::string::npos)
          << r.status.ToString();
      // The degraded report still covers the prefix processed pre-fault.
      EXPECT_LT(r.events_processed,
                static_cast<int64_t>(w.arrival_order.size()));
    }
  }
  EXPECT_GE(failed, 1);  // The fuse fires on at least one worker.
}

// --------------------------------------------------------- ShardedKeyedRunner

ContinuousQuery KeyedQuery() {
  ContinuousQuery q;
  q.name = "keyed";
  q.handler = DisorderHandlerSpec::Fixed(Millis(50)).PerKey();
  q.window.window = WindowSpec::Tumbling(Millis(50));
  q.window.aggregate.kind = AggKind::kSum;
  q.window.per_key_watermarks = true;
  return q;
}

/// Multi-key workload whose delays are bounded strictly below the handler's
/// K, so no tuple is ever late: every run (sharded or not) sees the same
/// releases and the same window contents.
GeneratedWorkload BoundedDelayWorkload(int64_t n = 6000) {
  WorkloadConfig cfg;
  cfg.num_events = n;
  cfg.events_per_second = 10000.0;
  cfg.num_keys = 16;
  cfg.delay.model = DelayModel::kUniform;
  cfg.delay.a = 0.0;
  cfg.delay.b = 30000.0;  // < K = 50ms: nothing is ever late.
  cfg.seed = 7;
  return GenerateWorkload(cfg);
}

TEST(ShardedKeyedRunnerTest, WorkerExceptionDegradesInsteadOfCrashing) {
  const auto w = BoundedDelayWorkload();
  ExplodingObserver observer(/*fuse=*/50);
  ShardedKeyedRunner runner(KeyedQuery(), /*num_shards=*/3);
  runner.SetObserver(&observer);
  VectorSource source(w.arrival_order);
  const RunReport merged = runner.Run(&source);  // Must return, not crash.
  EXPECT_FALSE(merged.status.ok());
  EXPECT_EQ(merged.status.code(), StatusCode::kInternal);
  EXPECT_LT(merged.events_processed,
            static_cast<int64_t>(w.arrival_order.size()));
}

TEST(ShardedKeyedRunnerTest, ShardOfIsStableAndCoversAllShards) {
  std::set<size_t> seen;
  for (int64_t key = 0; key < 64; ++key) {
    const size_t s = ShardedKeyedRunner::ShardOf(key, 4);
    EXPECT_LT(s, 4u);
    EXPECT_EQ(s, ShardedKeyedRunner::ShardOf(key, 4));  // Deterministic.
    seen.insert(s);
  }
  EXPECT_EQ(seen.size(), 4u);  // 64 mixed keys should touch every shard.
}

/// Strips emission order/time from a result set for shard comparison.
std::multiset<std::tuple<TimestampUs, int64_t, double, int64_t>>
FirstEmissions(const std::vector<WindowResult>& results) {
  std::multiset<std::tuple<TimestampUs, int64_t, double, int64_t>> out;
  for (const WindowResult& r : results) {
    if (r.is_revision) continue;
    out.insert({r.bounds.start, r.key, r.value, r.tuple_count});
  }
  return out;
}

TEST(ShardedKeyedRunnerTest, SingleShardMatchesSequentialRun) {
  const auto w = BoundedDelayWorkload();
  ContinuousQuery q = KeyedQuery();

  QueryExecutor exec(q);
  VectorSource s1(w.arrival_order);
  const RunReport sequential = exec.Run(&s1);

  ShardedKeyedRunner runner(q, /*num_shards=*/1);
  VectorSource s2(w.arrival_order);
  const RunReport sharded = runner.Run(&s2);

  EXPECT_EQ(sequential.events_processed, sharded.events_processed);
  EXPECT_EQ(sequential.handler_stats.events_in, sharded.handler_stats.events_in);
  EXPECT_EQ(sequential.handler_stats.events_late,
            sharded.handler_stats.events_late);
  // One shard = the full stream through one identical pipeline; only the
  // final deterministic sort may reorder results.
  EXPECT_EQ(FirstEmissions(sequential.results),
            FirstEmissions(sharded.results));
  EXPECT_EQ(sequential.results.size(), sharded.results.size());
}

TEST(ShardedKeyedRunnerTest, ShardingPreservesFirstEmissions) {
  const auto w = BoundedDelayWorkload();
  ContinuousQuery q = KeyedQuery();

  LatencyRecorder sequential_latencies;
  QueryExecutor exec(q);
  exec.SetObserver(&sequential_latencies);
  VectorSource s1(w.arrival_order);
  const RunReport sequential = exec.Run(&s1);
  ASSERT_EQ(sequential.handler_stats.events_late, 0);  // Workload sanity.

  for (size_t shards : {2u, 4u}) {
    // Each key's inner handler sees the same arrivals on any shard, so the
    // latency series match up to the order the workers interleave them.
    LatencyRecorder sharded_latencies;
    ShardedKeyedRunner runner(q, shards);
    runner.SetObserver(&sharded_latencies);
    VectorSource source(w.arrival_order);
    const RunReport merged = runner.Run(&source);
    std::string trace = "shards=";
    trace += std::to_string(shards);
    SCOPED_TRACE(trace);
    EXPECT_EQ(sharded_latencies.sorted(), sequential_latencies.sorted());
    EXPECT_EQ(merged.events_processed,
              static_cast<int64_t>(w.arrival_order.size()));
    EXPECT_EQ(merged.handler_stats.events_in,
              sequential.handler_stats.events_in);
    EXPECT_EQ(merged.handler_stats.events_out,
              sequential.handler_stats.events_out);
    EXPECT_EQ(merged.handler_stats.events_late, 0);
    // The wrappers charge each release as the key's handler does, so the
    // merged moments are the sequential ones up to the merge's rounding.
    const RunningMoments& ml = merged.handler_stats.buffering_latency_us;
    const RunningMoments& sl = sequential.handler_stats.buffering_latency_us;
    EXPECT_EQ(ml.count(), sl.count());
    EXPECT_EQ(ml.min(), sl.min());
    EXPECT_EQ(ml.max(), sl.max());
    EXPECT_NEAR(ml.mean(), sl.mean(), 1e-9 * sl.mean());
    // Merged results arrive sorted by (window start, key, revision).
    EXPECT_TRUE(std::is_sorted(
        merged.results.begin(), merged.results.end(),
        [](const WindowResult& a, const WindowResult& b) {
          return std::tie(a.bounds.start, a.key, a.revision_index) <
                 std::tie(b.bounds.start, b.key, b.revision_index);
        }));
  }
}

TEST(ShardedKeyedRunnerTest, RequiresPerKeyHandler) {
  ContinuousQuery q = KeyedQuery();
  q.handler = q.handler.PerKey(false);
  EXPECT_DEATH(ShardedKeyedRunner(q, 2),
               "requires a per-key disorder handler");
}


// ------------------------------------------------------------ stuck workers

/// Drives the stuck-worker path deterministically. As an observer it holds
/// the first worker whose window matches `is_stuck` inside OnWindowFired
/// until the source runs dry, and counts every event each worker thread
/// ingests (on a pass-through handler each one ends in exactly one of
/// OnBufferingLatency or OnLateEvent). As the source it hands out the next
/// batch only once every other worker has ingested everything routed to it
/// so far, so only the held worker's queue can ever fill, however the
/// threads are scheduled. The held worker is released when the stream ends,
/// after the driver has abandoned it.
class StuckWorkerHarness : public PipelineObserver, public EventSource {
 public:
  StuckWorkerHarness(std::vector<Event> events, int64_t fanout,
                     std::function<bool(const WindowResult&)> is_stuck,
                     std::function<bool(const Event&)> reaches_stuck)
      : events_(std::move(events)),
        fanout_(fanout),
        is_stuck_(std::move(is_stuck)),
        reaches_stuck_(std::move(reaches_stuck)) {}

  void OnBufferingLatency(double latency_us) override {
    (void)latency_us;
    Count();
  }
  void OnLateEvent(const Event& e) override {
    (void)e;
    Count();
  }

  void OnWindowFired(const WindowResult& result) override {
    if (!is_stuck_(result)) return;
    std::unique_lock<std::mutex> lock(mu_);
    if (held_) return;  // Hold once; later windows pass straight through.
    held_ = true;
    stuck_thread_ = std::this_thread::get_id();
    // Bounded so a regression fails the test instead of hanging it.
    cv_.wait_for(lock, std::chrono::seconds(30), [this] { return done_; });
  }

  bool Next(Event* out) override {
    std::vector<Event> one;
    if (NextBatch(&one, 1) == 0) return false;
    *out = one.front();
    return true;
  }

  size_t NextBatch(std::vector<Event>* out, size_t max_events) override {
    WaitForHealthyWorkers();
    if (pos_ == events_.size()) {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
      cv_.notify_all();
      return 0;
    }
    const size_t n = std::min(max_events, events_.size() - pos_);
    for (size_t i = 0; i < n; ++i) {
      const Event& e = events_[pos_ + i];
      out->push_back(e);
      routed_ += fanout_;
      if (reaches_stuck_(e)) ++routed_to_stuck_;
    }
    pos_ += n;
    return n;
  }

  void Reset() override {}

  bool held() {
    std::lock_guard<std::mutex> lock(mu_);
    return held_;
  }

 private:
  void Count() {
    std::lock_guard<std::mutex> lock(mu_);
    ++ingested_[std::this_thread::get_id()];
  }

  void WaitForHealthyWorkers() {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (std::chrono::steady_clock::now() < deadline) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        int64_t healthy = 0;
        for (const auto& [thread, count] : ingested_) {
          if (!held_ || thread != stuck_thread_) healthy += count;
        }
        if (healthy >= routed_ - (held_ ? routed_to_stuck_ : 0)) return;
      }
      std::this_thread::yield();
    }
  }

  const std::vector<Event> events_;
  const int64_t fanout_;
  const std::function<bool(const WindowResult&)> is_stuck_;
  const std::function<bool(const Event&)> reaches_stuck_;
  size_t pos_ = 0;
  int64_t routed_ = 0;           // Driver thread only.
  int64_t routed_to_stuck_ = 0;  // Driver thread only.

  std::mutex mu_;
  std::condition_variable cv_;
  std::map<std::thread::id, int64_t> ingested_;
  std::thread::id stuck_thread_;
  bool held_ = false;
  bool done_ = false;
};

/// Patience settings under which a held worker is abandoned at once.
ParallelOptions ImpatientOptions() {
  ParallelOptions options;
  options.batch_size = 64;
  options.queue_capacity = 1;
  options.feed_timeout_us = Millis(1);
  options.feed_max_attempts = 1;
  return options;
}

ContinuousQuery PassThroughQuery(const std::string& name, DurationUs window) {
  ContinuousQuery q;
  q.name = name;
  q.handler = DisorderHandlerSpec::PassThrough();
  q.window.window = WindowSpec::Tumbling(window);
  q.window.aggregate.kind = AggKind::kSum;
  return q;
}

RunReport RunSequential(const ContinuousQuery& q,
                        const std::vector<Event>& events) {
  QueryExecutor exec(q);
  VectorSource source(events);
  return exec.Run(&source);
}

TEST(ParallelMultiQueryRunnerTest, StuckWorkerIsAbandonedAndFlushed) {
  const auto w = testutil::DisorderedWorkload(4000);
  const auto n = static_cast<int64_t>(w.arrival_order.size());
  // q0's 20 ms windows identify the worker to hold; the others use 50 ms.
  const std::vector<ContinuousQuery> queries = {
      PassThroughQuery("q0", Millis(20)), PassThroughQuery("q1", Millis(50)),
      PassThroughQuery("q2", Millis(50))};
  StuckWorkerHarness harness(
      w.arrival_order, static_cast<int64_t>(queries.size()),
      [](const WindowResult& r) {
        return r.bounds.end - r.bounds.start == Millis(20);
      },
      [](const Event&) { return true; });

  ParallelMultiQueryRunner runner(ImpatientOptions());
  for (const ContinuousQuery& q : queries) runner.AddQuery(q);
  runner.SetObserver(&harness);
  const auto reports = runner.Run(&harness);  // Must return, not hang.
  ASSERT_TRUE(harness.held());
  ASSERT_EQ(reports.size(), 3u);

  const RunReport& stuck = reports[0];
  EXPECT_EQ(stuck.status.code(), StatusCode::kResourceExhausted)
      << stuck.status.ToString();
  EXPECT_NE(stuck.status.message().find("stuck"), std::string::npos);
  ASSERT_GT(stuck.events_processed, 0);
  EXPECT_LT(stuck.events_processed, n);
  // The abandoned worker flushed the prefix it did process: its results
  // are exactly a sequential run's over that arrival-order prefix.
  const std::vector<Event> prefix(
      w.arrival_order.begin(),
      w.arrival_order.begin() + stuck.events_processed);
  EXPECT_EQ(stuck.results, RunSequential(queries[0], prefix).results);
  EXPECT_FALSE(stuck.results.empty());

  for (size_t i = 1; i < queries.size(); ++i) {
    SCOPED_TRACE(queries[i].name);
    EXPECT_TRUE(reports[i].status.ok()) << reports[i].status.ToString();
    EXPECT_EQ(reports[i].events_processed, n);
    EXPECT_EQ(reports[i].results,
              RunSequential(queries[i], w.arrival_order).results);
  }
}

TEST(ShardedKeyedRunnerTest, StuckWorkerIsAbandonedAndFlushed) {
  const auto w = BoundedDelayWorkload(4000);
  constexpr size_t kWorkers = 3;
  const int64_t stuck_key = w.arrival_order.front().key;
  const size_t stuck_worker = ShardedKeyedRunner::ShardOf(stuck_key, kWorkers);
  auto on_stuck = [&](const Event& e) {
    return ShardedKeyedRunner::ShardOf(e.key, kWorkers) == stuck_worker;
  };
  ContinuousQuery q = PassThroughQuery("keyed", Millis(50));
  q.handler = q.handler.PerKey();
  q.window.per_key_watermarks = true;
  StuckWorkerHarness harness(
      w.arrival_order, /*fanout=*/1,
      [stuck_key](const WindowResult& r) { return r.key == stuck_key; },
      on_stuck);

  ShardedKeyedRunner runner(q, kWorkers, ImpatientOptions());
  runner.SetObserver(&harness);
  const RunReport merged = runner.Run(&harness);  // Must return, not hang.
  ASSERT_TRUE(harness.held());
  EXPECT_EQ(merged.status.code(), StatusCode::kResourceExhausted)
      << merged.status.ToString();

  // Healthy shards ingest everything routed to them.
  const auto& loads = runner.worker_loads();
  ASSERT_EQ(loads.size(), kWorkers);
  int64_t healthy_routed = 0;
  for (const Event& e : w.arrival_order) healthy_routed += on_stuck(e) ? 0 : 1;
  int64_t healthy_processed = 0;
  for (size_t i = 0; i < kWorkers; ++i) {
    if (i != stuck_worker) healthy_processed += loads[i].events_processed;
  }
  EXPECT_EQ(healthy_processed, healthy_routed);
  const int64_t stuck_processed = loads[stuck_worker].events_processed;
  ASSERT_GT(stuck_processed, 0);
  ASSERT_LT(stuck_processed,
            static_cast<int64_t>(w.arrival_order.size()) - healthy_routed);

  // Reference: an unobstructed run over what the stuck run processed — all
  // of the healthy shards' events plus the prefix of the stuck shard's
  // subsequence that its worker got through. Each shard's executor sees
  // only its own subsequence, so the abandoned shard's flushed partial
  // results and the healthy shards' full results must all match exactly.
  std::vector<Event> processed;
  int64_t stuck_taken = 0;
  for (const Event& e : w.arrival_order) {
    if (on_stuck(e)) {
      if (stuck_taken == stuck_processed) continue;
      ++stuck_taken;
    }
    processed.push_back(e);
  }
  ShardedKeyedRunner reference_runner(q, kWorkers);
  VectorSource source(processed);
  const RunReport reference = reference_runner.Run(&source);
  ASSERT_TRUE(reference.status.ok());
  EXPECT_EQ(merged.events_processed, reference.events_processed);
  EXPECT_EQ(merged.results, reference.results);
  EXPECT_TRUE(std::any_of(
      merged.results.begin(), merged.results.end(),
      [&](const WindowResult& r) { return r.key == stuck_key; }));
}

}  // namespace
}  // namespace streamq
