// Work stealing must never change results. Placement-invariance (a
// virtual shard is a whole pipeline, so WHERE it runs cannot affect WHAT
// it emits) makes demand-driven stealing output-preserving. These tests
// pin the merged output byte-for-byte against static placement across
// seeds, worker counts, and handler kinds (including speculative
// emit-then-amend), force real steals with a sleep-bound sink on a
// colocated-skew stream, and cover the scheduler's option validation.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/parallel_runner.h"
#include "quality/speculation.h"
#include "stream/generator.h"
#include "stream/source.h"

namespace streamq {
namespace {

ContinuousQuery FixedKeyedQuery() {
  ContinuousQuery q;
  q.name = "steal_fixed";
  q.handler = DisorderHandlerSpec::Fixed(Millis(50)).PerKey();
  q.window.window = WindowSpec::Tumbling(Millis(50));
  q.window.aggregate.kind = AggKind::kSum;
  q.window.per_key_watermarks = true;
  return q;
}

ContinuousQuery AqKeyedQuery() {
  AqKSlack::Options aq;
  aq.target_quality = 0.95;
  ContinuousQuery q;
  q.name = "steal_aq";
  q.handler = DisorderHandlerSpec::Aq(aq).PerKey();
  q.window.window = WindowSpec::Tumbling(Millis(50));
  q.window.aggregate.kind = AggKind::kMean;
  q.window.per_key_watermarks = true;
  return q;
}

/// Speculative emit-then-amend per key: revisions exercise the kAmend
/// emission path, so steal equivalence covers amended results too.
ContinuousQuery SpeculativeKeyedQuery() {
  SpeculativeHandler::Options sp;
  sp.target_quality = 0.9;
  ContinuousQuery q;
  q.name = "steal_spec";
  q.handler = DisorderHandlerSpec::Speculative(sp).PerKey();
  q.window.window = WindowSpec::Tumbling(Millis(50));
  q.window.aggregate.kind = AggKind::kSum;
  q.window.allowed_lateness = Millis(30);
  q.window.per_key_watermarks = true;
  q.window.engine = WindowedAggregation::Engine::kAmend;
  return q;
}

GeneratedWorkload SkewedWorkload(uint64_t seed, int64_t n = 12000) {
  WorkloadConfig cfg;
  cfg.num_events = n;
  cfg.events_per_second = 10000.0;
  cfg.num_keys = 64;
  cfg.key_zipf_s = 1.2;
  cfg.delay.model = DelayModel::kUniform;
  cfg.delay.a = 0.0;
  cfg.delay.b = 25000.0;  // < K = 50ms: nothing is ever late.
  cfg.seed = seed;
  return GenerateWorkload(cfg);
}

void ExpectSameMergedOutcome(const RunReport& a, const RunReport& b) {
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_EQ(a.results, b.results);
  EXPECT_EQ(a.handler_stats.events_in, b.handler_stats.events_in);
  EXPECT_EQ(a.handler_stats.events_out, b.handler_stats.events_out);
  EXPECT_EQ(a.handler_stats.events_late, b.handler_stats.events_late);
  EXPECT_EQ(a.window_stats.windows_fired, b.window_stats.windows_fired);
  EXPECT_EQ(a.window_stats.revisions, b.window_stats.revisions);
  EXPECT_EQ(a.results_amended, b.results_amended);
}

// --- Steal-vs-static equivalence ------------------------------------------

TEST(StealEquivalenceTest, StealMatchesStaticAcrossSeedsWorkersAndHandlers) {
  const ContinuousQuery queries[] = {FixedKeyedQuery(), AqKeyedQuery(),
                                     SpeculativeKeyedQuery()};
  for (const uint64_t seed : {11u, 29u}) {
    const auto w = SkewedWorkload(seed, 8000);
    for (const size_t workers : {2u, 4u}) {
      for (const ContinuousQuery& q : queries) {
        ParallelOptions static_opts;
        static_opts.batch_size = 64;
        static_opts.virtual_shards = 16;
        ShardedKeyedRunner static_runner(q, workers, static_opts);
        VectorSource s1(w.arrival_order);
        const RunReport static_report = static_runner.Run(&s1);
        ASSERT_TRUE(static_report.status.ok())
            << static_report.status.ToString();
        EXPECT_EQ(static_runner.steals(), 0);
        EXPECT_EQ(static_report.segments_stolen, 0);

        ParallelOptions steal_opts = static_opts;
        steal_opts.steal = true;
        ShardedKeyedRunner steal_runner(q, workers, steal_opts);
        VectorSource s2(w.arrival_order);
        const RunReport stolen = steal_runner.Run(&s2);
        ASSERT_TRUE(stolen.status.ok()) << stolen.status.ToString();

        // Whatever the (timing-dependent) steal schedule was, the merged
        // output is byte-identical, and the accounting is consistent.
        ExpectSameMergedOutcome(static_report, stolen);
        EXPECT_EQ(stolen.segments_stolen, steal_runner.steals());
        int64_t stolen_total = 0;
        int64_t donated_total = 0;
        for (const WorkerLoad& load : steal_runner.worker_loads()) {
          stolen_total += load.segments_stolen;
          donated_total += load.segments_donated;
        }
        EXPECT_EQ(stolen_total, steal_runner.steals());
        EXPECT_EQ(donated_total, steal_runner.steals());
      }
    }
  }
}

/// Sleeps in the sink, making shard service time dwarf routing time: the
/// one way to make workers starve (and steal) deterministically enough to
/// assert on, even on a single-core machine.
class SlowSinkObserver : public PipelineObserver {
 public:
  void OnHandlerRelease(int64_t released, size_t, TimestampUs) override {
    std::this_thread::sleep_for(std::chrono::microseconds(released));
  }
};

TEST(StealEquivalenceTest, StarvedWorkersActuallySteal) {
  // Keys whose shards all start on worker 0 (placement v % workers), so
  // workers 1..3 begin with nothing to do and go hungry immediately.
  constexpr size_t kWorkers = 4;
  constexpr size_t kVShards = 16;
  std::vector<int64_t> hot_keys;
  for (int64_t k = 0; hot_keys.size() < 12; ++k) {
    if (ShardedKeyedRunner::ShardOf(k, kVShards) % kWorkers == 0) {
      hot_keys.push_back(k);
    }
  }
  std::vector<Event> events;
  events.reserve(16000);
  for (int64_t i = 0; i < 16000; ++i) {
    Event e;
    e.id = i;
    e.event_time = i * 100;  // 10k events/s of stream time, in order.
    e.arrival_time = e.event_time;
    e.key = hot_keys[static_cast<size_t>(i) % hot_keys.size()];
    e.value = 1.0;
    events.push_back(e);
  }

  ParallelOptions opts;
  opts.batch_size = 64;
  opts.virtual_shards = kVShards;
  opts.steal = true;  // Trigger: 2 x 64 = 128 events of victim backlog.
  SlowSinkObserver slow;

  ShardedKeyedRunner steal_runner(FixedKeyedQuery(), kWorkers, opts);
  steal_runner.SetObserver(&slow);
  VectorSource s1(events);
  const RunReport stolen = steal_runner.Run(&s1);
  ASSERT_TRUE(stolen.status.ok()) << stolen.status.ToString();
  EXPECT_GT(steal_runner.steals(), 0);
  EXPECT_NE(stolen.runtime_config.find("steal=on"), std::string::npos);
  EXPECT_NE(stolen.runtime_config.find("steals="), std::string::npos);

  ParallelOptions static_opts = opts;
  static_opts.steal = false;
  ShardedKeyedRunner static_runner(FixedKeyedQuery(), kWorkers, static_opts);
  VectorSource s2(events);
  const RunReport static_report = static_runner.Run(&s2);
  ExpectSameMergedOutcome(static_report, stolen);
}

// --- Option validation ----------------------------------------------------

TEST(ParallelOptionsValidateTest, RejectsBadNumericsWithHints) {
  ParallelOptions ok;
  EXPECT_TRUE(ok.Validate().ok());

  ParallelOptions o5;
  o5.batch_size = 0;
  EXPECT_FALSE(o5.Validate().ok());

  ParallelOptions o8;
  o8.feed_max_attempts = 0;
  EXPECT_FALSE(o8.Validate().ok());
}

TEST(ParallelOptionsValidateTest, RunnerConstructorChecksOptions) {
  ParallelOptions bad;
  bad.queue_capacity = 0;
  EXPECT_DEATH(ShardedKeyedRunner(FixedKeyedQuery(), 2, bad),
               "queue_capacity must be positive");
}

}  // namespace
}  // namespace streamq
