// The sharded runtime's switches must never change results. The
// load-bearing property (parallel_runner.h): a virtual shard is a whole
// pipeline, so WHERE it runs cannot affect WHAT it emits. These tests pin
// that, byte for byte, against the legacy one-shard-per-worker topology,
// across allocation modes, and across single- vs multi-producer feeds
// (work stealing has its own suite, steal_equivalence_test).

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/parallel_runner.h"
#include "stream/generator.h"
#include "stream/source.h"

namespace streamq {
namespace {

ContinuousQuery KeyedQuery() {
  ContinuousQuery q;
  q.name = "keyed";
  q.handler = DisorderHandlerSpec::Fixed(Millis(50)).PerKey();
  q.window.window = WindowSpec::Tumbling(Millis(50));
  q.window.aggregate.kind = AggKind::kSum;
  q.window.per_key_watermarks = true;
  return q;
}

/// Zipf-skewed keys (a handful of keys dominate → hot shards), delays
/// bounded strictly below K so nothing is ever late and even cross-source
/// interleaving cannot change any per-key outcome.
GeneratedWorkload SkewedWorkload(int64_t n = 20000, double zipf_s = 1.2) {
  WorkloadConfig cfg;
  cfg.num_events = n;
  cfg.events_per_second = 10000.0;
  cfg.num_keys = 64;
  cfg.key_zipf_s = zipf_s;
  cfg.delay.model = DelayModel::kUniform;
  cfg.delay.a = 0.0;
  cfg.delay.b = 30000.0;  // < K = 50ms.
  cfg.seed = 11;
  return GenerateWorkload(cfg);
}

ParallelOptions SkewOptions() {
  ParallelOptions options;
  options.batch_size = 64;
  options.virtual_shards = 16;
  return options;
}

void ExpectSameMergedOutcome(const RunReport& a, const RunReport& b) {
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_EQ(a.results, b.results);
  EXPECT_EQ(a.handler_stats.events_in, b.handler_stats.events_in);
  EXPECT_EQ(a.handler_stats.events_out, b.handler_stats.events_out);
  EXPECT_EQ(a.handler_stats.events_late, b.handler_stats.events_late);
  EXPECT_EQ(a.window_stats.windows_fired, b.window_stats.windows_fired);
  EXPECT_EQ(a.window_stats.revisions, b.window_stats.revisions);
}

TEST(RuntimeEquivalenceTest, VirtualShardsMatchLegacyTopology) {
  const auto w = SkewedWorkload(10000);

  // Legacy: virtual_shards = 0 → one shard per worker (W = V = 8).
  ParallelOptions legacy_opts;
  legacy_opts.batch_size = 64;
  ShardedKeyedRunner legacy(KeyedQuery(), /*num_workers=*/8, legacy_opts);
  VectorSource s1(w.arrival_order);
  const RunReport legacy_report = legacy.Run(&s1);

  // Same 8 hash shards multiplexed onto 2 workers: same executors, same
  // subsequences, same merged output.
  ParallelOptions mux_opts;
  mux_opts.batch_size = 64;
  mux_opts.virtual_shards = 8;
  ShardedKeyedRunner mux(KeyedQuery(), /*num_workers=*/2, mux_opts);
  VectorSource s2(w.arrival_order);
  const RunReport mux_report = mux.Run(&s2);

  ExpectSameMergedOutcome(legacy_report, mux_report);
}

/// Strips emission order/time for cross-interleaving comparison.
std::multiset<std::tuple<TimestampUs, int64_t, double, int64_t>>
FirstEmissions(const std::vector<WindowResult>& results) {
  std::multiset<std::tuple<TimestampUs, int64_t, double, int64_t>> out;
  for (const WindowResult& r : results) {
    if (r.is_revision) continue;
    out.insert({r.bounds.start, r.key, r.value, r.tuple_count});
  }
  return out;
}

/// Splits a stream into key-disjoint sub-streams (arrival order preserved
/// within each), the precondition under which RunMultiSource's merged
/// first emissions must match the single-source run.
std::vector<std::vector<Event>> PartitionByKey(const std::vector<Event>& events,
                                               size_t parts) {
  std::vector<std::vector<Event>> out(parts);
  for (const Event& e : events) {
    out[static_cast<size_t>(e.key) % parts].push_back(e);
  }
  return out;
}

TEST(RuntimeEquivalenceTest, MpscKeyDisjointSourcesMatchSingleSource) {
  const auto w = SkewedWorkload(12000);
  const ContinuousQuery q = KeyedQuery();
  ParallelOptions opts = SkewOptions();

  ShardedKeyedRunner single(q, 3, opts);
  VectorSource merged_source(w.arrival_order);
  const RunReport single_report = single.Run(&merged_source);
  ASSERT_EQ(single_report.handler_stats.events_late, 0);  // Sanity.

  const auto parts = PartitionByKey(w.arrival_order, 3);
  VectorSource sa(parts[0]);
  VectorSource sb(parts[1]);
  VectorSource sc(parts[2]);
  EventSource* sources[3] = {&sa, &sb, &sc};
  ShardedKeyedRunner multi(q, 3, opts);
  const RunReport multi_report = multi.RunMultiSource(sources);

  ASSERT_TRUE(multi_report.status.ok()) << multi_report.status.ToString();
  EXPECT_EQ(multi_report.events_processed, single_report.events_processed);
  EXPECT_EQ(multi_report.handler_stats.events_in,
            single_report.handler_stats.events_in);
  EXPECT_EQ(multi_report.handler_stats.events_late, 0);
  EXPECT_EQ(FirstEmissions(multi_report.results),
            FirstEmissions(single_report.results));
  EXPECT_NE(multi_report.runtime_config.find("feed=mpsc"), std::string::npos);
}

TEST(RuntimeEquivalenceTest, MultiQueryRunnerMultiSourceFeedsEverything) {
  const auto w = SkewedWorkload(9000);
  const auto parts = PartitionByKey(w.arrival_order, 3);
  VectorSource sa(parts[0]);
  VectorSource sb(parts[1]);
  VectorSource sc(parts[2]);
  EventSource* sources[3] = {&sa, &sb, &sc};

  ContinuousQuery q;
  q.name = "count";
  q.handler = DisorderHandlerSpec::Fixed(Millis(50));
  q.window.window = WindowSpec::Tumbling(Millis(50));
  q.window.aggregate.kind = AggKind::kCount;

  ParallelMultiQueryRunner runner;
  runner.AddQuery(q);
  ContinuousQuery q2 = q;
  q2.name = "count2";
  runner.AddQuery(q2);
  const auto reports = runner.RunMultiSource(sources);
  ASSERT_EQ(reports.size(), 2u);
  for (const RunReport& r : reports) {
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    // Every query sees every source's events exactly once.
    EXPECT_EQ(r.events_processed,
              static_cast<int64_t>(w.arrival_order.size()));
    EXPECT_NE(r.runtime_config.find("producers=3"), std::string::npos);
  }
}

}  // namespace
}  // namespace streamq
