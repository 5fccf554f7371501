// The sharded runtime's switches must never change results. The
// load-bearing property (parallel_runner.h): a virtual shard is a whole
// pipeline, so WHERE it runs cannot affect WHAT it emits. These tests pin
// that, byte for byte, against the legacy one-shard-per-worker topology
// (work stealing has its own suite, steal_equivalence_test).

#include <algorithm>
#include <cstdint>
#include <string>
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
/// bounded strictly below K so nothing is ever late.
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

}  // namespace
}  // namespace streamq
