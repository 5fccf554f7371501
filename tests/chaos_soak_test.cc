// Chaos soak: every pipeline configuration must *degrade* under injected
// faults — drops, duplicates, corrupted timestamps and values, disorder
// bursts — never crash, never leak a tuple from the accounting, never
// exceed its memory bound, never move a watermark backwards. Runs are
// deterministic (seeded injector), sized to stay fast under ASan/TSan.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/continuous_query.h"
#include "core/executor.h"
#include "core/parallel_runner.h"
#include "disorder/handler_factory.h"
#include "stream/event.h"
#include "stream/fault_injector.h"
#include "stream/generator.h"
#include "stream/source.h"
#include "tests/test_util.h"

namespace streamq {
namespace {

std::vector<Event> SoakWorkload(uint64_t seed) {
  WorkloadConfig cfg;
  cfg.num_events = 6000;
  cfg.events_per_second = 10000.0;
  cfg.num_keys = 8;
  cfg.delay.model = DelayModel::kExponential;
  cfg.delay.a = 20000.0;
  cfg.seed = seed;
  return GenerateWorkload(cfg).arrival_order;
}

/// Full blast: includes faults that only ingest validation can absorb.
FaultSpec FullFaults(uint64_t seed) {
  FaultSpec f;
  f.seed = seed;
  f.drop_prob = 0.02;
  f.duplicate_prob = 0.02;
  f.timestamp_corrupt_prob = 0.01;
  f.value_corrupt_prob = 0.01;
  f.burst_prob = 0.005;
  f.burst_len = 64;
  f.burst_spread_us = Millis(200);
  return f;
}

/// Disorder-spike heavy, timestamps left intact.
FaultSpec BurstyFaults(uint64_t seed) {
  FaultSpec f;
  f.seed = seed;
  f.drop_prob = 0.01;
  f.burst_prob = 0.02;
  f.burst_len = 128;
  f.burst_spread_us = Millis(500);
  return f;
}

/// Only faults that produce valid events (safe without validation).
FaultSpec ValidFaults(uint64_t seed) {
  FaultSpec f;
  f.seed = seed;
  f.drop_prob = 0.03;
  f.duplicate_prob = 0.03;
  f.burst_prob = 0.01;
  f.burst_len = 64;
  f.burst_spread_us = Millis(200);
  return f;
}

enum class HandlerKind { kAq, kLb, kFixed, kMp, kWatermark, kSpeculative };

ContinuousQuery BuildQuery(HandlerKind kind, bool per_key, size_t cap,
                           ShedPolicy policy, IngestValidation validation,
                           DurationUs max_slack = 0) {
  QueryBuilder builder("chaos");
  builder.Tumbling(Millis(100)).Aggregate("sum").AllowedLateness(Millis(50));
  switch (kind) {
    case HandlerKind::kAq:
      builder.QualityTarget(0.9);
      break;
    case HandlerKind::kLb:
      builder.LatencyBudget(Millis(30));
      break;
    case HandlerKind::kFixed:
      builder.FixedSlack(Millis(50));
      break;
    case HandlerKind::kMp:
      builder.AdaptiveMaxSlack();
      break;
    case HandlerKind::kWatermark: {
      WatermarkReorderer::Options wm;
      wm.bound = Millis(30);
      wm.allowed_lateness = Millis(10);
      builder.Watermark(wm);
      break;
    }
    case HandlerKind::kSpeculative:
      // Emit-then-amend over the kAmend store (the builder pairs them).
      builder.Speculative(0.9);
      break;
  }
  if (per_key) builder.PerKey();
  if (cap != 0) builder.BufferCap(cap, policy);
  if (max_slack > 0) builder.MaxSlack(max_slack);
  builder.ValidateIngest(validation);
  return builder.Build();
}

/// The soak contract for a completed degraded run: OK status, exact
/// accounting end to end, bounded memory.
void ExpectGracefulDegradation(const RunReport& report,
                               const FaultInjectionStats& faults, size_t cap) {
  EXPECT_TRUE(report.status.ok()) << report.status.ToString();
  // Every tuple the faulty source emitted is accounted for at the ingest
  // boundary...
  EXPECT_EQ(report.events_processed + report.events_rejected,
            faults.events_out);
  // ...and inside the handler, where shed tuples are charged explicitly.
  const DisorderHandlerStats& hs = report.handler_stats;
  EXPECT_EQ(hs.events_in, report.events_processed);
  EXPECT_EQ(hs.events_in, hs.events_out + hs.events_late + hs.events_shed);
  if (cap != 0) {
    EXPECT_LE(hs.max_buffer_size, static_cast<int64_t>(cap));
  }
  EXPECT_FALSE(report.results.empty());
}

struct SoakCase {
  const char* name;
  HandlerKind kind;
  bool per_key;
  size_t cap;
  ShedPolicy policy;
  IngestValidation validation;
  FaultSpec (*faults)(uint64_t);
  DurationUs max_slack;
};

constexpr SoakCase kSoakCases[] = {
    {"aq/global/emit-early", HandlerKind::kAq, false, 1024,
     ShedPolicy::kEmitEarly, IngestValidation::kDrop, FullFaults, Millis(100)},
    {"aq/keyed/emit-early", HandlerKind::kAq, true, 512,
     ShedPolicy::kEmitEarly, IngestValidation::kDrop, FullFaults, 0},
    {"lb/global/drop-oldest", HandlerKind::kLb, false, 512,
     ShedPolicy::kDropOldest, IngestValidation::kDrop, FullFaults,
     Millis(100)},
    {"lb/keyed/drop-newest", HandlerKind::kLb, true, 512,
     ShedPolicy::kDropNewest, IngestValidation::kDrop, BurstyFaults, 0},
    {"fixed/global/drop-newest", HandlerKind::kFixed, false, 256,
     ShedPolicy::kDropNewest, IngestValidation::kDrop, BurstyFaults, 0},
    {"fixed/keyed/drop-oldest", HandlerKind::kFixed, true, 256,
     ShedPolicy::kDropOldest, IngestValidation::kDrop, FullFaults, 0},
    {"mp/global/emit-early", HandlerKind::kMp, false, 1024,
     ShedPolicy::kEmitEarly, IngestValidation::kDrop, BurstyFaults, 0},
    {"watermark/global/emit-early", HandlerKind::kWatermark, false, 512,
     ShedPolicy::kEmitEarly, IngestValidation::kDrop, FullFaults, 0},
    // Speculative emit-then-amend: no reorder buffer to cap, so disorder
    // bursts turn into amendment storms — which must stay graceful.
    {"speculative/global/amend", HandlerKind::kSpeculative, false, 0,
     ShedPolicy::kEmitEarly, IngestValidation::kDrop, FullFaults, Millis(100)},
    {"speculative/keyed/amend/bursts", HandlerKind::kSpeculative, true, 0,
     ShedPolicy::kEmitEarly, IngestValidation::kDrop, BurstyFaults, 0},
    // Unvalidated runs: the injected faults stay within the valid domain,
    // so kOff pipelines must survive them untouched.
    {"aq/global/uncapped/no-validation", HandlerKind::kAq, false, 0,
     ShedPolicy::kEmitEarly, IngestValidation::kOff, ValidFaults, 0},
    {"fixed/global/emit-early/no-validation", HandlerKind::kFixed, false, 256,
     ShedPolicy::kEmitEarly, IngestValidation::kOff, ValidFaults, 0},
};

TEST(ChaosSoakTest, EveryConfigurationDegradesGracefully) {
  for (const uint64_t seed : {11u, 29u}) {
    const std::vector<Event> workload = SoakWorkload(seed);
    for (const SoakCase& c : kSoakCases) {
      SCOPED_TRACE(std::string(c.name) + " seed=" + std::to_string(seed));
      VectorSource inner(workload);
      FaultInjectingSource faulty(&inner, c.faults(seed));
      QueryExecutor exec(BuildQuery(c.kind, c.per_key, c.cap, c.policy,
                                    c.validation, c.max_slack));
      const RunReport report = exec.Run(&faulty);
      ExpectGracefulDegradation(report, faulty.stats(), c.cap);
      if (c.validation == IngestValidation::kOff) {
        EXPECT_EQ(report.events_rejected, 0);
      }
    }
  }
}

TEST(ChaosSoakTest, HandlerContractSurvivesFaultyStreams) {
  // Straight into the handler (no executor): order, watermark monotonicity
  // and the terminal flush must hold on a burst-spiked, duplicated,
  // drop-riddled stream, capped and uncapped.
  const std::vector<Event> workload = SoakWorkload(17);
  VectorSource inner(workload);
  FaultInjectingSource faulty(&inner, ValidFaults(17));
  std::vector<Event> stream;
  Event e;
  while (faulty.Next(&e)) stream.push_back(e);

  for (size_t cap : {size_t{0}, size_t{128}}) {
    for (ShedPolicy policy :
         {ShedPolicy::kEmitEarly, ShedPolicy::kDropNewest,
          ShedPolicy::kDropOldest}) {
      if (cap == 0 && policy != ShedPolicy::kEmitEarly) continue;
      for (bool per_key : {false, true}) {
        DisorderHandlerSpec spec = DisorderHandlerSpec::Aq(AqKSlack::Options{})
                                       .PerKey(per_key)
                                       .WithBufferCap(cap, policy);
        SCOPED_TRACE(spec.Describe() + (per_key ? " keyed" : " global"));
        auto handler = MakeDisorderHandlerOrDie(spec);
        testutil::ContractCheckingSink sink;
        for (const Event& ev : stream) handler->OnEvent(ev, &sink);
        handler->Flush(&sink);

        EXPECT_TRUE(sink.watermarks_monotone);
        EXPECT_EQ(sink.current_watermark, kMaxTimestamp);
        if (!per_key) {
          EXPECT_TRUE(sink.ordered);
          EXPECT_TRUE(sink.respects_watermark);
        }
        const DisorderHandlerStats& hs = handler->stats();
        EXPECT_EQ(hs.events_in, static_cast<int64_t>(stream.size()));
        EXPECT_EQ(hs.events_in,
                  hs.events_out + hs.events_late + hs.events_shed);
        if (cap != 0) {
          EXPECT_LE(hs.max_buffer_size, static_cast<int64_t>(cap));
        }
      }
    }
  }
}

TEST(ChaosSoakTest, StrictValidationStopsTheRunWithoutCrashing) {
  const std::vector<Event> workload = SoakWorkload(23);
  VectorSource inner(workload);
  FaultSpec f;
  f.seed = 23;
  f.timestamp_corrupt_prob = 0.05;
  FaultInjectingSource faulty(&inner, f);
  QueryExecutor exec(BuildQuery(HandlerKind::kAq, false, 0,
                                ShedPolicy::kEmitEarly,
                                IngestValidation::kStrict));
  const RunReport report = exec.Run(&faulty);
  EXPECT_FALSE(report.status.ok());
  EXPECT_EQ(report.status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(report.events_rejected, 1);
  // Strict stops early; everything up to the poison tuple was processed.
  EXPECT_GT(report.events_processed, 0);
  EXPECT_LT(report.events_processed + report.events_rejected,
            faulty.stats().events_out);
}

TEST(ChaosSoakTest, ParallelRunnersDegradeGracefullyUnderFaults) {
  const std::vector<Event> workload = SoakWorkload(31);

  // Two independent queries over one faulty stream: each worker sees the
  // identical faulty prefix order, so each reconciles independently.
  {
    VectorSource inner(workload);
    FaultInjectingSource faulty(&inner, FullFaults(31));
    ParallelMultiQueryRunner runner;
    runner.AddQuery(BuildQuery(HandlerKind::kAq, false, 512,
                               ShedPolicy::kEmitEarly,
                               IngestValidation::kDrop));
    runner.AddQuery(BuildQuery(HandlerKind::kFixed, false, 512,
                               ShedPolicy::kDropOldest,
                               IngestValidation::kDrop));
    const std::vector<RunReport> reports = runner.Run(&faulty);
    ASSERT_EQ(reports.size(), 2u);
    for (const RunReport& report : reports) {
      ExpectGracefulDegradation(report, faulty.stats(), 512);
    }
  }

  // One keyed query sharded across workers: the merged report reconciles
  // against the faulty stream total; the memory bound is per shard.
  {
    VectorSource inner(workload);
    FaultInjectingSource faulty(&inner, BurstyFaults(31));
    const size_t kShards = 3;
    ShardedKeyedRunner runner(
        BuildQuery(HandlerKind::kAq, true, 512, ShedPolicy::kEmitEarly,
                   IngestValidation::kDrop),
        kShards);
    const RunReport merged = runner.Run(&faulty);
    EXPECT_TRUE(merged.status.ok()) << merged.status.ToString();
    EXPECT_EQ(merged.events_processed + merged.events_rejected,
              faulty.stats().events_out);
    const DisorderHandlerStats& hs = merged.handler_stats;
    EXPECT_EQ(hs.events_in, merged.events_processed);
    EXPECT_EQ(hs.events_in, hs.events_out + hs.events_late + hs.events_shed);
    // max_buffer_size is summed across shards in the merged report.
    EXPECT_LE(hs.max_buffer_size, static_cast<int64_t>(kShards * 512));
    EXPECT_FALSE(merged.results.empty());
  }

  // Speculative emit-then-amend sharded across workers: amendments are
  // produced inside each shard and cross into the merged report through
  // the watermark-aligned merge; accounting must still reconcile and the
  // merged amendment count must match the summed revision stats.
  {
    VectorSource inner(workload);
    FaultInjectingSource faulty(&inner, BurstyFaults(31));
    ShardedKeyedRunner runner(
        BuildQuery(HandlerKind::kSpeculative, true, 0, ShedPolicy::kEmitEarly,
                   IngestValidation::kDrop),
        /*shards=*/3);
    const RunReport merged = runner.Run(&faulty);
    EXPECT_TRUE(merged.status.ok()) << merged.status.ToString();
    EXPECT_EQ(merged.events_processed + merged.events_rejected,
              faulty.stats().events_out);
    const DisorderHandlerStats& hs = merged.handler_stats;
    EXPECT_EQ(hs.events_in, merged.events_processed);
    EXPECT_EQ(hs.events_in, hs.events_out + hs.events_late + hs.events_shed);
    EXPECT_EQ(hs.max_buffer_size, 0);  // No reorder buffer anywhere.
    EXPECT_EQ(merged.results_amended, merged.window_stats.revisions);
    EXPECT_FALSE(merged.results.empty());
  }
}

}  // namespace
}  // namespace streamq
