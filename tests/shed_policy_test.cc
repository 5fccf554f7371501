// Bounded-memory degradation: every buffering handler — global and per-key,
// fed per-event and batched — must honor a hard
// buffer cap under each shed policy while keeping the sink contract
// (event-time order, watermark monotonicity) and exact tuple accounting
// (in == out + late + shed). A cap that never binds must be invisible:
// byte-identical output to the uncapped run.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/continuous_query.h"
#include "core/executor.h"
#include "disorder/handler_factory.h"
#include "stream/generator.h"
#include "stream/source.h"
#include "tests/test_util.h"

namespace streamq {
namespace {

constexpr ShedPolicy kAllPolicies[] = {
    ShedPolicy::kEmitEarly, ShedPolicy::kDropNewest, ShedPolicy::kDropOldest};

/// The five buffering handler kinds (pass-through holds nothing, so a cap
/// is meaningless for it).
std::vector<DisorderHandlerSpec> BufferingSpecs() {
  std::vector<DisorderHandlerSpec> specs;
  specs.push_back(DisorderHandlerSpec::Fixed(Millis(50)));
  {
    MpKSlack::Options mp;
    specs.push_back(DisorderHandlerSpec::Mp(mp));
  }
  {
    AqKSlack::Options aq;
    aq.target_quality = 0.95;
    specs.push_back(DisorderHandlerSpec::Aq(aq));
  }
  {
    LbKSlack::Options lb;
    specs.push_back(DisorderHandlerSpec::Lb(lb));
  }
  {
    WatermarkReorderer::Options wm;
    wm.bound = Millis(50);
    wm.period_events = 7;
    wm.allowed_lateness = Millis(10);
    specs.push_back(DisorderHandlerSpec::Watermark(wm));
  }
  return specs;
}

const std::vector<Event>& TestStream() {
  static const std::vector<Event>* events = [] {
    WorkloadConfig cfg;
    cfg.num_events = 4000;
    cfg.events_per_second = 10000.0;
    cfg.num_keys = 8;
    cfg.delay.model = DelayModel::kExponential;
    cfg.delay.a = 20000.0;  // 20ms mean delay: ~200 tuples in flight.
    cfg.seed = 42;
    return new std::vector<Event>(GenerateWorkload(cfg).arrival_order);
  }();
  return *events;
}

/// ContractCheckingSink that also records the watermark sequence, so two
/// runs can be compared signal for signal.
struct TraceSink : testutil::ContractCheckingSink {
  void OnWatermark(TimestampUs watermark, TimestampUs stream_time) override {
    watermarks.push_back(watermark);
    testutil::ContractCheckingSink::OnWatermark(watermark, stream_time);
  }
  std::vector<TimestampUs> watermarks;
};

std::vector<int64_t> Ids(const std::vector<Event>& events) {
  std::vector<int64_t> ids;
  ids.reserve(events.size());
  for (const Event& e : events) ids.push_back(e.id);
  return ids;
}

/// Runs `spec` over the test stream. batch_size 0 = per-event OnEvent loop.
void RunSpec(const DisorderHandlerSpec& spec, size_t batch_size,
             TraceSink* sink, DisorderHandlerStats* stats) {
  auto handler = MakeDisorderHandlerOrDie(spec);
  const std::vector<Event>& stream = TestStream();
  if (batch_size == 0) {
    for (const Event& e : stream) handler->OnEvent(e, sink);
  } else {
    for (size_t i = 0; i < stream.size(); i += batch_size) {
      const size_t n = std::min(batch_size, stream.size() - i);
      handler->OnBatch(std::span<const Event>(stream).subspan(i, n), sink);
    }
  }
  handler->Flush(sink);
  *stats = handler->stats();
}

struct FeedMode {
  const char* name;
  size_t batch_size;
};

TEST(ShedPolicyTest, CapHoldsAcrossHandlersScopesAndFeedModes) {
  constexpr size_t kCap = 64;
  const FeedMode kFeedModes[] = {{"per-event", 0}, {"batched", 37}};
  for (const DisorderHandlerSpec& base : BufferingSpecs()) {
    for (bool per_key : {false, true}) {
      for (const FeedMode& feed : kFeedModes) {
        for (ShedPolicy policy : kAllPolicies) {
          DisorderHandlerSpec spec =
              base.PerKey(per_key).WithBufferCap(kCap, policy);
          SCOPED_TRACE(spec.Describe() + (per_key ? " keyed" : " global") +
                       " " + feed.name);
          TraceSink sink;
          DisorderHandlerStats stats;
          RunSpec(spec, feed.batch_size, &sink, &stats);

          // The memory bound: occupancy never exceeded the cap.
          EXPECT_LE(stats.max_buffer_size, static_cast<int64_t>(kCap));
          // Exact accounting: every arrival is out, late, or shed.
          EXPECT_EQ(stats.events_in,
                    static_cast<int64_t>(TestStream().size()));
          EXPECT_EQ(stats.events_in,
                    stats.events_out + stats.events_late + stats.events_shed);
          EXPECT_EQ(static_cast<int64_t>(sink.events.size()),
                    stats.events_out);
          // Drops (watermark reorderer's beyond-lateness discards) are
          // counted late but never delivered to the sink.
          EXPECT_EQ(static_cast<int64_t>(sink.late.size()),
                    stats.events_late - stats.events_dropped);
          // Shedding may advance watermarks early but never backwards.
          EXPECT_TRUE(sink.watermarks_monotone);
          EXPECT_EQ(sink.current_watermark, kMaxTimestamp);
          if (!per_key) {
            // Keyed output is only ordered per key; globally the merged
            // stream interleaves, so these two hold for global runs only.
            EXPECT_TRUE(sink.ordered);
            EXPECT_TRUE(sink.respects_watermark);
          }
          if (policy == ShedPolicy::kEmitEarly) {
            EXPECT_EQ(stats.events_shed, 0);
          } else {
            EXPECT_EQ(stats.events_force_released, 0);
          }
        }
      }
    }
  }
}

TEST(ShedPolicyTest, NonBindingCapIsInvisible) {
  // A cap far above peak occupancy must leave the run byte-identical to the
  // uncapped one: same released ids, same late set, same watermark stream.
  for (const DisorderHandlerSpec& base : BufferingSpecs()) {
    for (bool per_key : {false, true}) {
      DisorderHandlerSpec uncapped = base.PerKey(per_key);
      SCOPED_TRACE(uncapped.Describe() + (per_key ? " keyed" : " global"));
      TraceSink base_sink;
      DisorderHandlerStats base_stats;
      RunSpec(uncapped, 0, &base_sink, &base_stats);

      for (ShedPolicy policy : kAllPolicies) {
        TraceSink capped_sink;
        DisorderHandlerStats capped_stats;
        RunSpec(uncapped.WithBufferCap(1u << 20, policy), 0, &capped_sink,
                &capped_stats);
        EXPECT_EQ(Ids(capped_sink.events), Ids(base_sink.events));
        EXPECT_EQ(Ids(capped_sink.late), Ids(base_sink.late));
        EXPECT_EQ(capped_sink.watermarks, base_sink.watermarks);
        EXPECT_EQ(capped_stats.events_shed, 0);
        EXPECT_EQ(capped_stats.events_force_released, 0);
        EXPECT_EQ(capped_stats.max_buffer_size, base_stats.max_buffer_size);
      }
    }
  }
}

TEST(ShedPolicyTest, BatchedFeedMatchesPerEventUnderCap) {
  // The cap's shed decisions must be feed-mode-invariant: OnBatch replays
  // exactly the per-event sequence, cap checks included.
  constexpr size_t kCap = 64;
  for (const DisorderHandlerSpec& base : BufferingSpecs()) {
    for (bool per_key : {false, true}) {
      for (ShedPolicy policy : kAllPolicies) {
        DisorderHandlerSpec spec = base.PerKey(per_key)
                                       .WithBufferCap(kCap, policy);
        SCOPED_TRACE(spec.Describe() + (per_key ? " keyed" : " global"));
        TraceSink per_event, batched;
        DisorderHandlerStats per_event_stats, batched_stats;
        RunSpec(spec, 0, &per_event, &per_event_stats);
        RunSpec(spec, 53, &batched, &batched_stats);
        EXPECT_EQ(Ids(batched.events), Ids(per_event.events));
        EXPECT_EQ(Ids(batched.late), Ids(per_event.late));
        EXPECT_EQ(batched_stats.events_shed, per_event_stats.events_shed);
        EXPECT_EQ(batched_stats.events_force_released,
                  per_event_stats.events_force_released);
        EXPECT_EQ(batched_stats.max_buffer_size,
                  per_event_stats.max_buffer_size);
      }
    }
  }
}

TEST(ShedPolicyTest, EmitEarlyBindsByForcedReleaseNotLoss) {
  // With a binding cap, kEmitEarly never discards: tuples leave early (and
  // later arrivals behind the advanced watermark divert late), so the only
  // shed counter that moves is events_force_released.
  DisorderHandlerSpec spec =
      DisorderHandlerSpec::Fixed(Millis(50)).WithBufferCap(
          32, ShedPolicy::kEmitEarly);
  TraceSink sink;
  DisorderHandlerStats stats;
  RunSpec(spec, 0, &sink, &stats);
  EXPECT_LE(stats.max_buffer_size, 32);
  EXPECT_EQ(stats.events_shed, 0);
  EXPECT_GT(stats.events_force_released, 0);
  EXPECT_EQ(stats.events_in, stats.events_out + stats.events_late);
  EXPECT_TRUE(sink.ordered);
  EXPECT_TRUE(sink.watermarks_monotone);
}

TEST(ShedPolicyTest, DropNewestKeepsDrainingUnderSustainedPressure) {
  // The arrival-side policy must not wedge: rejected ingests still trigger
  // releases, so output keeps flowing and only the overflow is lost.
  DisorderHandlerSpec spec =
      DisorderHandlerSpec::Fixed(Millis(50)).WithBufferCap(
          32, ShedPolicy::kDropNewest);
  TraceSink sink;
  DisorderHandlerStats stats;
  RunSpec(spec, 0, &sink, &stats);
  EXPECT_LE(stats.max_buffer_size, 32);
  EXPECT_GT(stats.events_shed, 0);
  // The cap binds hard here (32 slots vs ~500 in flight), so most arrivals
  // are shed — but the buffer keeps draining instead of wedging.
  EXPECT_GT(stats.events_out, 0);
  EXPECT_EQ(stats.events_in,
            stats.events_out + stats.events_late + stats.events_shed);
}

TEST(ShedPolicyTest, DropOldestDiscardsFromTheBufferFront) {
  DisorderHandlerSpec spec =
      DisorderHandlerSpec::Fixed(Millis(50)).WithBufferCap(
          32, ShedPolicy::kDropOldest);
  TraceSink sink;
  DisorderHandlerStats stats;
  RunSpec(spec, 0, &sink, &stats);
  EXPECT_LE(stats.max_buffer_size, 32);
  EXPECT_GT(stats.events_shed, 0);
  EXPECT_TRUE(sink.ordered);
  EXPECT_TRUE(sink.respects_watermark);
  EXPECT_EQ(stats.events_in,
            stats.events_out + stats.events_late + stats.events_shed);
}

TEST(ShedPolicyTest, MaxSlackClampsAdaptiveHandlers) {
  // No control loop may request a buffer the clamp forbids, globally or in
  // any shard of a keyed run.
  const DurationUs kClamp = Millis(5);
  std::vector<DisorderHandlerSpec> adaptive;
  {
    MpKSlack::Options mp;
    adaptive.push_back(DisorderHandlerSpec::Mp(mp));
    AqKSlack::Options aq;
    adaptive.push_back(DisorderHandlerSpec::Aq(aq));
    LbKSlack::Options lb;
    adaptive.push_back(DisorderHandlerSpec::Lb(lb));
  }
  for (const DisorderHandlerSpec& base : adaptive) {
    for (bool per_key : {false, true}) {
      DisorderHandlerSpec spec = base.PerKey(per_key).WithMaxSlack(kClamp);
      SCOPED_TRACE(spec.Describe() + (per_key ? " keyed" : " global"));
      auto handler = MakeDisorderHandlerOrDie(spec);
      testutil::ContractCheckingSink sink;
      for (const Event& e : TestStream()) handler->OnEvent(e, &sink);
      // current_slack() (keyed: mean over shards) respects the clamp; the
      // clamped run still delivers everything.
      EXPECT_LE(handler->current_slack(), kClamp);
      handler->Flush(&sink);
      EXPECT_EQ(handler->stats().events_in,
                handler->stats().events_out + handler->stats().events_late);
    }
  }
}

TEST(ShedPolicyTest, DescribeNamesTheCap) {
  DisorderHandlerSpec spec = DisorderHandlerSpec::Fixed(Millis(10)).WithBufferCap(
      128, ShedPolicy::kDropOldest);
  EXPECT_NE(spec.Describe().find("+cap(128,drop-oldest)"), std::string::npos);
  EXPECT_EQ(spec.WithBufferCap(0).Describe().find("+cap"), std::string::npos);
}

TEST(ShedPolicyTest, ExecutorHonorsBuilderBufferCap) {
  // End-to-end through QueryBuilder and QueryExecutor: the report carries
  // the bounded occupancy and the same conservation identity.
  ContinuousQuery query = QueryBuilder("capped")
                              .Tumbling(Millis(100))
                              .Aggregate("sum")
                              .FixedSlack(Millis(50))
                              .BufferCap(128, ShedPolicy::kEmitEarly)
                              .Build();
  QueryExecutor exec(query);
  VectorSource source(TestStream());
  const RunReport report = exec.Run(&source);
  EXPECT_TRUE(report.status.ok());
  EXPECT_LE(report.handler_stats.max_buffer_size, 128);
  EXPECT_GT(report.handler_stats.events_force_released, 0);
  EXPECT_EQ(report.handler_stats.events_in,
            report.handler_stats.events_out + report.handler_stats.events_late);
  EXPECT_EQ(report.events_processed,
            static_cast<int64_t>(TestStream().size()));
}

}  // namespace
}  // namespace streamq
