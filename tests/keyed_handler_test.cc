#include "disorder/keyed_handler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "core/executor.h"
#include "disorder/fixed_kslack.h"
#include "quality/oracle.h"
#include "quality/quality_metrics.h"
#include "tests/test_util.h"

namespace streamq {
namespace {

using testutil::E;

std::unique_ptr<KeyedDisorderHandler> MakeKeyedFixed(DurationUs k) {
  return std::make_unique<KeyedDisorderHandler>(
      [k] { return std::make_unique<FixedKSlack>(k); });
}

/// Per-key ordering + per-key watermark respect (global order is NOT part
/// of the keyed contract; each key honors its own keyed watermark).
class PerKeyContractSink : public EventSink {
 public:
  void OnEvent(const Event& e) override {
    auto [it, inserted] = last_ts_.try_emplace(e.key, e.event_time);
    if (!inserted) {
      per_key_ordered &= it->second <= e.event_time;
      it->second = e.event_time;
    }
    const auto wm_it = keyed_wm_.find(e.key);
    if (wm_it != keyed_wm_.end()) {
      respects_keyed_watermark &= e.event_time >= wm_it->second;
    }
    ++events;
  }
  void OnWatermark(TimestampUs wm, TimestampUs) override {
    if (watermark != kMinTimestamp) monotone &= wm >= watermark;
    watermark = wm;
  }
  void OnKeyedWatermark(int64_t key, TimestampUs wm, TimestampUs) override {
    auto [it, inserted] = keyed_wm_.try_emplace(key, wm);
    if (!inserted) {
      keyed_monotone &= wm >= it->second;
      it->second = wm;
    }
  }
  void OnLateEvent(const Event&) override { ++late; }

  std::map<int64_t, TimestampUs> last_ts_;
  std::map<int64_t, TimestampUs> keyed_wm_;
  TimestampUs watermark = kMinTimestamp;
  bool per_key_ordered = true;
  bool respects_keyed_watermark = true;
  bool monotone = true;
  bool keyed_monotone = true;
  int64_t events = 0;
  int64_t late = 0;
};

TEST(KeyedHandlerTest, BuffersPerKeyIndependently) {
  auto handler = MakeKeyedFixed(100);
  CollectingSink sink;
  handler->OnEvent(E(0, 1000, 1000, /*key=*/1), &sink);
  handler->OnEvent(E(1, 1000, 1001, /*key=*/2), &sink);
  // Key 1 advances far; key 2 does not.
  handler->OnEvent(E(2, 5000, 5000, /*key=*/1), &sink);
  // Key 1's first tuple released; key 2's still held.
  ASSERT_EQ(sink.events.size(), 1u);
  EXPECT_EQ(sink.events[0].id, 0);
  EXPECT_EQ(handler->buffered(), 2u);
  EXPECT_EQ(handler->key_count(), 2u);
}

TEST(KeyedHandlerTest, MergedWatermarkIsMinimumOverKeys) {
  auto handler = MakeKeyedFixed(0);
  CollectingSink sink;
  handler->OnEvent(E(0, 1000, 1000, 1), &sink);
  // Only key 1 has a watermark; key 2 unseen -> merged = key 1's.
  EXPECT_EQ(sink.watermarks.back(), 1000);
  handler->OnEvent(E(1, 500, 1001, 2), &sink);
  // Key 2's watermark 500 drags the merged minimum down; the merged
  // watermark must NOT regress (it just does not advance).
  EXPECT_EQ(sink.watermarks.back(), 1000);
  handler->OnEvent(E(2, 2000, 2000, 2), &sink);
  // min(1000, 2000) = 1000: still no advance.
  EXPECT_EQ(sink.watermarks.back(), 1000);
  handler->OnEvent(E(3, 3000, 3000, 1), &sink);
  // min(3000, 2000) = 2000.
  EXPECT_EQ(sink.watermarks.back(), 2000);
}

TEST(KeyedHandlerTest, PerKeyContractOnHeterogeneousWorkload) {
  WorkloadConfig cfg;
  cfg.num_events = 20000;
  cfg.num_keys = 8;
  cfg.key_delay_spread = 16.0;  // Last key 16x slower than first.
  cfg.delay.model = DelayModel::kExponential;
  cfg.delay.a = 5000.0;
  cfg.seed = 17;
  const auto w = GenerateWorkload(cfg);

  AqKSlack::Options aq;
  aq.target_quality = 0.95;
  const DisorderHandlerSpec spec = DisorderHandlerSpec::Aq(aq).PerKey();
  auto handler = MakeDisorderHandlerOrDie(spec);
  EXPECT_EQ(handler->name(), "keyed");

  PerKeyContractSink sink;
  for (const Event& e : w.arrival_order) handler->OnEvent(e, &sink);
  handler->Flush(&sink);

  EXPECT_TRUE(sink.per_key_ordered);
  EXPECT_TRUE(sink.respects_keyed_watermark);
  EXPECT_TRUE(sink.monotone);
  EXPECT_TRUE(sink.keyed_monotone);
  EXPECT_EQ(sink.watermark, kMaxTimestamp);
  EXPECT_EQ(sink.events + sink.late,
            static_cast<int64_t>(w.arrival_order.size()));
  EXPECT_EQ(handler->stats().events_in,
            handler->stats().events_out + handler->stats().events_late);
}

TEST(KeyedHandlerTest, PerKeySlacksTrackPerKeyDelays) {
  WorkloadConfig cfg;
  cfg.num_events = 30000;
  cfg.num_keys = 4;
  cfg.key_delay_spread = 20.0;
  cfg.delay.model = DelayModel::kExponential;
  cfg.delay.a = 3000.0;
  cfg.seed = 19;
  const auto w = GenerateWorkload(cfg);

  AqKSlack::Options aq;
  aq.target_quality = 0.95;
  KeyedDisorderHandler handler(
      [&aq] { return std::make_unique<AqKSlack>(aq); });
  CollectingSink sink;
  for (const Event& e : w.arrival_order) handler.OnEvent(e, &sink);
  handler.Flush(&sink);

  // The slow key's shard must run a much larger slack than the fast key's.
  const DisorderHandler* fast = handler.shard(0);
  const DisorderHandler* slow = handler.shard(3);
  ASSERT_NE(fast, nullptr);
  ASSERT_NE(slow, nullptr);
  EXPECT_GT(slow->current_slack(), fast->current_slack() * 5);
}

TEST(KeyedHandlerTest, KeyedIsFairAndFresherOnHeterogeneousDelays) {
  // The motivating comparison. A single global quality-driven buffer hits
  // its aggregate 0.95 target by shedding mostly the slow keys' tuples
  // (they are the late ones) -> slow keys are sacrificed. Per-key buffers
  // enforce the target for EVERY key. And with per-key watermarks, fast
  // keys' windows fire without waiting for the slowest key's stragglers.
  WorkloadConfig cfg;
  cfg.num_events = 40000;
  cfg.num_keys = 8;
  cfg.key_delay_spread = 16.0;
  cfg.delay.model = DelayModel::kExponential;
  cfg.delay.a = 4000.0;
  cfg.seed = 23;
  const auto w = GenerateWorkload(cfg);

  AggregateSpec sum;
  sum.kind = AggKind::kSum;
  const OracleEvaluator oracle(w.arrival_order,
                               WindowSpec::Tumbling(Millis(50)), sum);

  struct Outcome {
    double min_key_coverage;
    double fast_key_response_p50_us;
  };
  auto run = [&](bool per_key) {
    QueryBuilder builder("cmp");
    builder.Tumbling(Millis(50)).Aggregate("sum").QualityTarget(0.95, 1.0);
    if (per_key) builder.PerKey();
    QueryExecutor exec(builder.Build());
    VectorSource source(w.arrival_order);
    const RunReport report = exec.Run(&source);
    const QualityReport quality = EvaluateQuality(report.results, oracle);

    // Per-key mean coverage.
    std::map<int64_t, std::pair<double, int64_t>> cov;
    for (const WindowQuality& q : quality.per_window) {
      cov[q.key].first += q.coverage;
      cov[q.key].second += 1;
    }
    Outcome out{1.0, 0.0};
    for (const auto& [key, acc] : cov) {
      out.min_key_coverage = std::min(
          out.min_key_coverage, acc.first / static_cast<double>(acc.second));
    }
    // Fast key (0) response latency.
    std::vector<double> fast_latencies;
    for (const WindowResult& r : report.results) {
      if (r.key == 0 && !r.is_revision) {
        fast_latencies.push_back(static_cast<double>(
            std::max<DurationUs>(0, r.emit_stream_time - r.bounds.end)));
      }
    }
    out.fast_key_response_p50_us = Summarize(fast_latencies).p50;
    return out;
  };

  const Outcome global = run(false);
  const Outcome keyed = run(true);

  // Fairness: the keyed plan protects every key; the global plan leaves the
  // slowest key well under target.
  EXPECT_GE(keyed.min_key_coverage, 0.90);
  EXPECT_LT(global.min_key_coverage, keyed.min_key_coverage - 0.03);
  // Freshness: fast-key windows fire much sooner under per-key watermarks.
  EXPECT_LT(keyed.fast_key_response_p50_us,
            global.fast_key_response_p50_us * 0.7);
}

TEST(KeyedHandlerTest, HeartbeatReachesEveryShard) {
  auto handler = MakeKeyedFixed(100);
  CollectingSink sink;
  handler->OnEvent(E(0, 1000, 1000, 1), &sink);
  handler->OnEvent(E(1, 1000, 1001, 2), &sink);
  EXPECT_EQ(handler->buffered(), 2u);
  handler->OnHeartbeat(5000, 5000, &sink);
  EXPECT_EQ(handler->buffered(), 0u);
  EXPECT_EQ(sink.events.size(), 2u);
  EXPECT_EQ(sink.watermarks.back(), 4900);
}

TEST(KeyedHandlerTest, HeartbeatAdvancesIdleKeyAndUnblocksMergedWatermark) {
  // Regression: a key that stops receiving events must still advance its
  // watermark on OnHeartbeat, otherwise its stale minimum blocks the merged
  // watermark forever.
  auto handler = MakeKeyedFixed(100);
  CollectingSink sink;
  handler->OnEvent(E(0, 1000, 1000, /*key=*/1), &sink);
  ASSERT_EQ(sink.watermarks.back(), 900);
  // Key 2 arrives once with a low watermark, then goes idle.
  handler->OnEvent(E(1, 500, 1001, /*key=*/2), &sink);
  // Key 1 races ahead; merged = min(9900, 400) is still pinned by the idle
  // key, so the merged watermark cannot advance past 900.
  handler->OnEvent(E(2, 10000, 10000, /*key=*/1), &sink);
  EXPECT_EQ(sink.watermarks.back(), 900);
  EXPECT_EQ(handler->buffered(), 2u);  // ts=500 (key 2), ts=10000 (key 1).

  // The heartbeat reaches the idle shard: key 2's frontier advances to the
  // bound, its buffered tuple releases, and the merged minimum jumps.
  handler->OnHeartbeat(8000, 11000, &sink);
  EXPECT_EQ(sink.watermarks.back(), 7900);
  EXPECT_EQ(handler->buffered(), 1u);  // Key 1's ts=10000 still held.
  const auto released =
      std::find_if(sink.events.begin(), sink.events.end(),
                   [](const Event& e) { return e.id == 1; });
  EXPECT_NE(released, sink.events.end());
}

TEST(KeyedHandlerTest, AggregateAccessorsMatchFullRecompute) {
  // buffered() and current_slack() are maintained incrementally (O(1) reads
  // independent of key count); pin them against a full recompute over the
  // shards after every arrival.
  WorkloadConfig cfg;
  cfg.num_events = 6000;
  cfg.num_keys = 16;
  cfg.key_delay_spread = 8.0;
  cfg.delay.model = DelayModel::kExponential;
  cfg.delay.a = 4000.0;
  cfg.seed = 31;
  const auto w = GenerateWorkload(cfg);

  AqKSlack::Options aq;
  aq.target_quality = 0.95;
  KeyedDisorderHandler handler(
      [&aq] { return std::make_unique<AqKSlack>(aq); });
  CollectingSink sink;
  size_t fed = 0;
  auto check = [&] {
    size_t buffered = 0;
    int64_t slack_sum = 0;
    size_t shards = 0;
    for (int64_t key = 0; key < cfg.num_keys; ++key) {
      const DisorderHandler* shard = handler.shard(key);
      if (shard == nullptr) continue;
      ++shards;
      buffered += shard->buffered();
      slack_sum += shard->current_slack();
    }
    ASSERT_EQ(handler.key_count(), shards);
    ASSERT_EQ(handler.buffered(), buffered);
    const DurationUs mean_slack =
        shards == 0 ? 0
                    : static_cast<DurationUs>(static_cast<double>(slack_sum) /
                                              static_cast<double>(shards));
    ASSERT_EQ(handler.current_slack(), mean_slack) << "after " << fed;
  };
  for (const Event& e : w.arrival_order) {
    handler.OnEvent(e, &sink);
    ++fed;
    if (fed % 97 == 0) check();
  }
  check();
  handler.OnHeartbeat(w.arrival_order.back().event_time,
                      w.arrival_order.back().arrival_time, &sink);
  check();
  handler.Flush(&sink);
  check();
  EXPECT_EQ(handler.buffered(), 0u);
}

TEST(KeyedHandlerTest, EndToEndKeyedQueryMatchesOracleAtFullSlack) {
  WorkloadConfig cfg;
  cfg.num_events = 10000;
  cfg.num_keys = 6;
  cfg.key_delay_spread = 8.0;
  cfg.seed = 29;
  const auto w = GenerateWorkload(cfg);

  ContinuousQuery q = QueryBuilder("keyed")
                          .Tumbling(Millis(50))
                          .Aggregate("sum")
                          .FixedSlack(Seconds(1000))
                          .PerKey()
                          .Build();
  EXPECT_NE(q.Describe().find("per-key"), std::string::npos);
  QueryExecutor exec(q);
  VectorSource source(w.arrival_order);
  const RunReport report = exec.Run(&source);

  const OracleEvaluator oracle(w.arrival_order, q.window.window,
                               q.window.aggregate);
  const QualityReport quality = EvaluateQuality(report.results, oracle);
  EXPECT_EQ(quality.missed_windows, 0);
  EXPECT_NEAR(quality.value_quality.mean, 1.0, 1e-9);
}

// The per-key wrapper stays unobserved and hands the observer to its
// shards, so the recorded latency series holds exactly one entry per
// release the wrapper reports. The wrapper charges each release as the
// key's handler does, flushed tuples included (against the key's last
// arrival), so the series folds to its moments; feeding per event or in
// batches records the same series element for element.
TEST(KeyedHandlerTest, ObservedLatencySeriesCoversEveryRelease) {
  WorkloadConfig cfg;
  cfg.num_events = 5000;
  cfg.num_keys = 4;
  cfg.seed = 31;
  const auto w = GenerateWorkload(cfg);
  const DisorderHandlerSpec spec =
      DisorderHandlerSpec::Fixed(Millis(30)).PerKey();

  LatencyRecorder per_event;
  auto a = MakeDisorderHandlerOrDie(spec);
  a->set_observer(&per_event);
  CollectingSink sink_a;
  testutil::RunHandler(a.get(), w.arrival_order, &sink_a);

  LatencyRecorder batched;
  auto b = MakeDisorderHandlerOrDie(spec);
  b->set_observer(&batched);
  CollectingSink sink_b;
  b->OnBatch(w.arrival_order, &sink_b);
  b->Flush(&sink_b);

  EXPECT_GT(a->stats().events_out, 0);
  EXPECT_EQ(static_cast<int64_t>(per_event.series().size()),
            a->stats().events_out);
  const RunningMoments observed = testutil::MomentsOf(per_event.series());
  EXPECT_EQ(observed.mean(), a->stats().buffering_latency_us.mean());
  EXPECT_EQ(observed.max(), a->stats().buffering_latency_us.max());
  EXPECT_EQ(per_event.series(), batched.series());
}

}  // namespace
}  // namespace streamq
