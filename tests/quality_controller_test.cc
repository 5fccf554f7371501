// Pins the quality loop's adaptation trajectories bit for bit. Every
// AdaptationSample (tuple index, measured quality, setpoint, K) the
// quality-driven handlers report is folded into an FNV-1a hash over the raw
// bits; the expected values were captured before AqKSlack and
// SpeculativeHandler shared one QualityController, so any change to the
// loop's arithmetic or its floating-point order fails here.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/pipeline_observer.h"
#include "disorder/event_sink.h"
#include "disorder/handler_factory.h"
#include "stream/generator.h"

namespace streamq {
namespace {

class TrajectoryObserver : public PipelineObserver {
 public:
  void OnAdaptation(const AdaptationSample& s) override {
    Mix(static_cast<uint64_t>(s.tuple_index));
    Mix(std::bit_cast<uint64_t>(s.measured));
    Mix(std::bit_cast<uint64_t>(s.setpoint));
    Mix(static_cast<uint64_t>(s.k));
    ++samples;
    last = s;
  }

  uint64_t hash = 14695981039346656037ull;
  int64_t samples = 0;
  AdaptationSample last;

 private:
  void Mix(uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (word >> (8 * i)) & 0xFF;
      hash *= 1099511628211ull;
    }
  }
};

class NullSink : public EventSink {
 public:
  void OnEvent(const Event&) override {}
  void OnWatermark(TimestampUs, TimestampUs) override {}
  void OnLateEvent(const Event&) override {}
};

GeneratedWorkload BurstWorkload(int64_t num_keys) {
  WorkloadConfig cfg;
  cfg.num_events = 40000;
  cfg.events_per_second = 10000.0;
  cfg.num_keys = num_keys;
  cfg.delay.model = DelayModel::kExponential;
  cfg.delay.a = 5000.0;
  cfg.dynamics.kind = DynamicsKind::kBurst;
  cfg.dynamics.factor = 8.0;
  cfg.dynamics.t0 = Millis(500);
  cfg.dynamics.period = Seconds(1);
  cfg.dynamics.duration = Millis(250);
  cfg.seed = 71;
  return GenerateWorkload(cfg);
}

GeneratedWorkload StepWorkload() {
  WorkloadConfig cfg;
  cfg.num_events = 40000;
  cfg.events_per_second = 10000.0;
  cfg.delay.model = DelayModel::kPareto;
  cfg.delay.a = 2000.0;
  cfg.delay.b = 1.5;
  cfg.dynamics.kind = DynamicsKind::kStep;
  cfg.dynamics.factor = 6.0;
  cfg.dynamics.t0 = Seconds(2);
  cfg.seed = 73;
  return GenerateWorkload(cfg);
}

/// Runs `spec` over the workload in executor-sized batches.
TrajectoryObserver RecordTrajectory(const DisorderHandlerSpec& spec,
                                    const GeneratedWorkload& w) {
  TrajectoryObserver observer;
  NullSink sink;
  std::unique_ptr<DisorderHandler> handler = MakeDisorderHandlerOrDie(spec);
  handler->set_observer(&observer);
  const std::span<const Event> events(w.arrival_order);
  for (size_t i = 0; i < events.size(); i += 512) {
    handler->OnBatch(
        events.subspan(i, std::min<size_t>(512, events.size() - i)), &sink);
  }
  handler->Flush(&sink);
  return observer;
}

struct Expected {
  int64_t samples;
  uint64_t hash;
  DurationUs last_k;
};

void ExpectTrajectory(const std::string& label, const TrajectoryObserver& got,
                      const Expected& want) {
  char actual[160];
  std::snprintf(actual, sizeof(actual),
                "{%lld, 0x%016llxull, %lld} (last measured=%.17g p=%.17g)",
                static_cast<long long>(got.samples),
                static_cast<unsigned long long>(got.hash),
                static_cast<long long>(got.last.k), got.last.measured,
                got.last.setpoint);
  EXPECT_EQ(got.samples, want.samples) << label << ": " << actual;
  EXPECT_EQ(got.hash, want.hash) << label << ": " << actual;
  EXPECT_EQ(got.last.k, want.last_k) << label << ": " << actual;
}

AqKSlack::Options AqOptions(double target) {
  AqKSlack::Options o;
  o.target_quality = target;
  return o;
}

SpeculativeHandler::Options SpecOptions(double target) {
  SpeculativeHandler::Options o;
  o.target_quality = target;
  return o;
}

TEST(QualityControllerTrajectoryTest, GlobalAqSlidingEstimator) {
  const auto spec = DisorderHandlerSpec::Aq(AqOptions(0.95));
  ExpectTrajectory("aq/burst", RecordTrajectory(spec, BurstWorkload(1)),
                   {156, 0xd4a7872affa43b81ull, 264318});
  ExpectTrajectory("aq/step", RecordTrajectory(spec, StepWorkload()),
                   {156, 0xbbbac14346f2a30aull, 161750});
}

TEST(QualityControllerTrajectoryTest, GlobalAqReservoirEstimator) {
  AqKSlack::Options o = AqOptions(0.9);
  o.estimator = AqKSlack::Estimator::kGlobalReservoir;
  o.sketch_window = 1024;
  const auto spec = DisorderHandlerSpec::Aq(o);
  ExpectTrajectory("aq-reservoir/burst",
                   RecordTrajectory(spec, BurstWorkload(1)),
                   {156, 0x49af04442ba005c1ull, 26526});
  ExpectTrajectory("aq-reservoir/step", RecordTrajectory(spec, StepWorkload()),
                   {156, 0x73d883e0041f6c99ull, 326892});
}

TEST(QualityControllerTrajectoryTest, PerKeyAq) {
  const auto spec = DisorderHandlerSpec::Aq(AqOptions(0.95)).PerKey();
  ExpectTrajectory("aq-per-key/burst", RecordTrajectory(spec, BurstWorkload(4)),
                   {154, 0x4f1a1937b9ec1d18ull, 217765});
}

TEST(QualityControllerTrajectoryTest, SpeculativeCoverageModel) {
  const auto spec = DisorderHandlerSpec::Speculative(SpecOptions(0.9))
                        .WithMaxSlack(Millis(40));
  ExpectTrajectory("spec/burst", RecordTrajectory(spec, BurstWorkload(1)),
                   {156, 0xa51c4e7ace0ebaf6ull, 40000});
  ExpectTrajectory("spec/step", RecordTrajectory(spec, StepWorkload()),
                   {156, 0xe02e50f16f687421ull, 40000});
}

TEST(QualityControllerTrajectoryTest, SpeculativePowerModel) {
  const auto spec =
      DisorderHandlerSpec::Speculative(SpecOptions(0.9), /*gamma=*/0.5);
  ExpectTrajectory("spec-gamma/burst", RecordTrajectory(spec, BurstWorkload(1)),
                   {156, 0xe217caaad41b9a59ull, 27097});
  ExpectTrajectory("spec-gamma/step", RecordTrajectory(spec, StepWorkload()),
                   {156, 0x70d55bd8d8c6fd49ull, 31848});
}

}  // namespace
}  // namespace streamq
