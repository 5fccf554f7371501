#include "core/multi_query.h"

#include <algorithm>

#include "common/logging.h"
#include "common/time.h"

namespace streamq {

namespace {

/// Fans one handler's output out to several window operators.
class FanOutSink : public EventSink {
 public:
  explicit FanOutSink(std::vector<EventSink*> sinks)
      : sinks_(std::move(sinks)) {}

  void OnEvent(const Event& e) override {
    for (EventSink* s : sinks_) s->OnEvent(e);
  }
  void OnEvents(std::span<const Event> events) override {
    for (EventSink* s : sinks_) s->OnEvents(events);
  }
  void OnWatermark(TimestampUs watermark, TimestampUs stream_time) override {
    for (EventSink* s : sinks_) s->OnWatermark(watermark, stream_time);
  }
  void OnLateEvent(const Event& e) override {
    for (EventSink* s : sinks_) s->OnLateEvent(e);
  }

 private:
  std::vector<EventSink*> sinks_;
};

}  // namespace

void MultiQueryRunner::AddQuery(const ContinuousQuery& query) {
  STREAMQ_CHECK_OK(query.Validate());
  queries_.push_back(query);
}

DisorderHandlerSpec MultiQueryRunner::SharedHandlerSpec(
    const std::vector<ContinuousQuery>& queries) {
  STREAMQ_CHECK(!queries.empty());
  const DisorderHandlerSpec* strictest = nullptr;
  for (const ContinuousQuery& q : queries) {
    if (q.handler.kind != DisorderHandlerSpec::Kind::kAqKSlack) continue;
    if (strictest == nullptr ||
        q.handler.quality.target_quality >
            strictest->quality.target_quality) {
      strictest = &q.handler;
    }
  }
  return strictest != nullptr ? *strictest : queries.front().handler;
}

std::vector<RunReport> MultiQueryRunner::Run(EventSource* source) {
  STREAMQ_CHECK(!queries_.empty()) << "no queries added";
  return plan_ == Plan::kIndependent ? RunIndependent(source)
                                     : RunShared(source);
}

std::vector<RunReport> MultiQueryRunner::RunIndependent(EventSource* source) {
  std::vector<std::unique_ptr<QueryExecutor>> executors;
  executors.reserve(queries_.size());
  for (const ContinuousQuery& q : queries_) {
    executors.push_back(std::make_unique<QueryExecutor>(q));
  }
  const TimestampUs start = WallClockMicros();
  std::vector<Event> chunk;
  chunk.reserve(QueryExecutor::kDefaultRunBatchSize);
  while (source->NextBatch(&chunk, QueryExecutor::kDefaultRunBatchSize) > 0) {
    for (auto& exec : executors) exec->FeedBatch(chunk);
    chunk.clear();
  }
  for (auto& exec : executors) exec->Finish();
  const double wall_seconds = ToSeconds(WallClockMicros() - start);

  std::vector<RunReport> reports;
  reports.reserve(executors.size());
  for (auto& exec : executors) {
    RunReport r = exec->Report();
    // The executors were driven externally; charge the shared loop's wall
    // time to every report (Feed/Finish do not time themselves).
    r.SetWallSeconds(wall_seconds);
    reports.push_back(std::move(r));
  }
  return reports;
}

std::vector<RunReport> MultiQueryRunner::RunShared(EventSource* source) {
  auto handler = MakeDisorderHandlerOrDie(SharedHandlerSpec(queries_));
  // One feed serves every query, so it validates with the strictest policy
  // among them (IngestValidation is ordered off < drop < strict).
  IngestValidation validation = IngestValidation::kOff;
  for (const ContinuousQuery& q : queries_) {
    validation = std::max(validation, q.validation);
  }
  ValidatedFeed feed(validation);

  std::vector<std::unique_ptr<CollectingResultSink>> result_sinks;
  std::vector<std::unique_ptr<WindowedAggregation>> window_ops;
  std::vector<EventSink*> fan_targets;
  for (const ContinuousQuery& q : queries_) {
    result_sinks.push_back(std::make_unique<CollectingResultSink>());
    window_ops.push_back(std::make_unique<WindowedAggregation>(
        q.window, result_sinks.back().get()));
    fan_targets.push_back(window_ops.back().get());
  }
  FanOutSink fan(fan_targets);

  const TimestampUs start = WallClockMicros();
  std::vector<Event> chunk;
  chunk.reserve(QueryExecutor::kDefaultRunBatchSize);
  while (source->NextBatch(&chunk, QueryExecutor::kDefaultRunBatchSize) > 0) {
    feed.FeedBatch(chunk, handler.get(), &fan);
    chunk.clear();
    if (!feed.status().ok()) break;  // strict validation tripped
  }
  handler->Flush(&fan);
  const double wall_seconds = ToSeconds(WallClockMicros() - start);

  std::vector<RunReport> reports;
  reports.reserve(queries_.size());
  for (size_t i = 0; i < queries_.size(); ++i) {
    reports.push_back(BuildRunReport(queries_[i].name, feed, *handler,
                                     *window_ops[i], result_sinks[i]->results,
                                     wall_seconds));
  }
  return reports;
}

}  // namespace streamq
