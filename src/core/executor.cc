#include "core/executor.h"

#include <cstdio>

#include "common/logging.h"
#include "common/time.h"

namespace streamq {

std::string RunReport::ToString() const {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "RunReport{%s: events=%lld rejected=%lld results=%zu (amended=%lld) "
      "throughput=%.0f ev/s buf_latency_mean=%s late=%lld dropped=%lld "
      "shed=%lld",
      query_name.c_str(), static_cast<long long>(events_processed),
      static_cast<long long>(events_rejected), results.size(),
      static_cast<long long>(results_amended), throughput_eps,
      FormatDuration(
          static_cast<DurationUs>(handler_stats.buffering_latency_us.mean()))
          .c_str(),
      static_cast<long long>(handler_stats.events_late),
      static_cast<long long>(window_stats.late_dropped),
      static_cast<long long>(handler_stats.events_shed));
  std::string out = buf;
  if (!runtime_config.empty()) {
    out += " runtime=[" + runtime_config + "]";
  }
  if (!status.ok()) {
    out += " status=" + status.ToString();
  }
  out += "}";
  return out;
}

void RunReport::SetWallSeconds(double seconds) {
  wall_seconds = seconds;
  throughput_eps =
      seconds > 0.0 ? static_cast<double>(events_processed) / seconds : 0.0;
}

void ValidatedFeed::Feed(const Event& e, DisorderHandler* handler,
                         EventSink* sink) {
  if (validation_ != IngestValidation::kOff) [[unlikely]] {
    if (!status_.ok()) return;  // strict mode already tripped
    Status s = ValidateEvent(e);
    if (!s.ok()) {
      RejectEvent(e, std::move(s));
      return;
    }
  }
  ++events_processed_;
  handler->OnEvent(e, sink);
}

void ValidatedFeed::FeedBatchValidated(std::span<const Event> batch,
                                       DisorderHandler* handler,
                                       EventSink* sink) {
  if (!status_.ok()) return;
  size_t begin = 0;
  for (size_t i = 0; i < batch.size(); ++i) {
    Status s = ValidateEvent(batch[i]);
    if (s.ok()) continue;
    if (i > begin) {
      events_processed_ += static_cast<int64_t>(i - begin);
      handler->OnBatch(batch.subspan(begin, i - begin), sink);
    }
    RejectEvent(batch[i], std::move(s));
    begin = i + 1;
    if (!status_.ok()) return;  // strict: stop at the first rejection
  }
  if (begin < batch.size()) {
    events_processed_ += static_cast<int64_t>(batch.size() - begin);
    handler->OnBatch(batch.subspan(begin), sink);
  }
}

void ValidatedFeed::RejectEvent(const Event& e, Status status) {
  ++events_rejected_;
  if (observer_ != nullptr) {
    observer_->OnEventRejected(e);
  }
  if (validation_ == IngestValidation::kStrict && status_.ok()) {
    status_ = std::move(status);
  }
}

QueryExecutor::QueryExecutor(const ContinuousQuery& query)
    : query_(query), feed_(query.validation) {
  STREAMQ_CHECK_OK(query.Validate());
  handler_ = MakeDisorderHandlerOrDie(query.handler);
  window_op_ =
      std::make_unique<WindowedAggregation>(query.window, &result_sink_);
}

void QueryExecutor::Feed(const Event& e) {
  feed_.Feed(e, handler_.get(), window_op_.get());
}

void QueryExecutor::FeedBatch(std::span<const Event> batch) {
  feed_.FeedBatch(batch, handler_.get(), window_op_.get());
}

void QueryExecutor::FeedHeartbeat(TimestampUs event_time_bound,
                                  TimestampUs stream_time) {
  handler_->OnHeartbeat(event_time_bound, stream_time, window_op_.get());
}

void QueryExecutor::Finish() { handler_->Flush(window_op_.get()); }

RunReport QueryExecutor::Run(EventSource* source) {
  const TimestampUs start = WallClockMicros();
  std::vector<Event> chunk;
  chunk.reserve(kDefaultRunBatchSize);
  while (source->NextBatch(&chunk, kDefaultRunBatchSize) > 0) {
    FeedBatch(chunk);
    if (observer_ != nullptr) {
      observer_->OnSourceBatch(static_cast<int64_t>(chunk.size()));
    }
    chunk.clear();
    if (!feed_.status().ok()) break;  // strict validation tripped
  }
  Finish();
  wall_seconds_ = ToSeconds(WallClockMicros() - start);
  if (observer_ != nullptr) {
    observer_->OnRunCompleted(feed_.events_processed(), wall_seconds_);
  }
  return Report();
}

RunReport QueryExecutor::Report() const {
  return BuildRunReport(query_.name, feed_, *handler_, *window_op_,
                        result_sink_.results, wall_seconds_);
}

RunReport BuildRunReport(const std::string& query_name,
                         const ValidatedFeed& feed,
                         const DisorderHandler& handler,
                         const WindowedAggregation& window,
                         const std::vector<WindowResult>& results,
                         double wall_seconds) {
  RunReport report;
  report.query_name = query_name;
  report.events_processed = feed.events_processed();
  report.events_rejected = feed.events_rejected();
  report.status = feed.status();
  report.SetWallSeconds(wall_seconds);
  report.handler_stats = handler.stats();
  report.window_stats = window.stats();
  report.results_amended = report.window_stats.revisions;
  report.results = results;
  report.final_slack = handler.current_slack();
  return report;
}

}  // namespace streamq
