#include "core/stream_session.h"

#include <condition_variable>
#include <deque>
#include <mutex>
#include <utility>
#include <vector>

namespace streamq {

namespace internal {

/// Bounded blocking MPMC event queue exposed as an EventSource: the bridge
/// between an incremental caller (network frames arriving on a connection
/// thread) and the pull-based sharded runner (whose driver thread calls
/// NextBatch). Push blocks under backpressure, so a slow tenant pipeline
/// throttles its own ingest instead of growing without bound.
class BlockingQueueSource : public EventSource {
 public:
  explicit BlockingQueueSource(size_t max_events) : max_events_(max_events) {}

  /// Appends a chunk of arrivals, blocking while the queue is full.
  void Push(std::span<const Event> events) {
    size_t offset = 0;
    std::unique_lock<std::mutex> lock(mu_);
    while (offset < events.size()) {
      not_full_.wait(lock,
                     [this] { return queue_.size() < max_events_ || closed_; });
      if (closed_) return;  // Finishing: drop the remainder silently.
      const size_t room = max_events_ - queue_.size();
      const size_t n = std::min(room, events.size() - offset);
      queue_.insert(queue_.end(), events.begin() + static_cast<ptrdiff_t>(offset),
                    events.begin() + static_cast<ptrdiff_t>(offset + n));
      offset += n;
      not_empty_.notify_all();
    }
  }

  /// No more pushes; NextBatch drains the remainder then reports
  /// end-of-stream.
  void Close() {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  bool Next(Event* out) override {
    std::vector<Event> one;
    if (NextBatch(&one, 1) == 0) return false;
    *out = one.front();
    return true;
  }

  size_t NextBatch(std::vector<Event>* out, size_t max_events) override {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [this] { return !queue_.empty() || closed_; });
    const size_t n = std::min(max_events, queue_.size());
    out->insert(out->end(), queue_.begin(), queue_.begin() + static_cast<ptrdiff_t>(n));
    queue_.erase(queue_.begin(), queue_.begin() + static_cast<ptrdiff_t>(n));
    if (n > 0) not_full_.notify_all();
    return n;
  }

  /// One-shot stream; the runners never rewind their source.
  void Reset() override {}

  /// Current depth (events pushed but not yet pulled by the runner).
  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return queue_.size();
  }

 private:
  const size_t max_events_;
  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<Event> queue_;
  bool closed_ = false;
};

}  // namespace internal

namespace {

/// Queue bound for threaded-incremental sessions: enough to decouple the
/// connection thread from the runner's dips, small enough that one stalled
/// tenant pipeline caps its own memory (64k events ~= 2.5 MiB).
constexpr size_t kIncrementalQueueCap = 64 * 1024;

}  // namespace

Result<std::unique_ptr<StreamSession>> StreamSession::Open(
    const SessionOptions& options) {
  STREAMQ_ASSIGN_OR_RETURN(ContinuousQuery query, options.BuildQuery());
  return std::unique_ptr<StreamSession>(
      new StreamSession(options, std::move(query)));
}

StreamSession::StreamSession(SessionOptions options, ContinuousQuery query)
    : options_(std::move(options)), query_(std::move(query)) {
  if (threaded()) {
    runner_ = std::make_unique<ShardedKeyedRunner>(
        query_, static_cast<size_t>(options_.threads),
        options_.BuildParallelOptions());
  } else {
    executor_ = std::make_unique<QueryExecutor>(query_);
  }
}

StreamSession::~StreamSession() {
  if (!finished_ && (started_ || threaded())) Finish();
}

void StreamSession::SetObserver(PipelineObserver* observer) {
  observer_ = observer;
  if (executor_ != nullptr) executor_->SetObserver(observer);
  if (runner_ != nullptr) runner_->SetObserver(observer);
}

RunReport StreamSession::Run(EventSource* source) {
  if (started_ || ran_ || finished_) {
    RunReport report;
    report.query_name = query_.name;
    report.status = Status::FailedPrecondition(
        "StreamSession::Run on a session already driven");
    return report;
  }
  ran_ = true;
  finished_ = true;
  final_report_ = threaded() ? runner_->Run(source) : executor_->Run(source);
  events_ingested_ =
      final_report_.events_processed + final_report_.events_rejected;
  return final_report_;
}

void StreamSession::EnsureStarted() {
  if (started_) return;
  started_ = true;
  if (!threaded()) return;
  queue_ = std::make_unique<internal::BlockingQueueSource>(
      kIncrementalQueueCap);
  driver_ = std::thread([this] {
    // The runner contains worker faults itself (non-OK report), so the
    // driver body is exception-free by contract.
    final_report_ = runner_->Run(queue_.get());
  });
}

Status StreamSession::Ingest(std::span<const Event> events) {
  if (ran_ || finished_) {
    return Status::FailedPrecondition("Ingest on a finished session");
  }
  EnsureStarted();
  events_ingested_ += static_cast<int64_t>(events.size());
  if (threaded()) {
    queue_->Push(events);
    return Status::OK();
  }
  executor_->FeedBatch(events);
  return executor_->status();
}

Status StreamSession::Heartbeat(TimestampUs event_time_bound,
                                TimestampUs stream_time) {
  if (ran_ || finished_) {
    return Status::FailedPrecondition("Heartbeat on a finished session");
  }
  if (threaded()) {
    return Status::Unimplemented(
        "heartbeats are per-shard on threaded sessions; drive them through "
        "the stream instead");
  }
  EnsureStarted();
  executor_->FeedHeartbeat(event_time_bound, stream_time);
  return executor_->status();
}

RunReport StreamSession::Snapshot() const {
  if (finished_) return final_report_;
  if (!threaded()) {
    if (executor_ == nullptr) return RunReport{};
    return executor_->Report();
  }
  RunReport report;
  report.query_name = query_.name;
  report.events_processed = events_ingested_;
  report.runtime_config = "pending";
  return report;
}

const RunReport& StreamSession::Finish() {
  if (finished_) return final_report_;
  finished_ = true;
  if (!threaded()) {
    executor_->Finish();
    final_report_ = executor_->Report();
    return final_report_;
  }
  EnsureStarted();  // Never-fed session still produces a (empty) report.
  queue_->Close();
  if (driver_.joinable()) driver_.join();
  return final_report_;
}

int64_t StreamSession::BufferedEvents() const {
  if (finished_) return 0;
  if (!threaded()) {
    if (executor_ == nullptr) return 0;
    return static_cast<int64_t>(executor_->handler_view().buffered());
  }
  return queue_ != nullptr ? static_cast<int64_t>(queue_->size()) : 0;
}

int64_t StreamSession::steals() const {
  return runner_ != nullptr ? runner_->steals() : 0;
}

}  // namespace streamq
