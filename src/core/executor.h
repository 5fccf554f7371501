#ifndef STREAMQ_CORE_EXECUTOR_H_
#define STREAMQ_CORE_EXECUTOR_H_

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/continuous_query.h"
#include "core/pipeline_observer.h"
#include "disorder/disorder_handler.h"
#include "stream/source.h"
#include "window/window_operator.h"

namespace streamq {

/// Outcome of executing a query over a finite stream.
struct RunReport {
  std::string query_name;
  int64_t events_processed = 0;

  /// Arrivals rejected by ingest validation before reaching the handler
  /// (ContinuousQuery::validation != kOff). Not counted in
  /// events_processed, so total arrivals = events_processed +
  /// events_rejected.
  int64_t events_rejected = 0;

  /// Overall run health. Non-OK when strict ingest validation rejected a
  /// tuple, or (parallel runners) when a worker failed or a shard queue
  /// stayed stuck past the feed timeout. The pipeline state behind a
  /// non-OK degraded report is still internally consistent — stats and
  /// results cover everything processed before the failure.
  Status status;

  /// Wall-clock execution time and derived throughput (the only place wall
  /// time appears; everything else is stream time).
  double wall_seconds = 0.0;
  double throughput_eps = 0.0;

  DisorderHandlerStats handler_stats;
  WindowedAggregation::Stats window_stats;

  /// Results emitted as revisions of an already-materialized window
  /// (speculative emit-then-amend repairs; late-tuple amendments under
  /// allowed lateness). Mirrors window_stats.revisions so report consumers
  /// need not reach into the nested stats; every amended result's final
  /// revision matches what a fully-buffered run would have emitted.
  int64_t results_amended = 0;

  /// Every emitted result, revisions included, in emission order.
  std::vector<WindowResult> results;

  /// Handler slack at end of run (instrumentation).
  DurationUs final_slack = 0;

  /// Scheduler accounting from the sharded runner: shards moved by
  /// demand-driven work stealing (ParallelOptions::steal). Zero for
  /// sequential and independent-runner reports.
  int64_t segments_stolen = 0;

  /// Runtime configuration the run executed under (thread count, feed
  /// mode, arena/pinning switches, steals...). Filled by the threaded
  /// runners so a persisted report says how it was produced; empty for
  /// plain sequential runs.
  std::string runtime_config;

  /// Sets wall_seconds and the throughput_eps it implies.
  void SetWallSeconds(double seconds);

  std::string ToString() const;
};

/// Ingest validation in front of a disorder handler
/// (ContinuousQuery::validation): counts processed and rejected arrivals,
/// latches the strict-mode status, and feeds maximal valid sub-spans so one
/// bad tuple does not force a chunk down the per-event path. QueryExecutor
/// and MultiQueryRunner's shared plan both feed through it.
class ValidatedFeed {
 public:
  explicit ValidatedFeed(IngestValidation validation)
      : validation_(validation) {}

  /// Feeds one arrival (dropped once strict validation has tripped).
  void Feed(const Event& e, DisorderHandler* handler, EventSink* sink);

  /// Feeds a chunk of consecutive arrivals through handler->OnBatch.
  void FeedBatch(std::span<const Event> batch, DisorderHandler* handler,
                 EventSink* sink) {
    if (validation_ != IngestValidation::kOff) [[unlikely]] {
      FeedBatchValidated(batch, handler, sink);
      return;
    }
    events_processed_ += static_cast<int64_t>(batch.size());
    handler->OnBatch(batch, sink);
  }

  /// Rejections are reported to `observer` (nullptr = none).
  void set_observer(PipelineObserver* observer) { observer_ = observer; }

  int64_t events_processed() const { return events_processed_; }
  int64_t events_rejected() const { return events_rejected_; }
  /// Sticky: non-OK once strict validation rejected a tuple.
  const Status& status() const { return status_; }

 private:
  void FeedBatchValidated(std::span<const Event> batch,
                          DisorderHandler* handler, EventSink* sink);
  void RejectEvent(const Event& e, Status status);

  IngestValidation validation_;
  PipelineObserver* observer_ = nullptr;
  int64_t events_processed_ = 0;
  int64_t events_rejected_ = 0;
  Status status_;
};

/// Assembles one query's report from its pipeline: `feed`'s counts and
/// status, `handler`'s stats and slack, `window`'s stats, its results and
/// the run's wall time.
RunReport BuildRunReport(const std::string& query_name,
                         const ValidatedFeed& feed,
                         const DisorderHandler& handler,
                         const WindowedAggregation& window,
                         const std::vector<WindowResult>& results,
                         double wall_seconds);

/// Single-query pipeline: EventSource -> DisorderHandler ->
/// WindowedAggregation -> results. Use Run() for whole-stream execution or
/// the Feed()/Finish() pair to drive it incrementally (e.g. interleaved with
/// other pipelines).
class QueryExecutor {
 public:
  explicit QueryExecutor(const ContinuousQuery& query);

  /// Processes one arrival.
  void Feed(const Event& e);

  /// Processes a chunk of consecutive arrivals (arrival order). Semantically
  /// identical to calling Feed() on each element in order, but routes through
  /// DisorderHandler::OnBatch so per-tuple virtual dispatch and buffer churn
  /// are amortized across the chunk.
  void FeedBatch(std::span<const Event> batch);

  /// Injects a source heartbeat: no future tuple will carry event_time <
  /// `event_time_bound`. Drains buffers / closes windows during idle gaps.
  void FeedHeartbeat(TimestampUs event_time_bound, TimestampUs stream_time);

  /// Ends the stream: drains buffers, fires and purges remaining windows.
  void Finish();

  /// Chunk size used by Run(): large enough to amortize dispatch, small
  /// enough to stay cache-resident (512 events * 40 B = 20 KiB).
  static constexpr size_t kDefaultRunBatchSize = 512;

  /// Feed-everything convenience: pulls kDefaultRunBatchSize events at a
  /// time through FeedBatch, calls Finish() and returns the report.
  RunReport Run(EventSource* source);

  /// Results collected so far (also included in the RunReport).
  const std::vector<WindowResult>& results() const {
    return result_sink_.results;
  }

  /// Installs a read-only instrumentation observer on the whole pipeline
  /// (source batches, handler, window operator). nullptr uninstalls. The
  /// observer must outlive the executor; when unset the pipeline pays only
  /// pointer null-checks (see core/pipeline_observer.h).
  void SetObserver(PipelineObserver* observer) {
    observer_ = observer;
    feed_.set_observer(observer);
    handler_->set_observer(observer);
    window_op_->set_observer(observer);
  }

  /// Read-only views of the pipeline stages, for inspection (stats, slack,
  /// buffer occupancy). Mutation goes through the query spec at construction
  /// or through SetObserver — not by reaching into the stages.
  const DisorderHandler& handler_view() const { return *handler_; }
  const WindowedAggregation& window_view() const { return *window_op_; }

  const ContinuousQuery& query() const { return query_; }

  /// Builds the report from current state (without finishing).
  RunReport Report() const;

  /// Sticky run status (see RunReport::status). Always OK unless the query
  /// uses strict ingest validation.
  const Status& status() const { return feed_.status(); }

 private:
  ContinuousQuery query_;
  CollectingResultSink result_sink_;
  std::unique_ptr<DisorderHandler> handler_;
  std::unique_ptr<WindowedAggregation> window_op_;
  ValidatedFeed feed_;
  PipelineObserver* observer_ = nullptr;
  double wall_seconds_ = 0.0;
};

}  // namespace streamq

#endif  // STREAMQ_CORE_EXECUTOR_H_
