#ifndef STREAMQ_CORE_STREAM_SESSION_H_
#define STREAMQ_CORE_STREAM_SESSION_H_

#include <memory>
#include <span>
#include <string>
#include <thread>

#include "core/executor.h"
#include "core/parallel_runner.h"
#include "core/session_options.h"

namespace streamq {

namespace internal {
class BlockingQueueSource;
}  // namespace internal

/// One running continuous query, opened from a validated SessionOptions —
/// the facade over the executor/runner/observer wiring that examples and
/// harnesses used to hand-roll. Every front end (CLI, network server,
/// load generator) goes through here, so they cannot drift apart on how a
/// session is assembled.
///
/// Two driving styles, chosen by the caller (not the options):
///
///  * Whole-stream: Run(source) executes a finite stream to completion and
///    returns the report. threads == 0 runs the sequential QueryExecutor;
///    threads > 0 the ShardedKeyedRunner.
///
///  * Incremental: Ingest()/Heartbeat() feed arrivals as they show up
///    (network frames, interleaved tenants), Snapshot() reads live
///    progress, Finish() drains buffers and seals the final report. With
///    threads > 0 the arrivals flow through a bounded blocking queue into
///    the sharded runner on an internal driver thread — the server's
///    "every tenant rides the same runners" path.
///
/// A session is single-caller: external synchronization (the server holds a
/// per-tenant mutex) is required if multiple threads share one session.
class StreamSession {
 public:
  /// Validates `options`, builds the query, and assembles the pipeline.
  /// On error nothing is constructed and the Status names the bad field.
  static Result<std::unique_ptr<StreamSession>> Open(
      const SessionOptions& options);

  /// Finishes the session if the caller did not (threaded incremental
  /// sessions own a driver thread that must be joined).
  ~StreamSession();

  StreamSession(const StreamSession&) = delete;
  StreamSession& operator=(const StreamSession&) = delete;

  /// Runs a finite stream to completion. Exclusive with the incremental
  /// API: calling Run after Ingest (or twice) yields a FailedPrecondition
  /// report. Fault-injection wrappers compose outside: pass the wrapped
  /// source.
  RunReport Run(EventSource* source);

  /// Feeds a chunk of arrivals (arrival order). Sequential sessions
  /// process inline; threaded sessions enqueue to the runner (blocking
  /// briefly under backpressure). Returns the session's sticky status —
  /// non-OK after a strict-validation reject, but ingest keeps accounting
  /// either way.
  Status Ingest(std::span<const Event> events);

  /// Source heartbeat: no future arrival will carry event_time <
  /// `event_time_bound`; drains buffers across idle gaps. Sequential
  /// sessions only (threaded runners manage watermarks per shard):
  /// Unimplemented otherwise.
  Status Heartbeat(TimestampUs event_time_bound, TimestampUs stream_time);

  /// Live progress without finishing. Sequential sessions return the full
  /// mid-run report (stats cover everything processed; buffered tuples are
  /// not yet in events_out, so the in == out + late + shed identity is a
  /// Finish()-time property). Threaded sessions mid-run report ingested
  /// counts only (runtime_config = "pending"); after Finish() this is the
  /// final report.
  RunReport Snapshot() const;

  /// Ends the stream: drains buffers, fires remaining windows, joins the
  /// driver thread (threaded), and seals the final report. Idempotent.
  const RunReport& Finish();

  bool finished() const { return finished_; }

  /// Arrivals handed to Ingest so far (validation rejects included — they
  /// are arrivals, just not processed ones).
  int64_t events_ingested() const { return events_ingested_; }

  /// Live in-flight occupancy, the quantity server admission control caps:
  /// sequential sessions report the reorder-buffer population, threaded
  /// ones the ingest-queue depth (events accepted but not yet consumed by
  /// the runner). Cheap enough to call per ingest frame.
  int64_t BufferedEvents() const;

  /// Segments stolen by starving workers (threaded sessions with steal
  /// on). Timing-dependent; the output is not.
  int64_t steals() const;

  /// Installs an observer on the pipeline. Must be called before Run or
  /// the first Ingest; must be thread-safe for threaded sessions; must
  /// outlive the session.
  void SetObserver(PipelineObserver* observer);

  const SessionOptions& options() const { return options_; }
  const ContinuousQuery& query() const { return query_; }

 private:
  StreamSession(SessionOptions options, ContinuousQuery query);

  bool threaded() const { return options_.threads > 0; }

  /// Spawns the threaded-incremental driver on first use.
  void EnsureStarted();

  SessionOptions options_;
  ContinuousQuery query_;
  PipelineObserver* observer_ = nullptr;

  /// Sequential pipeline (threads == 0).
  std::unique_ptr<QueryExecutor> executor_;

  /// Threaded pipeline (threads > 0).
  std::unique_ptr<ShardedKeyedRunner> runner_;
  std::unique_ptr<internal::BlockingQueueSource> queue_;
  std::thread driver_;

  bool started_ = false;   // Incremental feeding has begun.
  bool ran_ = false;       // Run() was used.
  bool finished_ = false;
  int64_t events_ingested_ = 0;
  RunReport final_report_;
};

}  // namespace streamq

#endif  // STREAMQ_CORE_STREAM_SESSION_H_
