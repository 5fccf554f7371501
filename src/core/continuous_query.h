#ifndef STREAMQ_CORE_CONTINUOUS_QUERY_H_
#define STREAMQ_CORE_CONTINUOUS_QUERY_H_

#include <string>

#include "agg/aggregate.h"
#include "common/status.h"
#include "disorder/handler_factory.h"
#include "window/window_operator.h"

namespace streamq {

/// What QueryExecutor does with arrivals that fail ValidateEvent
/// (non-finite value, negative/overflowing timestamp, clock regression).
/// Declared in order of strictness.
enum class IngestValidation {
  /// Trust the source; feed everything straight to the handler (default —
  /// zero per-tuple cost, right for generated workloads).
  kOff,
  /// Count-and-drop: reject the tuple, bump RunReport::events_rejected,
  /// keep running. Right for external / fault-injected feeds.
  kDrop,
  /// First malformed tuple stops the run: it is rejected and counted, and
  /// RunReport::status carries the validation error (sticky).
  kStrict,
};

const char* IngestValidationName(IngestValidation validation);

/// A continuous query: disorder handling strategy + windowed aggregation.
/// Build with QueryBuilder; run with QueryExecutor.
struct ContinuousQuery {
  std::string name = "query";
  DisorderHandlerSpec handler;
  WindowedAggregation::Options window;
  IngestValidation validation = IngestValidation::kOff;

  Status Validate() const;

  /// e.g. "q1: sliding(10s/1s) sum via aq-kslack(q*=0.950)".
  std::string Describe() const;
};

/// Fluent builder for ContinuousQuery. Example:
///
///   ContinuousQuery q = QueryBuilder("avg-load")
///       .Sliding(Seconds(10), Seconds(1))
///       .Aggregate("mean")
///       .QualityTarget(0.95)       // quality-driven buffering (the paper)
///       .Build();
///
/// Alternatives to QualityTarget: FixedSlack(k), AdaptiveMaxSlack(),
/// Watermark(bound), NoDisorderHandling().
class QueryBuilder {
 public:
  explicit QueryBuilder(std::string name = "query");

  /// Window shape.
  QueryBuilder& Tumbling(DurationUs size);
  QueryBuilder& Sliding(DurationUs size, DurationUs slide);

  /// Aggregate function: by spec or by name ("sum", "quantile:0.9", ...).
  /// The string form aborts on parse error (use ParseAggregateSpec for
  /// recoverable handling).
  QueryBuilder& Aggregate(const AggregateSpec& spec);
  QueryBuilder& Aggregate(const std::string& name);

  /// How long after window close late tuples may still amend results.
  QueryBuilder& AllowedLateness(DurationUs lateness);

  /// Emit one revision per late update (default) or batch at purge time.
  QueryBuilder& RevisionPerUpdate(bool on);

  /// --- Disorder handling strategies (choose exactly one; the last call
  /// wins). Default: QualityTarget(0.95). ---

  /// The paper's operator: meet a result-quality target with minimal
  /// buffering latency. The coverage→quality model defaults to the
  /// aggregate's DefaultQualityGamma; override with `gamma` > 0, or pass
  /// gamma = 1 for the pure coverage metric.
  QueryBuilder& QualityTarget(double target, double gamma = 0.0);

  /// QualityTarget with full AqKSlack options control.
  QueryBuilder& QualityDriven(const AqKSlack::Options& options,
                              double gamma = 0.0);

  /// The dual contract: "mean buffering latency at most `budget`, quality
  /// as high as that allows" (LbKSlack).
  QueryBuilder& LatencyBudget(DurationUs budget);

  /// LatencyBudget with full LbKSlack options control.
  QueryBuilder& LatencyConstrained(const LbKSlack::Options& options);

  /// Classic fixed K-slack.
  QueryBuilder& FixedSlack(DurationUs k);

  /// Disorder-bound-tracking baseline.
  QueryBuilder& AdaptiveMaxSlack(
      const MpKSlack::Options& options = MpKSlack::Options{});

  /// Flink-style heuristic watermark baseline.
  QueryBuilder& Watermark(const WatermarkReorderer::Options& options);

  /// No reordering at all (use with AllowedLateness for the speculative
  /// emit-then-amend strategy).
  QueryBuilder& NoDisorderHandling();

  /// Speculative emit-then-amend: no reorder buffer, an adaptive hold on
  /// the output watermark driven by the amend-rate controller; both window
  /// engines absorb its out-of-order folds. Like QualityTarget, `target`
  /// prices the provisional results: 1 - target is the amend-rate budget.
  QueryBuilder& Speculative(double target = 0.95, double gamma = 0.0);

  /// Speculative with full SpeculativeHandler options control.
  QueryBuilder& SpeculativeDriven(const SpeculativeHandler::Options& options,
                                  double gamma = 0.0);

  /// Window engine selection (default kHot). kAmend accepts out-of-order
  /// tuples directly — the engine the speculative strategies pair with.
  QueryBuilder& WindowEngine(WindowedAggregation::Engine engine);

  /// Runs the chosen disorder strategy per key (one buffer per key, merged
  /// minimum watermark). Call after choosing the strategy.
  QueryBuilder& PerKey(bool on = true);

  /// Ingest validation policy for malformed arrivals (default kOff).
  QueryBuilder& ValidateIngest(IngestValidation validation);

  /// Bounded-memory degradation: cap the handler's reorder buffer and shed
  /// per `policy` once it fills (see DisorderHandlerSpec::WithBufferCap).
  QueryBuilder& BufferCap(size_t max_buffered_events,
                          ShedPolicy policy = ShedPolicy::kEmitEarly);

  /// Clamp on the slack adaptive handlers may request (0 = unbounded).
  QueryBuilder& MaxSlack(DurationUs max_slack);

  /// Finalizes the query. Aborts if the configuration is invalid.
  ContinuousQuery Build() const;

 private:
  ContinuousQuery query_;
  bool explicit_gamma_ = false;
  double gamma_override_ = 0.0;
  bool quality_driven_ = true;
};

}  // namespace streamq

#endif  // STREAMQ_CORE_CONTINUOUS_QUERY_H_
