#ifndef STREAMQ_CORE_MULTI_QUERY_H_
#define STREAMQ_CORE_MULTI_QUERY_H_

#include <memory>
#include <vector>

#include "core/continuous_query.h"
#include "core/executor.h"
#include "stream/source.h"

namespace streamq {

/// Executes several continuous queries over one input stream.
///
/// Two plans:
///  * kIndependent — every query gets its own disorder handler (buffering
///    is paid per query, but each query's quality/latency contract is met
///    exactly);
///  * kSharedHandler — one disorder handler feeds every query's window
///    operator. The shared handler is configured from the *strictest*
///    quality target among the queries, so every target is met, but
///    looser queries inherit the strict query's buffering latency. The
///    saving: one reorder buffer and one sort instead of N. Ingest
///    validation likewise runs once, with the strictest policy among the
///    queries (strict > drop > off).
///
/// This is the classic shared-execution trade-off for this operator:
/// the ablation bench (R-F12) quantifies both sides.
class MultiQueryRunner {
 public:
  enum class Plan { kIndependent, kSharedHandler };

  explicit MultiQueryRunner(Plan plan) : plan_(plan) {}

  /// Registers a query. All queries must be added before Run().
  void AddQuery(const ContinuousQuery& query);

  /// Runs all queries over the stream; reports are in AddQuery order.
  /// With kSharedHandler, each report's handler_stats describe the single
  /// shared handler (identical across reports).
  std::vector<RunReport> Run(EventSource* source);

  Plan plan() const { return plan_; }

  /// The handler spec a shared plan would use (strictest quality target;
  /// falls back to the first query's spec when none is quality-driven).
  static DisorderHandlerSpec SharedHandlerSpec(
      const std::vector<ContinuousQuery>& queries);

 private:
  std::vector<RunReport> RunIndependent(EventSource* source);
  std::vector<RunReport> RunShared(EventSource* source);

  Plan plan_;
  std::vector<ContinuousQuery> queries_;
};

}  // namespace streamq

#endif  // STREAMQ_CORE_MULTI_QUERY_H_
