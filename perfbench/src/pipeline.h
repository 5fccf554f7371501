#ifndef PERFBENCH_PIPELINE_H_
#define PERFBENCH_PIPELINE_H_

// The disorder -> window -> sink pipeline rebuilt from streamq's public
// parts (MakeDisorderHandler + WindowedAggregation), with a timing sink
// between each pair of layers, plus the timed source the untraced runs read
// from. The same call sequence as QueryExecutor::FeedBatch, so results are
// byte-identical to the production entry point's.

#include <cstdint>
#include <span>
#include <vector>

#include "core/continuous_query.h"
#include "disorder/disorder_handler.h"
#include "ledger.h"
#include "stream/source.h"
#include "window/window_operator.h"

namespace perfbench {

/// Span names of the in-process layers.
struct LayerIds {
  uint32_t source = 0;
  uint32_t disorder = 0;
  uint32_t fold = 0;
  uint32_t fire = 0;
  uint32_t late = 0;
  uint32_t sink = 0;

  static LayerIds Intern(Tracer* tracer);
};

/// Arrival-ordered events with the batch boundaries the entry point would
/// cut them at (ends[i] is one past the last event of batch i).
struct BatchedStream {
  std::vector<streamq::Event> events;
  std::vector<size_t> ends;

  static BatchedStream Regular(std::vector<streamq::Event> events,
                               size_t batch);
};

/// Outcome of one pipeline pass.
struct PipelineRun {
  std::vector<streamq::WindowResult> results;
  streamq::DisorderHandlerStats handler_stats;
  streamq::WindowedAggregation::Stats window_stats;
  int64_t release_calls = 0;  // OnEvent/OnEvents calls from the handler.
  int64_t watermarks = 0;     // OnWatermark + OnKeyedWatermark calls.
  int64_t wall_ns = 0;
};

/// Runs `query` over `stream` through handler -> window -> collecting sink.
/// With a tracer, every call into a layer is recorded as a span (source
/// copy and handler calls top-level; window calls under the handler; result
/// deliveries under the window call that emitted them).
PipelineRun RunPipeline(const streamq::ContinuousQuery& query,
                        const BatchedStream& stream, Tracer* tracer,
                        const LayerIds* ids);

/// Materialized source for the untraced runs. Records how long the entry
/// point held each batch (from handing it over to asking for the next one)
/// and samples the heap in use every 16 batches.
class TimedSource : public streamq::EventSource {
 public:
  TimedSource(const std::vector<streamq::Event>* events,
              std::vector<double>* hold_us, HeapSampler* heap)
      : events_(events), hold_us_(hold_us), heap_(heap) {}

  bool Next(streamq::Event* out) override;
  size_t NextBatch(std::vector<streamq::Event>* out,
                   size_t max_events) override;
  void Reset() override {
    pos_ = 0;
    handed_ns_ = 0;
  }
  int64_t size_hint() const override {
    return static_cast<int64_t>(events_->size());
  }

 private:
  const std::vector<streamq::Event>* events_;
  std::vector<double>* hold_us_;
  HeapSampler* heap_;
  size_t pos_ = 0;
  int64_t handed_ns_ = 0;
  int64_t batches_ = 0;
};

/// First emission of every window, ordered by (window start, key).
std::vector<streamq::WindowResult> FirstEmissions(
    const std::vector<streamq::WindowResult>& results);

/// Results ordered by (window start, key, revision index).
void SortResults(std::vector<streamq::WindowResult>* results);

}  // namespace perfbench

#endif  // PERFBENCH_PIPELINE_H_
