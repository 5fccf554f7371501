#include "pipeline.h"

#include <algorithm>
#include <memory>
#include <tuple>

#include "disorder/handler_factory.h"

namespace perfbench {

using streamq::Event;
using streamq::TimestampUs;
using streamq::WindowResult;

namespace {

/// Result sink that times each delivery.
class TimingResultSink : public streamq::WindowResultSink {
 public:
  TimingResultSink(Tracer* tracer, uint32_t name,
                   std::vector<WindowResult>* out)
      : tracer_(tracer), name_(name), out_(out) {}

  void OnResult(const WindowResult& result) override {
    Scope span(tracer_, name_);
    out_->push_back(result);
  }

 private:
  Tracer* tracer_;
  uint32_t name_;
  std::vector<WindowResult>* out_;
};

/// Sits between the handler and the window operator: forwards every call
/// unchanged, timing it under the window layer it enters and counting it.
class TimingEventSink : public streamq::EventSink {
 public:
  TimingEventSink(streamq::EventSink* next, Tracer* tracer,
                  const LayerIds& ids, PipelineRun* run)
      : next_(next), tracer_(tracer), ids_(ids), run_(run) {}

  void OnEvent(const Event& e) override {
    ++run_->release_calls;
    Scope span(tracer_, ids_.fold);
    next_->OnEvent(e);
  }
  void OnEvents(std::span<const Event> events) override {
    ++run_->release_calls;
    Scope span(tracer_, ids_.fold);
    next_->OnEvents(events);
  }
  void OnEvents(std::span<const Event> events,
                TimestampUs stream_time) override {
    ++run_->release_calls;
    Scope span(tracer_, ids_.fold);
    next_->OnEvents(events, stream_time);
  }
  void OnWatermark(TimestampUs watermark, TimestampUs stream_time) override {
    ++run_->watermarks;
    Scope span(tracer_, ids_.fire);
    next_->OnWatermark(watermark, stream_time);
  }
  void OnLateEvent(const Event& e) override {
    Scope span(tracer_, ids_.late);
    next_->OnLateEvent(e);
  }
  void OnKeyedWatermark(int64_t key, TimestampUs watermark,
                        TimestampUs stream_time) override {
    ++run_->watermarks;
    Scope span(tracer_, ids_.fire);
    next_->OnKeyedWatermark(key, watermark, stream_time);
  }

 private:
  streamq::EventSink* next_;
  Tracer* tracer_;
  const LayerIds& ids_;
  PipelineRun* run_;
};

}  // namespace

LayerIds LayerIds::Intern(Tracer* tracer) {
  LayerIds ids;
  ids.source = tracer->Intern("stream.source");
  ids.disorder = tracer->Intern("disorder");
  ids.fold = tracer->Intern("window.fold");
  ids.fire = tracer->Intern("window.fire");
  ids.late = tracer->Intern("window.late");
  ids.sink = tracer->Intern("sink");
  return ids;
}

BatchedStream BatchedStream::Regular(std::vector<Event> events, size_t batch) {
  BatchedStream out;
  for (size_t end = batch; end < events.size(); end += batch) {
    out.ends.push_back(end);
  }
  if (!events.empty()) out.ends.push_back(events.size());
  out.events = std::move(events);
  return out;
}

PipelineRun RunPipeline(const streamq::ContinuousQuery& query,
                        const BatchedStream& stream, Tracer* tracer,
                        const LayerIds* ids) {
  PipelineRun run;
  const int64_t start = NowNs();

  std::unique_ptr<streamq::DisorderHandler> handler =
      streamq::MakeDisorderHandlerOrDie(query.handler);
  std::unique_ptr<streamq::WindowResultSink> result_sink;
  streamq::CollectingResultSink collecting;
  if (tracer != nullptr) {
    result_sink =
        std::make_unique<TimingResultSink>(tracer, ids->sink, &run.results);
  }
  streamq::WindowedAggregation window(
      query.window, tracer != nullptr ? result_sink.get() : &collecting);
  std::unique_ptr<TimingEventSink> timing;
  streamq::EventSink* sink = &window;
  if (tracer != nullptr) {
    timing = std::make_unique<TimingEventSink>(&window, tracer, *ids, &run);
    sink = timing.get();
  }

  std::vector<Event> chunk;
  size_t begin = 0;
  for (size_t end : stream.ends) {
    const auto first = stream.events.begin() + static_cast<ptrdiff_t>(begin);
    const auto last = stream.events.begin() + static_cast<ptrdiff_t>(end);
    if (tracer != nullptr) {
      {
        Scope span(tracer, ids->source);
        chunk.assign(first, last);
      }
      Scope span(tracer, ids->disorder);
      handler->OnBatch(chunk, sink);
    } else {
      chunk.assign(first, last);
      handler->OnBatch(chunk, sink);
    }
    begin = end;
  }
  if (tracer != nullptr) {
    Scope span(tracer, ids->disorder);
    handler->Flush(sink);
  } else {
    handler->Flush(sink);
  }

  run.wall_ns = NowNs() - start;
  if (tracer == nullptr) run.results = std::move(collecting.results);
  run.handler_stats = handler->stats();
  run.window_stats = window.stats();
  return run;
}

bool TimedSource::Next(Event* out) {
  if (pos_ >= events_->size()) return false;
  *out = (*events_)[pos_++];
  return true;
}

size_t TimedSource::NextBatch(std::vector<Event>* out, size_t max_events) {
  if (handed_ns_ != 0) {
    hold_us_->push_back(static_cast<double>(NowNs() - handed_ns_) / 1e3);
  }
  const size_t n = std::min(max_events, events_->size() - pos_);
  out->insert(out->end(), events_->begin() + static_cast<ptrdiff_t>(pos_),
              events_->begin() + static_cast<ptrdiff_t>(pos_ + n));
  pos_ += n;
  if (++batches_ % 16 == 0) heap_->Sample();
  handed_ns_ = n > 0 ? NowNs() : 0;
  return n;
}

std::vector<WindowResult> FirstEmissions(
    const std::vector<WindowResult>& results) {
  std::vector<WindowResult> firsts;
  for (const WindowResult& r : results) {
    if (r.revision_index == 0) firsts.push_back(r);
  }
  std::sort(firsts.begin(), firsts.end(),
            [](const WindowResult& a, const WindowResult& b) {
              return std::tie(a.bounds.start, a.key) <
                     std::tie(b.bounds.start, b.key);
            });
  return firsts;
}

void SortResults(std::vector<WindowResult>* results) {
  std::stable_sort(results->begin(), results->end(),
                   [](const WindowResult& a, const WindowResult& b) {
                     return std::tie(a.bounds.start, a.key, a.revision_index) <
                            std::tie(b.bounds.start, b.key, b.revision_index);
                   });
}

}  // namespace perfbench
