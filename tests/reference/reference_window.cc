#include "tests/reference/reference_window.h"

#include <algorithm>

#include "common/logging.h"
#include "disorder/handler_factory.h"
#include "tests/reference/reference_aggregate.h"

namespace streamq {
namespace reference {

ReferenceWindowedAggregation::ReferenceWindowedAggregation(
    const Options& options, WindowResultSink* sink)
    : options_(options), sink_(sink) {
  STREAMQ_CHECK(sink != nullptr);
  STREAMQ_CHECK_OK(options.window.Validate());
  STREAMQ_CHECK_OK(options.aggregate.Validate());
}

ReferenceWindowedAggregation::WindowState*
ReferenceWindowedAggregation::GetOrCreateState(TimestampUs window_start,
                                               int64_t key) {
  auto it = windows_.find(StateKey{window_start, key});
  if (it == windows_.end()) {
    WindowState state;
    state.acc = MakeReferenceAggregator(options_.aggregate);
    it = windows_.emplace(StateKey{window_start, key}, std::move(state)).first;
    stats_.max_live_windows = std::max(
        stats_.max_live_windows, static_cast<int64_t>(windows_.size()));
  }
  return &it->second;
}

void ReferenceWindowedAggregation::Emit(const StateKey& sk,
                                        WindowState* state, TimestampUs now,
                                        bool revision) {
  WindowResult r;
  r.bounds = WindowBounds{sk.first, sk.first + options_.window.size};
  r.key = sk.second;
  r.value = state->acc->Value();
  r.tuple_count = state->acc->count();
  r.emit_stream_time = now;
  r.is_revision = revision;
  r.revision_index = revision ? ++state->revisions : 0;
  state->fired = true;
  state->dirty_since_fire = false;
  ++(revision ? stats_.revisions : stats_.windows_fired);
  sink_->OnResult(r);
}

void ReferenceWindowedAggregation::OnEvent(const Event& e) {
  ++stats_.events;
  // In-order events never target fired windows (their window end is above
  // the watermark by construction), so there is no revision logic here.
  ForEachWindow(options_.window, e.event_time, [&](const WindowBounds& w) {
    GetOrCreateState(w.start, e.key)->acc->Add(e.value);
  });
}

void ReferenceWindowedAggregation::OnWatermark(TimestampUs watermark,
                                               TimestampUs stream_time) {
  if (watermark <= last_watermark_) return;
  last_watermark_ = watermark;
  auto it = windows_.begin();
  while (it != windows_.end()) {
    const TimestampUs end = it->first.first + options_.window.size;
    const bool fire = end <= watermark && !it->second.fired;
    // Saturating end + allowed_lateness (watermark can be kMaxTimestamp).
    const TimestampUs retire_at =
        (end > kMaxTimestamp - options_.allowed_lateness)
            ? kMaxTimestamp
            : end + options_.allowed_lateness;
    const bool purge = retire_at <= watermark || watermark == kMaxTimestamp;
    // Ordered by start, fixed-size windows: both conditions are monotone.
    if (!fire && !purge && end > watermark) break;
    if (fire) Emit(it->first, &it->second, stream_time, /*revision=*/false);
    if (!purge) {
      ++it;
      continue;
    }
    if (it->second.fired && it->second.dirty_since_fire) {
      // Batch-refinement mode: flush pending amendments as one revision.
      Emit(it->first, &it->second, stream_time, /*revision=*/true);
    } else if (!it->second.fired) {
      // Terminal-watermark purge of a window that never saw its end.
      Emit(it->first, &it->second, stream_time, /*revision=*/false);
    }
    it = windows_.erase(it);
  }
}

void ReferenceWindowedAggregation::OnKeyedWatermark(int64_t key,
                                                    TimestampUs watermark,
                                                    TimestampUs stream_time) {
  if (!options_.per_key_watermarks) return;
  // Fire this key's complete windows; purging stays with OnWatermark.
  for (auto& [sk, state] : windows_) {
    const TimestampUs end = sk.first + options_.window.size;
    if (end > watermark) break;
    if (sk.second == key && !state.fired) {
      Emit(sk, &state, stream_time, /*revision=*/false);
    }
  }
}

void ReferenceWindowedAggregation::OnLateEvent(const Event& e) {
  ++stats_.events;
  for (const WindowBounds& w : AssignWindows(options_.window, e.event_time)) {
    const StateKey sk{w.start, e.key};
    auto it = windows_.find(sk);
    if (it == windows_.end()) {
      // No state: the window was purged, or no on-time tuple of this key
      // touched it. Admit the tuple while the window is open or within
      // allowed lateness.
      if (w.end > last_watermark_ ||
          (options_.allowed_lateness > 0 &&
           w.end + options_.allowed_lateness > last_watermark_)) {
        WindowState* state = GetOrCreateState(w.start, e.key);
        state->acc->Add(e.value);
        ++stats_.late_applied;
        if (w.end <= last_watermark_) {
          // Already closed: a first firing with the late data included.
          if (options_.emit_revision_per_update) {
            Emit(sk, state, e.arrival_time, /*revision=*/false);
          } else {
            state->dirty_since_fire = true;
            state->fired = true;
          }
        }
        continue;
      }
      ++stats_.late_dropped;
      continue;
    }
    WindowState* state = &it->second;
    state->acc->Add(e.value);
    ++stats_.late_applied;
    if (state->fired) {
      if (options_.emit_revision_per_update) {
        Emit(sk, state, e.arrival_time, /*revision=*/true);
      } else {
        state->dirty_since_fire = true;
      }
    }
  }
}

RunReport RunReference(const ContinuousQuery& query,
                       std::span<const Event> events, bool batched) {
  STREAMQ_CHECK_OK(query.Validate());
  CollectingResultSink results;
  ReferenceWindowedAggregation window(query.window, &results);
  std::unique_ptr<DisorderHandler> handler =
      MakeDisorderHandlerOrDie(query.handler);
  if (batched) {
    handler->OnBatch(events, &window);
  } else {
    for (const Event& e : events) handler->OnEvent(e, &window);
  }
  handler->Flush(&window);

  RunReport report;
  report.query_name = query.name;
  report.events_processed = static_cast<int64_t>(events.size());
  report.handler_stats = handler->stats();
  report.window_stats = window.stats();
  report.results_amended = report.window_stats.revisions;
  report.results = std::move(results.results);
  report.final_slack = handler->current_slack();
  return report;
}

}  // namespace reference
}  // namespace streamq
