#include "window/window_operator.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"
#include "common/stats.h"

namespace streamq {

namespace {

/// The value run of a pane slot (pane-run mode: every heavy slot holds a
/// QuantileAggregator).
QuantileAggregator& RunOf(const FlatWindowStore::Slot& slot) {
  return static_cast<QuantileAggregator&>(*slot.acc);
}

}  // namespace

WindowedAggregation::WindowedAggregation(const Options& options,
                                         WindowResultSink* sink)
    : options_(options), sink_(sink), agg_spec_(options.aggregate) {
  STREAMQ_CHECK(sink != nullptr);
  STREAMQ_CHECK_OK(options.window.Validate());
  STREAMQ_CHECK_OK(options.aggregate.Validate());
  STREAMQ_CHECK_GE(options.allowed_lateness, 0);

  if (options_.engine == Engine::kAmend) {
    amend_store_ = std::make_unique<AmendWindowStore>(options_.window.slide);
  } else {
    store_ = std::make_unique<FlatWindowStore>(options_.window.slide);
  }
  inline_kind_ = IsInlineAggKind(agg_spec_.kind);
  // Pane sharing folds each same-(pane, key) run once and merges the
  // partial into every covering window: correct for any window family, but
  // only profitable when windows overlap, and only byte-identical to the
  // per-tuple path for grouping-exact kinds. Gate on exactly-tiling
  // sliding windows and bit-exact merges.
  const WindowSpec& w = options_.window;
  const bool tiling_sliding = w.slide < w.size && w.size % w.slide == 0;
  pane_active_ =
      inline_kind_ && tiling_sliding && PaneMergeIsExact(agg_spec_.kind);
  // Order statistics need no merge: a window reads the sorted runs of its
  // panes in place, so each value is stored and sorted once.
  pane_runs_ = (agg_spec_.kind == AggKind::kMedian ||
                agg_spec_.kind == AggKind::kQuantile) &&
               w.size % w.slide == 0;
  run_q_ = agg_spec_.kind == AggKind::kMedian ? 0.5 : agg_spec_.quantile_q;
  if (options_.engine == Engine::kAmend) {
    BindEngine<AmendWindowStore>();
  } else {
    BindEngine<FlatWindowStore>();
  }
}

template <class Store>
void WindowedAggregation::BindEngine() {
  wm_fn_ = &WindowedAggregation::HotOnWatermark<Store>;
  kwm_fn_ = &WindowedAggregation::HotOnKeyedWatermark<Store>;
  late_fn_ = &WindowedAggregation::HotOnLateEvent<Store>;
  switch (agg_spec_.kind) {
    case AggKind::kCount:
      BindHotFns<AggKind::kCount, Store>();
      break;
    case AggKind::kSum:
      BindHotFns<AggKind::kSum, Store>();
      break;
    case AggKind::kMean:
      BindHotFns<AggKind::kMean, Store>();
      break;
    case AggKind::kMin:
      BindHotFns<AggKind::kMin, Store>();
      break;
    case AggKind::kMax:
      BindHotFns<AggKind::kMax, Store>();
      break;
    case AggKind::kVariance:
      BindHotFns<AggKind::kVariance, Store>();
      break;
    case AggKind::kStdDev:
      BindHotFns<AggKind::kStdDev, Store>();
      break;
    default:
      if (pane_runs_) {
        one_fn_ = &WindowedAggregation::FoldEventRun<Store>;
        batch_fn_ = &WindowedAggregation::FoldBatchRun<Store>;
      } else {
        one_fn_ = &WindowedAggregation::FoldEventHeavy<Store>;
        batch_fn_ = &WindowedAggregation::FoldBatchHeavy<Store>;
      }
      break;
  }
}

template <AggKind K, class Store>
void WindowedAggregation::BindHotFns() {
  one_fn_ = &WindowedAggregation::FoldEventHot<K, Store>;
  batch_fn_ = pane_active_ ? &WindowedAggregation::FoldBatchPaned<K, Store>
                           : &WindowedAggregation::FoldBatchHot<K, Store>;
}

// ---------------------------------------------------------------------------
// Inline states in a flat (kHot) or finger-B-tree (kAmend) store, fold-plan
// memo, pane-shared batch folding. Result- and stat-equivalent to the
// std::map reference in tests/reference/ (aggregation_equivalence_test and
// amend_equivalence_test pin this byte-for-byte).
// ---------------------------------------------------------------------------

template <class Store>
WindowedAggregation::Slot* WindowedAggregation::GetOrCreateSlot(
    Store* store, TimestampUs window_start, int64_t key) {
  bool created = false;
  Slot* s = store->GetOrCreate(window_start, key, &created);
  if (created) {
    if (!inline_kind_) s->acc = MakeAggregator(agg_spec_);
    // A keyed OnEvent may land behind the merged watermark: the new slot
    // is unfired, so pull the fire frontier below its window.
    const TimestampUs end = window_start + options_.window.size;
    if (end <= fired_through_) fired_through_ = end - 1;
    stats_.max_live_windows = std::max(stats_.max_live_windows,
                                       static_cast<int64_t>(store->size()));
  }
  return s;
}

template <class Store>
void WindowedAggregation::RebuildPlan(FoldPlan& plan, Store* store,
                                      TimestampUs ts, int64_t key) {
  const DurationUs size = options_.window.size;
  const DurationUs slide = options_.window.slide;
  const int64_t q_last = window_internal::FloorDiv(ts, slide);
  const int64_t q_first = window_internal::FloorDiv(ts - size, slide) + 1;
  // The covering set {q_first..q_last} is constant while both quotients
  // are: intersect the two preimage intervals. For sampling gaps
  // (q_first > q_last) this yields the gap itself and num == 0.
  plan.valid_begin = std::max(q_last * slide, (q_first - 1) * slide + size);
  plan.valid_end = std::min((q_last + 1) * slide, q_first * slide + size);
  plan.key = key;
  const int64_t num = q_last - q_first + 1;
  if (num > FoldPlan::kMaxWindows) {
    // Extreme size/slide fanout: fold via ForEachWindow, no slot memo (and
    // so no epoch dependency).
    plan.num = FoldPlan::kOversized;
    return;
  }
  plan.num = static_cast<int>(std::max<int64_t>(num, 0));
  for (int i = 0; i < plan.num; ++i) {
    plan.slots[i] = GetOrCreateSlot(store, (q_first + i) * slide, key);
  }
  plan.epoch = store->epoch();  // After creation-driven bumps.
}

template <class Store>
WindowedAggregation::FoldPlan& WindowedAggregation::PlanOf(Store* store,
                                                           const Event& e) {
  FoldPlan& plan = plans_[PlanWayOf(e.key)];
  if (!PlanHits(plan, e, store->epoch())) {
    RebuildPlan(plan, store, e.event_time, e.key);
  }
  return plan;
}

template <AggKind K, class Store>
void WindowedAggregation::FoldEventHot(const Event& e) {
  Store* store = GetStore<Store>();
  ++stats_.events;
  const FoldPlan& plan = PlanOf(store, e);
  if (plan.num >= 0) {
    for (int i = 0; i < plan.num; ++i) {
      InlineFold<K>(plan.slots[i]->state, e.value);
    }
    return;
  }
  ForEachWindow(options_.window, e.event_time,
                [this, store, &e](const WindowBounds& w) {
                  InlineFold<K>(GetOrCreateSlot(store, w.start, e.key)->state,
                                e.value);
                });
}

template <AggKind K, class Store>
void WindowedAggregation::FoldBatchHot(std::span<const Event> events) {
  for (const Event& e : events) FoldEventHot<K, Store>(e);
}

template <AggKind K, class Store>
void WindowedAggregation::FoldBatchPaned(std::span<const Event> events) {
  Store* store = GetStore<Store>();
  // Fold each maximal run of events sharing one covering-window set (same
  // pane, same key) into a single partial, then merge the partial into the
  // size/slide covering windows once — one fold per tuple plus one merge
  // per (run, window) instead of one fold per (tuple, window).
  size_t i = 0;
  while (i < events.size()) {
    const Event& head = events[i];
    ++stats_.events;
    const FoldPlan& plan = PlanOf(store, head);
    if (plan.num < 0) {  // Oversized fanout: per-tuple fallback.
      ForEachWindow(options_.window, head.event_time,
                    [this, store, &head](const WindowBounds& w) {
                      InlineFold<K>(
                          GetOrCreateSlot(store, w.start, head.key)->state,
                          head.value);
                    });
      ++i;
      continue;
    }
    AggregateState partial;
    InlineFold<K>(partial, head.value);
    size_t j = i + 1;
    // No store mutation inside the run, so the plan stays valid; PlanHits
    // is interval + key only from here.
    while (j < events.size() && events[j].key == plan.key &&
           events[j].event_time >= plan.valid_begin &&
           events[j].event_time < plan.valid_end) {
      InlineFold<K>(partial, events[j].value);
      ++stats_.events;
      ++j;
    }
    for (int k = 0; k < plan.num; ++k) {
      InlineMerge<K>(plan.slots[k]->state, partial);
    }
    i = j;
  }
}

template <class Store>
void WindowedAggregation::FoldEventHeavy(const Event& e) {
  Store* store = GetStore<Store>();
  ++stats_.events;
  const FoldPlan& plan = PlanOf(store, e);
  if (plan.num >= 0) {
    for (int i = 0; i < plan.num; ++i) plan.slots[i]->acc->Add(e.value);
    return;
  }
  ForEachWindow(options_.window, e.event_time,
                [this, store, &e](const WindowBounds& w) {
                  GetOrCreateSlot(store, w.start, e.key)->acc->Add(e.value);
                });
}

template <class Store>
void WindowedAggregation::FoldBatchHeavy(std::span<const Event> events) {
  for (const Event& e : events) FoldEventHeavy<Store>(e);
}

template <class Store>
void WindowedAggregation::FoldEventRun(const Event& e) {
  Store* store = GetStore<Store>();
  ++stats_.events;
  const FoldPlan& plan = PlanOf(store, e);
  // Every covering window gets its slot, as on the other paths; the value
  // goes into the last one only, the slot of the pane holding e. On a plan
  // hit that is the only slot touched.
  Slot* pane = nullptr;
  if (plan.num >= 0) {
    pane = plan.slots[plan.num - 1];  // Tiling: num == size/slide >= 1.
  } else {
    ForEachWindow(options_.window, e.event_time,
                  [this, store, &e, &pane](const WindowBounds& w) {
                    pane = GetOrCreateSlot(store, w.start, e.key);
                  });
  }
  RunOf(*pane).Add(e.value);
}

template <class Store>
void WindowedAggregation::FoldBatchRun(std::span<const Event> events) {
  for (const Event& e : events) FoldEventRun<Store>(e);
}

void WindowedAggregation::FoldValueDyn(Slot& slot, double v) {
  if (inline_kind_) {
    InlineFoldDyn(agg_spec_.kind, slot.state, v);
  } else {
    slot.acc->Add(v);
  }
}

template <class Store>
int64_t WindowedAggregation::GatherRuns(Store* store, TimestampUs window_start,
                                        const Slot& slot) {
  runs_.clear();
  int64_t total = 0;
  const TimestampUs end = window_start + options_.window.size;
  for (TimestampUs p = window_start; p < end; p += options_.window.slide) {
    // A later pane without a slot holds no values of this key: its slot,
    // once created, retires after this window's.
    const Slot* s = p == window_start ? &slot : store->Find(p, slot.key);
    if (s == nullptr) continue;
    const std::span<const double> run = RunOf(*s).Sorted();
    total += static_cast<int64_t>(run.size());
    runs_.push_back(run);
  }
  return total;
}

template <class Store>
void WindowedAggregation::EmitSlot(Store* store, TimestampUs window_start,
                                   Slot& slot, TimestampUs now, bool revision) {
  WindowResult r;
  r.bounds = WindowBounds{window_start, window_start + options_.window.size};
  r.key = slot.key;
  if (inline_kind_) {
    r.value = InlineValueDyn(agg_spec_.kind, slot.state);
    r.tuple_count = slot.state.n;
  } else if (pane_runs_) {
    r.tuple_count = GatherRuns(store, window_start, slot);
    // Selection starts from the value this window selected last. A
    // revision follows one late value, so its answer is a step or two away.
    QuantileAggregator& own = RunOf(slot);
    r.value = r.tuple_count == 0
                  ? std::numeric_limits<double>::quiet_NaN()
                  : InterpolateRuns(runs_, run_q_, own.selection_hint());
    own.set_selection_hint(r.value);
  } else {
    r.value = slot.acc->Value();
    r.tuple_count = slot.acc->count();
  }
  r.emit_stream_time = now;
  r.is_revision = revision;
  r.revision_index = revision ? ++slot.revisions : 0;
  slot.fired = true;
  slot.dirty_since_fire = false;
  if (revision) {
    ++stats_.revisions;
  } else {
    ++stats_.windows_fired;
  }
  sink_->OnResult(r);
  if (observer_ != nullptr) {
    observer_->OnWindowFired(r);
    if (revision) observer_->OnAmend(r);
  }
}

TimestampUs WindowedAggregation::FirstUnfiredStart() const {
  // Windows ending after the frontier start after fired_through_ - size.
  const DurationUs size = options_.window.size;
  return fired_through_ < kMinTimestamp + size ? kMinTimestamp
                                               : fired_through_ - size + 1;
}

template <class Store>
void WindowedAggregation::HotOnWatermark(TimestampUs watermark,
                                         TimestampUs stream_time) {
  Store* store = GetStore<Store>();
  // The fold plans need no reset: each purge below bumps the store epoch.
  // Buckets ascend by start and SortedByKey ascends by key: results leave
  // in (start, key) order. `live` tracks the post-erase store size each
  // purge notification reports.
  size_t live = store->size();
  bool behind_frontier = false;
  auto visit = [&](typename Store::Bucket& b) {
    const TimestampUs end = b.start() + options_.window.size;
    const bool can_fire = end <= watermark;
    const TimestampUs retire_at =
        (end > kMaxTimestamp - options_.allowed_lateness)
            ? kMaxTimestamp
            : end + options_.allowed_lateness;
    const bool purge = retire_at <= watermark || watermark == kMaxTimestamp;
    if (!can_fire && !purge) {
      // end > watermark and nothing retires: monotone in start, stop.
      return Store::Visit::kStop;
    }
    if (!purge && end <= fired_through_) {
      // Purging is monotone in start too, so the purge prefix is done and
      // every bucket up to the frontier has fired: nothing to do there.
      behind_frontier = true;
      return Store::Visit::kStop;
    }
    for (uint32_t idx : b.SortedByKey()) {
      Slot& s = b.slot(idx);
      if (can_fire && !s.fired) {
        EmitSlot(store, b.start(), s, stream_time, /*revision=*/false);
      }
      if (purge) {
        if (s.fired && s.dirty_since_fire) {
          // Batch-refinement mode: flush pending amendments as one revision.
          EmitSlot(store, b.start(), s, stream_time, /*revision=*/true);
        } else if (!s.fired) {
          // Terminal-watermark purge of a window that never saw its end
          // watermark; fire it now.
          EmitSlot(store, b.start(), s, stream_time, /*revision=*/false);
        }
        --live;
        if (observer_ != nullptr) observer_->OnWindowPurged(end, live);
      }
    }
    return purge ? Store::Visit::kPurge : Store::Visit::kKeep;
  };
  // With allowed lateness 0 every fired bucket retires, the frontier check
  // never trips, and this is the only pass.
  store->Scan(kMinTimestamp, visit);
  if (behind_frontier) store->Scan(FirstUnfiredStart(), visit);
  fired_through_ = watermark;
}

template <class Store>
void WindowedAggregation::HotOnKeyedWatermark(int64_t key,
                                              TimestampUs watermark,
                                              TimestampUs stream_time) {
  Store* store = GetStore<Store>();
  store->Scan(FirstUnfiredStart(), [&](typename Store::Bucket& b) {
    const TimestampUs end = b.start() + options_.window.size;
    if (end > watermark) return Store::Visit::kStop;
    Slot* s = b.Find(key);
    if (s != nullptr && !s->fired) {
      EmitSlot(store, b.start(), *s, stream_time, /*revision=*/false);
    }
    return Store::Visit::kKeep;
  });
}

template <class Store>
void WindowedAggregation::HotOnLateEvent(const Event& e) {
  Store* store = GetStore<Store>();
  const DurationUs lateness = options_.allowed_lateness;
  auto accepts = [this, lateness](TimestampUs end) {
    return end > last_watermark_ ||
           (lateness > 0 && end + lateness > last_watermark_);
  };
  // Pane runs: the value goes once into its pane's slot, before any
  // covering window reads it. That slot is window p's, the last covering
  // window to retire: if it is gone and window p no longer accepts the
  // value, no covering window does. A slot created here counts as fresh
  // below, like any window a late tuple creates.
  TimestampUs pane_start = 0;
  bool pane_created = false;
  if (pane_runs_) {
    pane_start = window_internal::FloorDiv(e.event_time,
                                           options_.window.slide) *
                 options_.window.slide;
    Slot* pane = store->Find(pane_start, e.key);
    if (pane == nullptr && accepts(pane_start + options_.window.size)) {
      pane = GetOrCreateSlot(store, pane_start, e.key);
      pane_created = true;
    }
    if (pane != nullptr) RunOf(*pane).Add(e.value);
  }
  ForEachWindow(options_.window, e.event_time, [&](const WindowBounds& w) {
    Slot* s = store->Find(w.start, e.key);
    const bool fresh = s == nullptr || (pane_created && w.start == pane_start);
    if (s == nullptr) {
      if (!accepts(w.end)) {
        ++stats_.late_dropped;
        if (observer_ != nullptr) observer_->OnWindowLateDropped(e);
        return;
      }
      s = GetOrCreateSlot(store, w.start, e.key);
    }
    if (!pane_runs_) FoldValueDyn(*s, e.value);
    ++stats_.late_applied;
    if (fresh) {
      if (w.end <= last_watermark_) {
        // Already closed: a first firing with the late value included.
        if (options_.emit_revision_per_update) {
          EmitSlot(store, w.start, *s, e.arrival_time, /*revision=*/false);
        } else {
          s->dirty_since_fire = true;
          s->fired = true;
        }
      }
      return;
    }
    if (s->fired) {
      if (options_.emit_revision_per_update) {
        EmitSlot(store, w.start, *s, e.arrival_time, /*revision=*/true);
      } else {
        s->dirty_since_fire = true;
      }
    }
  });
}

// ---------------------------------------------------------------------------
// EventSink entry points: one indirect call into the bound engine.
// ---------------------------------------------------------------------------

void WindowedAggregation::OnEvent(const Event& e) { (this->*one_fn_)(e); }

void WindowedAggregation::OnEvents(std::span<const Event> events) {
  (this->*batch_fn_)(events);
}

void WindowedAggregation::OnWatermark(TimestampUs watermark,
                                      TimestampUs stream_time) {
  if (watermark <= last_watermark_) return;
  last_watermark_ = watermark;
  (this->*wm_fn_)(watermark, stream_time);
}

void WindowedAggregation::OnKeyedWatermark(int64_t key, TimestampUs watermark,
                                           TimestampUs stream_time) {
  if (!options_.per_key_watermarks) return;
  (this->*kwm_fn_)(key, watermark, stream_time);
}

void WindowedAggregation::OnLateEvent(const Event& e) {
  ++stats_.events;
  (this->*late_fn_)(e);
}

}  // namespace streamq
