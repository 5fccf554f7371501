// The in-process workloads: aq-burst (sequential QueryExecutor, the paper's
// operator), keyed-median (ShardedKeyedRunner, window-bound) and spec-amend
// (speculative handler on the amend store).

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/continuous_query.h"
#include "core/executor.h"
#include "core/metrics_observer.h"
#include "core/parallel_runner.h"
#include "ledger.h"
#include "measure.h"
#include "pipeline.h"
#include "quality/oracle.h"
#include "report.h"
#include "stream/generator.h"
#include "stream/source.h"

namespace perfbench {

using streamq::ContinuousQuery;
using streamq::Event;
using streamq::QueryBuilder;
using streamq::RunReport;
using streamq::WindowResult;
using streamq::WorkloadConfig;

namespace {

struct InProcSpec {
  std::string name;
  WorkloadConfig config;
  ContinuousQuery query;
  /// 0 = sequential QueryExecutor; otherwise ShardedKeyedRunner workers.
  size_t workers = 0;
};

/// Uniform values in [0.5, 1.5), the value process of the standard
/// workloads.
WorkloadConfig BaseConfig(int64_t num_events, uint64_t seed) {
  WorkloadConfig config;
  config.num_events = num_events;
  config.events_per_second = 10000.0;
  config.value.model = streamq::ValueModel::kUniform;
  config.value.a = 0.5;
  config.value.b = 1.5;
  config.seed = seed;
  return config;
}

InProcSpec AqBurstSpec(uint64_t seed) {
  InProcSpec spec;
  spec.name = "aq-burst";
  spec.config = BaseConfig(1000000, seed);
  spec.config.delay.model = streamq::DelayModel::kExponential;
  spec.config.delay.a = 10000.0;
  spec.config.dynamics.kind = streamq::DynamicsKind::kBurst;
  spec.config.dynamics.factor = 8.0;
  spec.config.dynamics.t0 = streamq::Seconds(1);
  spec.config.dynamics.period = streamq::Seconds(2);
  spec.config.dynamics.duration = streamq::Millis(400);
  spec.query = QueryBuilder("aq-burst")
                   .Tumbling(streamq::Millis(50))
                   .Aggregate("sum")
                   .QualityTarget(0.95)
                   .Build();
  return spec;
}

InProcSpec KeyedMedianSpec(uint64_t seed) {
  InProcSpec spec;
  spec.name = "keyed-median";
  spec.config = BaseConfig(1000000, seed);
  spec.config.events_per_second = 100000.0;
  spec.config.num_keys = 64;
  spec.config.key_zipf_s = 1.0;
  spec.config.delay.model = streamq::DelayModel::kExponential;
  spec.config.delay.a = 10000.0;
  spec.query = QueryBuilder("keyed-median")
                   .Sliding(streamq::Millis(200), streamq::Millis(50))
                   .Aggregate("median")
                   .FixedSlack(streamq::Millis(30))
                   .PerKey()
                   .Build();
  spec.workers = 2;
  return spec;
}

InProcSpec SpecAmendSpec(uint64_t seed) {
  InProcSpec spec;
  spec.name = "spec-amend";
  // Eight keys give enough windows for a p99 of first-emission latency.
  spec.config = BaseConfig(400000, seed);
  spec.config.num_keys = 8;
  spec.config.delay.model = streamq::DelayModel::kExponential;
  spec.config.delay.a = 20000.0;
  spec.query = QueryBuilder("spec-amend")
                   .Sliding(streamq::Millis(500), streamq::Millis(100))
                   .Aggregate("median")
                   .Speculative(0.95)
                   .WindowEngine(streamq::WindowedAggregation::Engine::kAmend)
                   .AllowedLateness(streamq::Seconds(100))
                   .Build();
  return spec;
}

void PrintSpec(const InProcSpec& spec) {
  const WorkloadConfig& c = spec.config;
  std::printf(
      "config  workload=%s events=%lld event_rate=%.0f/s keys=%lld zipf=%.2f "
      "delay=%s dynamics=%s seed=%llu\n",
      spec.name.c_str(), static_cast<long long>(c.num_events),
      c.events_per_second, static_cast<long long>(c.num_keys), c.key_zipf_s,
      c.delay.Describe().c_str(), c.dynamics.Describe().c_str(),
      static_cast<unsigned long long>(c.seed));
  std::printf("config  query=%s entry=%s loop=closed batch=%zu\n",
              spec.query.Describe().c_str(),
              spec.workers == 0
                  ? "QueryExecutor::Run"
                  : ("ShardedKeyedRunner::Run workers=" +
                     std::to_string(spec.workers))
                        .c_str(),
              kBatch);
}

/// The production entry point over `source`; `*wall_ns` times Run alone.
RunReport RunEntry(const InProcSpec& spec, streamq::EventSource* source,
                   streamq::PipelineObserver* observer, int64_t* wall_ns) {
  if (spec.workers == 0) {
    streamq::QueryExecutor executor(spec.query);
    if (observer != nullptr) executor.SetObserver(observer);
    const int64_t t0 = NowNs();
    RunReport report = executor.Run(source);
    *wall_ns = NowNs() - t0;
    return report;
  }
  streamq::ShardedKeyedRunner runner(spec.query, spec.workers);
  if (observer != nullptr) runner.SetObserver(observer);
  const int64_t t0 = NowNs();
  RunReport report = runner.Run(source);
  *wall_ns = NowNs() - t0;
  return report;
}

struct Prepared {
  std::vector<Event> events;
  std::unique_ptr<streamq::OracleEvaluator> oracle;
};

/// Set-up: input generation, oracle, then the entry point warmed on the
/// first tenth of the stream.
Prepared Setup(const InProcSpec& spec) {
  Prepared p;
  p.events = streamq::GenerateWorkload(spec.config).arrival_order;
  p.oracle = std::make_unique<streamq::OracleEvaluator>(
      p.events, spec.query.window.window, spec.query.window.aggregate);
  streamq::VectorSource warm(std::vector<Event>(
      p.events.begin(),
      p.events.begin() + static_cast<ptrdiff_t>(p.events.size() / 10)));
  int64_t wall_ns = 0;
  (void)RunEntry(spec, &warm, nullptr, &wall_ns);
  return p;
}

bool IdentityHolds(const streamq::DisorderHandlerStats& s) {
  return s.events_in == s.events_out + s.events_late + s.events_shed;
}

struct Measured {
  RunReport first;
  std::vector<double> wall_ns;
  std::vector<double> hold_us;
  std::vector<double> added_mib;  // Per run, see HeapSampler.
};

/// Repeats the entry point over the whole stream for `seconds`, and at
/// least `min_runs` times, each run on the next window of workers + 1 CPUs
/// (CpuWindow). Every run must finish OK, conserve events, and emit exactly
/// the first run's results. Each run's heap growth is measured from a
/// baseline taken just before it; the hold-time samples have room reserved
/// first, so their own growth stays out of it.
Measured MeasureEntry(const InProcSpec& spec, const Prepared& p,
                      double seconds, int min_runs, HeapSampler* heap,
                      Outcome* out) {
  Measured m;
  const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  int64_t failed = 0;
  int64_t runs = 0;
  while (runs < min_runs || NowNs() < deadline) {
    TimedSource source(&p.events, &m.hold_us, heap);
    m.hold_us.reserve(m.hold_us.size() + p.events.size() / kBatch + 2);
    heap->Reset();
    int64_t wall_ns = 0;
    RunReport report;
    {
      const CpuWindow cpus(runs, spec.workers + 1);
      report = RunEntry(spec, &source, nullptr, &wall_ns);
    }
    heap->Sample();
    m.added_mib.push_back(heap->AddedMiB());
    bool ok = report.status.ok() && IdentityHolds(report.handler_stats) &&
              report.events_processed ==
                  static_cast<int64_t>(p.events.size());
    if (runs == 0) {
      m.first = std::move(report);
    } else {
      ok = ok && report.results == m.first.results;
    }
    failed += ok ? 0 : 1;
    ++runs;
    m.wall_ns.push_back(static_cast<double>(wall_ns));
  }
  out->CheckMany(runs, failed,
                 "entry-point runs: status OK, in == out + late + shed, "
                 "results identical across runs");
  return m;
}

/// The stream each shard of a ShardedKeyedRunner receives: per source batch
/// of kBatch events, the subsequence whose key hashes to the shard.
std::vector<BatchedStream> RouteShards(const std::vector<Event>& events,
                                       size_t shards) {
  std::vector<BatchedStream> out(shards);
  for (size_t begin = 0; begin < events.size(); begin += kBatch) {
    const size_t end = std::min(events.size(), begin + kBatch);
    for (size_t i = begin; i < end; ++i) {
      out[streamq::ShardedKeyedRunner::ShardOf(events[i].key, shards)]
          .events.push_back(events[i]);
    }
    for (BatchedStream& s : out) {
      if (!s.events.empty() &&
          (s.ends.empty() || s.ends.back() != s.events.size())) {
        s.ends.push_back(s.events.size());
      }
    }
  }
  return out;
}

/// The query each shard runs: the runner forces per-key watermarks.
ContinuousQuery ShardQuery(const InProcSpec& spec) {
  ContinuousQuery q = spec.query;
  if (spec.workers > 0) q.window.per_key_watermarks = true;
  return q;
}

bool FinalsMatchOracle(const std::vector<WindowResult>& results,
                       const streamq::OracleEvaluator& oracle) {
  std::map<std::pair<int64_t, int64_t>, const WindowResult*> last;
  for (const WindowResult& r : results) {
    const WindowResult*& slot = last[{r.bounds.start, r.key}];
    if (slot == nullptr || r.revision_index >= slot->revision_index) {
      slot = &r;
    }
  }
  if (last.size() != oracle.results().size()) return false;
  for (const WindowResult& o : oracle.results()) {
    auto it = last.find({o.bounds.start, o.key});
    if (it == last.end() || it->second->value != o.value ||
        it->second->tuple_count != o.tuple_count ||
        !(it->second->bounds == o.bounds)) {
      return false;
    }
  }
  return true;
}

/// Wall time of one call of `fn`.
template <typename Fn>
double WallNs(Fn&& fn) {
  const int64_t t0 = NowNs();
  fn();
  return static_cast<double>(NowNs() - t0);
}

/// Wall time of the entry point's Run over the whole stream.
double EntryWallNs(const InProcSpec& spec, const Prepared& p,
                   streamq::PipelineObserver* observer) {
  streamq::VectorSource source(p.events);
  int64_t wall_ns = 0;
  (void)RunEntry(spec, &source, observer, &wall_ns);
  return static_cast<double>(wall_ns);
}

/// Per-layer attribution. Each round times back to back on the round's
/// CPUs, so that all of them see the same machine state: the entry point
/// untraced, with a
/// MetricsObserver, and (sharded) a single-threaded executor over the same
/// job; then every shard's recorded input replayed alone through the
/// pipeline, untraced and traced (a sequential entry point is one shard
/// over the whole stream). Medians over the rounds.
void TraceLayers(const InProcSpec& spec, const Prepared& p,
                 const RunReport& first, double seconds, const RunArgs& args,
                 Outcome* out) {
  const double n = static_cast<double>(p.events.size());
  const ContinuousQuery query = ShardQuery(spec);
  const std::vector<BatchedStream> shards =
      spec.workers == 0
          ? std::vector<BatchedStream>{BatchedStream::Regular(p.events,
                                                              kBatch)}
          : RouteShards(p.events, spec.workers);
  const size_t num_shards = shards.size();

  Tracer tracer;
  const LayerIds ids = LayerIds::Intern(&tracer);
  const size_t names = tracer.num_names();
  std::vector<double> e2e_wall;
  std::vector<double> observed_wall;
  std::vector<double> seq_wall;
  std::vector<double> untraced_wall;  // Shard replays, summed.
  std::vector<double> traced_wall;
  std::vector<std::vector<double>> shard_wall(num_shards);
  // self_ns[shard][layer][round].
  std::vector<std::vector<std::vector<double>>> self_ns(
      num_shards, std::vector<std::vector<double>>(names));
  int64_t release_calls = 0;
  int64_t watermarks = 0;
  int64_t results = 0;
  bool identical = true;
  const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  for (int round = 0; round < 3 || NowNs() < deadline; ++round) {
    {
      const CpuWindow cpus(round, spec.workers + 1);
      e2e_wall.push_back(EntryWallNs(spec, p, nullptr));
      streamq::MetricsObserver observer;
      observed_wall.push_back(EntryWallNs(spec, p, &observer));
    }
    const CpuWindow cpu(round, 1);
    if (spec.workers > 0) {
      streamq::QueryExecutor executor(query);
      streamq::VectorSource source(p.events);
      seq_wall.push_back(WallNs([&] { (void)executor.Run(&source); }));
    }
    double untraced = 0.0;
    double traced = 0.0;
    std::vector<WindowResult> merged;
    for (size_t s = 0; s < num_shards; ++s) {
      const double wall = WallNs(
          [&] { (void)RunPipeline(query, shards[s], nullptr, nullptr); });
      shard_wall[s].push_back(wall);
      untraced += wall;
      tracer.Clear();
      const PipelineRun run = RunPipeline(query, shards[s], &tracer, &ids);
      traced += static_cast<double>(run.wall_ns);
      const std::vector<int64_t> totals =
          SelfTimeByName(tracer.spans(), names);
      for (size_t l = 0; l < names; ++l) {
        self_ns[s][l].push_back(static_cast<double>(totals[l]));
      }
      if (round == 0) {
        release_calls += run.release_calls;
        watermarks += run.watermarks;
        results += static_cast<int64_t>(run.results.size());
        merged.insert(merged.end(), run.results.begin(), run.results.end());
        const std::string path =
            args.out_dir + "/" + spec.name +
            (num_shards > 1 ? ".shard" + std::to_string(s) : "") +
            ".spans.csv";
        if (!WriteSpans(path, tracer, 200000)) {
          std::printf("note    could not write %s\n", path.c_str());
        }
      }
    }
    untraced_wall.push_back(untraced);
    traced_wall.push_back(traced);
    if (round == 0) {
      std::vector<WindowResult> expected = first.results;
      if (num_shards > 1) {
        SortResults(&merged);
        SortResults(&expected);
      }
      identical = merged == expected;
    }
  }
  out->Check(identical,
             "traced replay results byte-identical to the untraced run's");

  const double e2e = Median(e2e_wall);
  const double e2e_ns = e2e / n;
  std::vector<double> shard_median(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    shard_median[s] = Median(shard_wall[s]);
  }
  const size_t critical = static_cast<size_t>(
      std::max_element(shard_median.begin(), shard_median.end()) -
      shard_median.begin());
  double shard_sum = 0.0;
  for (double w : shard_median) shard_sum += w;
  auto layer = [&](uint32_t id) {
    double sum = 0.0;
    for (size_t s = 0; s < num_shards; ++s) sum += Median(self_ns[s][id]);
    return sum;
  };
  double critical_sum = 0.0;
  for (size_t l = 0; l < names; ++l) {
    critical_sum += Median(self_ns[critical][l]);
  }

  Layers l;
  l.source_ns_per_event = layer(ids.source) / n;
  l.disorder_self_ns_per_event = layer(ids.disorder) / n;
  l.fold_ns_per_event = layer(ids.fold) / n;
  l.late_ns_per_event = layer(ids.late) / n;
  l.fire_ns_per_watermark =
      watermarks > 0 ? layer(ids.fire) / static_cast<double>(watermarks) : 0;
  l.sink_ns_per_result =
      results > 0 ? layer(ids.sink) / static_cast<double>(results) : 0;
  l.release_calls_per_kevent = 1000.0 * static_cast<double>(release_calls) / n;
  l.watermarks = static_cast<double>(watermarks);
  const streamq::DisorderHandlerStats& hs = first.handler_stats;
  l.late_frac = hs.events_in > 0 ? static_cast<double>(hs.events_late) /
                                       static_cast<double>(hs.events_in)
                                 : 0.0;
  l.buffering_latency_mean_ms = hs.buffering_latency_us.mean() / 1e3;
  l.buffer_max = static_cast<double>(hs.max_buffer_size);
  const streamq::WindowedAggregation::Stats& ws = first.window_stats;
  l.revisions_per_window =
      ws.windows_fired > 0 ? static_cast<double>(ws.revisions) /
                                 static_cast<double>(ws.windows_fired)
                           : 0.0;
  l.max_live_windows = static_cast<double>(ws.max_live_windows);
  l.critical_shard_ns_per_event = shard_median[critical] / n;
  l.shard_skew =
      shard_median[critical] / (shard_sum / static_cast<double>(num_shards));
  l.runtime_overhead_ns_per_event = e2e_ns - l.critical_shard_ns_per_event;
  l.residual_ns_per_event = e2e_ns - critical_sum / n;
  l.session_ns_per_event = e2e_ns;
  l.metrics_observer_ns_per_event = (Median(observed_wall) - e2e) / n;
  if (spec.workers > 0) l.speedup_vs_seq = Median(seq_wall) / e2e;
  l.trace_overhead_pct =
      100.0 * (Median(traced_wall) / Median(untraced_wall) - 1.0);

  const CodecCost codec = MeasureCodec(p.events);
  out->Check(codec.round_trip_ok, "frame codec round trip of the stream");
  l.encode_ns_per_event = codec.encode_ns_per_event;
  l.decode_ns_per_event = codec.decode_ns_per_event;
  l.bytes_per_event = codec.bytes_per_event;
  l.queue_hop_ns_per_batch = MeasureQueueHopNsPerBatch();
  out->Check(l.queue_hop_ns_per_batch > 0, "SpscQueue hop delivered every batch");

  std::printf("ledger  e2e %.1f ns/event (untraced, median of %zu runs); "
              "%zu shard(s), critical shard %zu\n",
              e2e_ns, e2e_wall.size(), num_shards, critical);
  PrintLayerLine("stream.source", l.source_ns_per_event, e2e_ns);
  PrintLayerLine("disorder (self)", l.disorder_self_ns_per_event, e2e_ns);
  PrintLayerLine("window.fold", l.fold_ns_per_event, e2e_ns);
  PrintLayerLine("window.fire", layer(ids.fire) / n, e2e_ns);
  PrintLayerLine("window.late", l.late_ns_per_event, e2e_ns);
  PrintLayerLine("sink", layer(ids.sink) / n, e2e_ns);
  double sum = 0.0;
  for (uint32_t i = 0; i < names; ++i) sum += layer(i);
  std::printf("ledger  layer sum %.1f ns/event (all shards) | critical shard "
              "layer sum %.1f | e2e %.1f | residual %.1f ns/event\n",
              sum / n, critical_sum / n, e2e_ns, l.residual_ns_per_event);
  std::printf("ledger  critical shard alone %.1f ns/event, skew %.3f, "
              "runtime overhead %.1f ns/event, speedup vs sequential %.3fx\n",
              l.critical_shard_ns_per_event, l.shard_skew,
              l.runtime_overhead_ns_per_event, l.speedup_vs_seq);
  std::printf("ledger  metrics observer +%.1f ns/event; codec encode %.1f "
              "decode %.1f ns/event; queue hop %.1f ns/batch; trace overhead "
              "%.1f%%\n",
              l.metrics_observer_ns_per_event, l.encode_ns_per_event,
              l.decode_ns_per_event, l.queue_hop_ns_per_batch,
              l.trace_overhead_pct);
  AddLayers(l, out);
}

void RunInProc(const InProcSpec& spec, const RunArgs& args, Outcome* out) {
  PrintSpec(spec);
  HeapSampler heap;
  Prepared p;
  std::vector<double> setup_s;
  const int setups = args.trace ? 1 : kSetupRepeats;
  for (int i = 0; i < setups; ++i) {
    p = Prepared{};
    const int64_t t0 = NowNs();
    p = Setup(spec);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }

  // A traced run needs one untraced run only for its checks and results;
  // its time goes to the paired rounds of TraceLayers.
  const Measured m = args.trace ? MeasureEntry(spec, p, 0.0, 1, &heap, out)
                                : MeasureEntry(spec, p, args.seconds, 3, &heap,
                                               out);
  const double n = static_cast<double>(p.events.size());

  if (spec.workers > 0) {
    // Sharding may not change any window's first emission.
    streamq::QueryExecutor executor(ShardQuery(spec));
    streamq::VectorSource source(p.events);
    const RunReport seq = executor.Run(&source);
    out->Check(FirstEmissions(seq.results) == FirstEmissions(m.first.results),
               "first emissions equal a sequential per-key-watermark run");
  }
  if (spec.query.window.allowed_lateness > 0) {
    out->Check(FinalsMatchOracle(m.first.results, *p.oracle),
               "final revisions equal the oracle exactly");
  }

  EndToEnd e2e;
  std::vector<double> eps;
  for (double w : m.wall_ns) eps.push_back(n / (w / 1e9));
  e2e.throughput_eps = Median(eps);
  e2e.quality = ScoreQuality(m.first.results, *p.oracle);
  e2e.ingest_latency_p50_us = Quantile(m.hold_us, 0.50);
  e2e.setup_s = Median(setup_s);
  e2e.peak_heap_mb = Median(m.added_mib);
  std::printf("run     %zu entry-point runs, %lld events each, %lld results, "
              "late %lld, amended %lld\n",
              m.wall_ns.size(), static_cast<long long>(p.events.size()),
              static_cast<long long>(m.first.results.size()),
              static_cast<long long>(m.first.handler_stats.events_late),
              static_cast<long long>(m.first.results_amended));
  std::printf("memory  added MiB per run:");
  for (double v : m.added_mib) std::printf(" %.2f", v);
  std::printf("\n");

  if (args.trace) {
    TraceLayers(spec, p, m.first, args.seconds * 0.8, args, out);
    return;
  }
  CheckPercentileSupport("result_latency", e2e.quality.windows, 99.0, out);
  CheckPercentileSupport("ingest_latency", m.hold_us.size(), 99.0, out);
  AddEndToEnd(e2e, out);
}

}  // namespace

void RunAqBurst(const RunArgs& args, Outcome* out) {
  RunInProc(AqBurstSpec(args.seed), args, out);
}

void RunKeyedMedian(const RunArgs& args, Outcome* out) {
  RunInProc(KeyedMedianSpec(args.seed), args, out);
}

void RunSpecAmend(const RunArgs& args, Outcome* out) {
  RunInProc(SpecAmendSpec(args.seed), args, out);
}

}  // namespace perfbench
