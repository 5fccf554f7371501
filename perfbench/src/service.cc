// The service workload: an in-process StreamQServer on loopback driven by
// the benchmark's own clients, one single-writer tenant per client and phase.
// An open loop at a fixed rate well below capacity gives ingest latency; a
// closed loop gives throughput. Every tenant's sealed report is checked
// against an in-process StreamSession run of the same frames.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/metrics_observer.h"
#include "core/session_options.h"
#include "core/stream_session.h"
#include "ledger.h"
#include "measure.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/server.h"
#include "pipeline.h"
#include "quality/oracle.h"
#include "quality/quality_metrics.h"
#include "report.h"
#include "stream/generator.h"

namespace perfbench {

using streamq::Event;
using streamq::RunReport;
using streamq::SessionOptions;
using streamq::SnapshotStats;
using streamq::StreamQClient;

namespace {

constexpr int kClients = 2;
/// Open-loop rate: well below the closed-loop capacity of one client (1.7M
/// to 2.6M events/s on one CPU of a 4-core x86 VM).
constexpr double kOpenRateEps = 400000.0;
/// Both phases run in segments, one client at a time, segment k with the
/// whole process (that client, the server's threads) confined to the k-th
/// CPU (CpuWindow): a client and the server thread serving it take turns,
/// so one CPU runs both, and successive segments sample every CPU. On a
/// shared host one virtual CPU runs 1.7M or 2.5M events/s closed loop for
/// seconds at a time, as its physical core is shared or not, and a host
/// stall can hold up every frame for milliseconds. So the metrics are taken
/// over segments: ingest latency as the median of each segment's median,
/// which a minority of stalled segments does not move, and throughput as
/// the mean of the middle half of segments, which moves gradually as the
/// share of fast segments changes from run to run (a median jumps between
/// the modes when that share nears one half). The open-loop tail is only
/// printed: in busy hours stalls reach most segments, and its p90 spread
/// 0.45 to 1.0 over ten seeds even as a median over segments.
constexpr double kOpenSegmentS = 0.25;
constexpr double kClosedSegmentS = 0.25;
/// Frames in each client's closed-loop base stream (cycled in laps).
constexpr int64_t kClosedBaseFrames = 256;
constexpr int64_t kWarmupFrames = 100;
/// Event-time rate, keys and disorder of every tenant stream. A session
/// keeps every result until it is sealed, so the event-time rate sets how
/// fast that vector grows per ingested event (and how long its reallocations
/// stall ingest).
constexpr double kTenantEps = 100000.0;
constexpr int64_t kTenantKeys = 64;
constexpr double kDisorderMs = 5.0;

uint32_t OpenTenant(int c) { return static_cast<uint32_t>(1 + c); }
uint32_t ClosedTenant(int c) { return static_cast<uint32_t>(1 + kClients + c); }

streamq::WorkloadConfig TenantConfig(uint64_t seed, int stream,
                                     int64_t events) {
  streamq::WorkloadConfig config;
  config.num_events = events;
  config.events_per_second = kTenantEps;
  config.num_keys = kTenantKeys;
  config.delay.model = streamq::DelayModel::kExponential;
  config.delay.a = kDisorderMs * 1000.0;
  config.seed = seed ^ (static_cast<uint64_t>(stream + 1) *
                        0x9e3779b97f4a7c15ULL);
  return config;
}

SessionOptions TenantOptions(uint32_t tenant) {
  SessionOptions options;
  options.Name("tenant-" + std::to_string(tenant));
  return options;
}

/// A base stream cut into kBatch-event frames and cycled in laps, each lap
/// shifted forward in event and arrival time so the stream never rewinds.
class LapStream {
 public:
  explicit LapStream(std::vector<Event> base) : base_(std::move(base)) {
    for (const Event& e : base_) span_ = std::max(span_, e.arrival_time);
    span_ += streamq::Millis(1);
    frames_per_lap_ =
        (static_cast<int64_t>(base_.size()) + kBatch - 1) / kBatch;
  }

  /// Frame i (0-based, any lap), written into `*out`.
  void Frame(int64_t i, std::vector<Event>* out) const {
    const int64_t lap = i / frames_per_lap_;
    const size_t begin = static_cast<size_t>(i % frames_per_lap_) * kBatch;
    const size_t end = std::min(base_.size(), begin + kBatch);
    out->assign(base_.begin() + static_cast<ptrdiff_t>(begin),
                base_.begin() + static_cast<ptrdiff_t>(end));
    if (lap == 0) return;
    const int64_t id_shift = lap * static_cast<int64_t>(base_.size());
    for (Event& e : *out) {
      e.id += id_shift;
      e.event_time += lap * span_;
      e.arrival_time += lap * span_;
    }
  }

  /// Frames [0, frames) concatenated.
  std::vector<Event> Prefix(int64_t frames) const {
    std::vector<Event> all;
    std::vector<Event> frame;
    for (int64_t i = 0; i < frames; ++i) {
      Frame(i, &frame);
      all.insert(all.end(), frame.begin(), frame.end());
    }
    return all;
  }

  const std::vector<Event>& base() const { return base_; }

 private:
  std::vector<Event> base_;
  int64_t span_ = 0;
  int64_t frames_per_lap_ = 1;
};

/// Segment counts of both phases: multiples of kClients, at least two per
/// client.
struct Phases {
  int64_t open_segments = 0;
  int64_t frames_per_open_segment = 0;
  int64_t closed_segments = 0;

  Phases(double open_s, double closed_s) {
    auto segments = [](double seconds, double segment_s) {
      const int64_t n = static_cast<int64_t>(seconds / segment_s + 0.5);
      return std::max<int64_t>(2 * kClients, n - n % kClients);
    };
    open_segments = segments(open_s, kOpenSegmentS);
    frames_per_open_segment =
        static_cast<int64_t>(kOpenSegmentS * kOpenRateEps / kBatch + 0.5);
    closed_segments = segments(closed_s, kClosedSegmentS);
  }
  /// Open-loop frames each client sends over the whole phase.
  int64_t open_frames() const {
    return open_segments / kClients * frames_per_open_segment;
  }
};

/// Everything set-up builds: the streams, the oracles of the open-loop
/// streams, a started server and one registered connection per client.
struct Rig {
  std::vector<LapStream> open_streams;
  std::vector<LapStream> closed_streams;
  std::vector<std::unique_ptr<streamq::OracleEvaluator>> oracles;
  int64_t open_frames = 0;
  std::unique_ptr<streamq::StreamQServer> server;
  std::vector<std::unique_ptr<StreamQClient>> clients;
  bool ok = true;
};

void Teardown(Rig* rig) {
  rig->clients.clear();
  if (rig->server != nullptr) rig->server->Stop();
  rig->server.reset();
}

Rig Setup(uint64_t seed, const Phases& phases) {
  Rig rig;
  rig.open_frames = phases.open_frames();
  for (int c = 0; c < kClients; ++c) {
    rig.open_streams.emplace_back(
        streamq::GenerateWorkload(
            TenantConfig(seed, c, rig.open_frames * kBatch))
            .arrival_order);
    rig.closed_streams.emplace_back(
        streamq::GenerateWorkload(
            TenantConfig(seed, kClients + c, kClosedBaseFrames * kBatch))
            .arrival_order);
    const streamq::ContinuousQuery query =
        TenantOptions(OpenTenant(c)).BuildQuery().value();
    rig.oracles.push_back(std::make_unique<streamq::OracleEvaluator>(
        rig.open_streams.back().base(), query.window.window,
        query.window.aggregate));
  }

  rig.server = std::make_unique<streamq::StreamQServer>();
  rig.ok = rig.server->Start().ok();
  for (int c = 0; c < kClients && rig.ok; ++c) {
    auto connected = StreamQClient::Connect(rig.server->port());
    if (!connected.ok()) {
      rig.ok = false;
      break;
    }
    rig.clients.push_back(std::move(connected).value());
    StreamQClient& client = *rig.clients.back();
    rig.ok = client.RegisterQuery(OpenTenant(c), TenantOptions(OpenTenant(c)))
                 .ok() &&
             client
                 .RegisterQuery(ClosedTenant(c), TenantOptions(ClosedTenant(c)))
                 .ok();
  }
  // Warm-up: each client drives a scratch tenant through the closed loop.
  std::vector<std::thread> warm;
  std::atomic<bool> warm_ok{rig.ok};
  for (int c = 0; c < kClients && rig.ok; ++c) {
    warm.emplace_back([&rig, &warm_ok, c] {
      StreamQClient& client = *rig.clients[static_cast<size_t>(c)];
      const uint32_t scratch = 1000 + static_cast<uint32_t>(c);
      bool ok = client.RegisterQuery(scratch, TenantOptions(scratch)).ok();
      std::vector<Event> frame;
      for (int64_t i = 0; i < kWarmupFrames && ok; ++i) {
        rig.closed_streams[static_cast<size_t>(c)].Frame(i, &frame);
        ok = client.Ingest(scratch, frame).ok();
      }
      ok = ok && client.Unregister(scratch).ok();
      if (!ok) warm_ok = false;
    });
  }
  for (std::thread& t : warm) t.join();
  rig.ok = rig.ok && warm_ok;
  return rig;
}

struct ClientLoad {
  int64_t open_frames = 0;  // Sent so far; the next segment continues here.
  int64_t closed_frames = 0;
  int64_t rpcs = 0;
  int64_t errors = 0;
};

/// One open-loop segment of client c: `frames` frames, the j-th due at
/// start + j * interval whether or not the previous reply is back; each
/// frame's latency runs from its due time to its ack. Samples the heap
/// every 16 frames.
void DriveOpen(const Rig& rig, int c, int64_t frames,
               const OpenLoopSchedule& schedule, HeapSampler* heap,
               OpenLoopAccount* account, ClientLoad* load) {
  StreamQClient& client = *rig.clients[static_cast<size_t>(c)];
  const LapStream& stream = rig.open_streams[static_cast<size_t>(c)];
  std::vector<Event> frame;
  for (int64_t j = 0; j < frames; ++j) {
    stream.Frame(load->open_frames++, &frame);
    const int64_t due = schedule.DueNs(j);
    // Sleep to just short of the due time, then spin: sleep wake-ups run
    // tens of microseconds late.
    const int64_t early = due - NowNs() - 200000;
    if (early > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(early));
    while (NowNs() < due) {
    }
    const int64_t sent = NowNs();
    const bool ok = client.Ingest(OpenTenant(c), frame).ok();
    account->Record(due, sent, NowNs());
    ++load->rpcs;
    load->errors += ok ? 0 : 1;
    if (j % 16 == 15) heap->Sample();
  }
}

/// One closed-loop segment of client c: the next frame goes out as soon as
/// the previous one is acknowledged, until the deadline. Appends each
/// frame's round trip to `rtt_us` and returns the frames sent.
int64_t DriveClosed(const Rig& rig, int c, int64_t deadline,
                    std::vector<double>* rtt_us, ClientLoad* load) {
  StreamQClient& client = *rig.clients[static_cast<size_t>(c)];
  const LapStream& stream = rig.closed_streams[static_cast<size_t>(c)];
  std::vector<Event> frame;
  int64_t sent = 0;
  while (NowNs() < deadline) {
    stream.Frame(load->closed_frames++, &frame);
    const int64_t t0 = NowNs();
    const bool ok = client.Ingest(ClosedTenant(c), frame).ok();
    rtt_us->push_back(static_cast<double>(NowNs() - t0) / 1e3);
    ++sent;
    ++load->rpcs;
    load->errors += ok ? 0 : 1;
  }
  return sent;
}

/// Runs `fn(c)` on one thread per client.
template <typename Fn>
void OnClients(Fn&& fn) {
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&fn, c] { fn(c); });
  }
  for (std::thread& t : threads) t.join();
}

/// In-process StreamSession over `frames` of `stream`, frame by frame as
/// the server received them. Returns the sealed report, or an empty report
/// with a non-OK status.
RunReport ReplaySession(uint32_t tenant, const LapStream& stream,
                        int64_t frames, streamq::PipelineObserver* observer,
                        double* wall_ns) {
  auto opened = streamq::StreamSession::Open(TenantOptions(tenant));
  if (!opened.ok()) {
    RunReport failed;
    failed.status = opened.status();
    return failed;
  }
  streamq::StreamSession& session = *opened.value();
  if (observer != nullptr) session.SetObserver(observer);
  std::vector<Event> frame;
  double ingest_ns = 0.0;
  for (int64_t i = 0; i < frames; ++i) {
    stream.Frame(i, &frame);
    const int64_t t0 = NowNs();
    (void)session.Ingest(frame);
    ingest_ns += static_cast<double>(NowNs() - t0);
  }
  if (wall_ns != nullptr) *wall_ns = ingest_ns;
  return session.Finish();
}

struct TenantCheck {
  uint32_t tenant = 0;
  const LapStream* stream = nullptr;
  int64_t frames = 0;
  SnapshotStats served;
  bool served_ok = false;
  RunReport replay;
};

}  // namespace

void RunService(const RunArgs& args, Outcome* out) {
  const double open_s = args.seconds * (args.trace ? 0.2 : 0.4);
  const double closed_s = args.seconds * (args.trace ? 0.3 : 0.6);
  std::printf(
      "config  workload=service server=StreamQServer(loopback) clients=%d "
      "tenant_session=\"%s\" keys=%lld event_rate=%.0f/s "
      "delay=exponential(mean=%.0fms) frame=%zu events seed=%llu\n",
      kClients, TenantOptions(1).Describe().c_str(),
      static_cast<long long>(kTenantKeys), kTenantEps, kDisorderMs, kBatch,
      static_cast<unsigned long long>(args.seed));
  const Phases phases(open_s, closed_s);
  std::printf("config  phase1=open-loop rate=%.0f events/s, %lld segments of "
              "%lld frames; phase2=closed-loop, %lld segments of %.2fs; "
              "%d clients taking turns, one CPU per segment\n",
              kOpenRateEps, static_cast<long long>(phases.open_segments),
              static_cast<long long>(phases.frames_per_open_segment),
              static_cast<long long>(phases.closed_segments), kClosedSegmentS,
              kClients);

  HeapSampler heap;
  Rig rig;
  std::vector<double> setup_s;
  const int setups = args.trace ? 1 : kSetupRepeats;
  for (int i = 0; i < setups; ++i) {
    Teardown(&rig);
    rig = Rig{};
    const int64_t t0 = NowNs();
    rig = Setup(args.seed, phases);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  if (!out->Check(rig.ok, "server start, connect, register, warm-up")) {
    Teardown(&rig);
    return;
  }

  // Phase 1: open loop. peak_heap_mb is what it adds to the set-up's heap.
  heap.Reset();
  std::vector<ClientLoad> loads(kClients);
  OpenLoopAccount open;
  std::vector<double> open_p50_us;
  int64_t turn = 0;
  for (int64_t k = 0; k < phases.open_segments; ++k, ++turn) {
    const int c = static_cast<int>(k % kClients);
    const CpuWindow cpu(turn, 1, /*all_threads=*/true);
    OpenLoopSchedule schedule;
    schedule.start_ns = NowNs() + 1000000;
    schedule.interval_ns = 1e9 * kBatch / kOpenRateEps;
    OpenLoopAccount segment;
    DriveOpen(rig, c, phases.frames_per_open_segment, schedule, &heap,
              &segment, &loads[static_cast<size_t>(c)]);
    open_p50_us.push_back(Quantile(segment.latency_us(), 0.50));
    open.Merge(segment);
  }

  // Phase 2: closed loop. Memory is sampled only up to here: what the closed
  // loop adds grows with throughput, which peak_heap_mb must not reward.
  std::vector<double> rtt_us;
  std::vector<double> segment_eps;
  int64_t closed_events = 0;
  double closed_wall_s = 0.0;
  for (int64_t k = 0; k < phases.closed_segments; ++k, ++turn) {
    const int c = static_cast<int>(k % kClients);
    const CpuWindow cpu(turn, 1, /*all_threads=*/true);
    const int64_t start = NowNs();
    const int64_t frames =
        DriveClosed(rig, c, start + static_cast<int64_t>(kClosedSegmentS * 1e9),
                    &rtt_us, &loads[static_cast<size_t>(c)]);
    const double wall_s = static_cast<double>(NowNs() - start) / 1e9;
    const int64_t events = frames * static_cast<int64_t>(kBatch);
    segment_eps.push_back(static_cast<double>(events) / wall_s);
    closed_events += events;
    closed_wall_s += wall_s;
  }

  int64_t rpcs = 0;
  int64_t errors = 0;
  for (const ClientLoad& l : loads) {
    rpcs += l.rpcs;
    errors += l.errors;
  }
  out->CheckMany(rpcs, errors, "ingest RPCs answered OK");

  // Seal every tenant, then replay each one's frames in-process.
  std::vector<TenantCheck> tenants(2 * kClients);
  for (int c = 0; c < kClients; ++c) {
    TenantCheck& open_tenant = tenants[static_cast<size_t>(2 * c)];
    open_tenant.tenant = OpenTenant(c);
    open_tenant.stream = &rig.open_streams[static_cast<size_t>(c)];
    open_tenant.frames = rig.open_frames;
    TenantCheck& closed_tenant = tenants[static_cast<size_t>(2 * c + 1)];
    closed_tenant.tenant = ClosedTenant(c);
    closed_tenant.stream = &rig.closed_streams[static_cast<size_t>(c)];
    closed_tenant.frames = loads[static_cast<size_t>(c)].closed_frames;
  }
  for (TenantCheck& t : tenants) {
    auto sealed = rig.clients[0]->Unregister(t.tenant);
    t.served_ok = sealed.ok();
    if (sealed.ok()) t.served = sealed.value();
  }
  const streamq::ServerStats server_stats = rig.server->stats();
  Teardown(&rig);
  OnClients([&](int c) {
    for (size_t i = static_cast<size_t>(2 * c); i < 2 * c + 2u; ++i) {
      tenants[i].replay = ReplaySession(tenants[i].tenant, *tenants[i].stream,
                                        tenants[i].frames, nullptr, nullptr);
    }
  });
  for (const TenantCheck& t : tenants) {
    const std::string name = "tenant " + std::to_string(t.tenant);
    const int64_t sent = t.frames * static_cast<int64_t>(kBatch);
    out->Check(t.served_ok && t.served.finished &&
                   t.served.status_code == streamq::StatusCode::kOk &&
                   t.served.events_ingested == sent,
               name + ": sealed, OK, delivered all " + std::to_string(sent) +
                   " events");
    out->Check(t.served.AccountingIdentityHolds(),
               name + ": in == out + late + shed");
    out->Check(t.replay.status.ok() &&
                   streamq::ResultChecksum(t.replay) ==
                       t.served.result_checksum,
               name + ": result checksum equals an in-process StreamSession "
                      "run of the same frames");
  }
  std::printf("server  frames=%lld protocol_errors=%lld application_errors=%lld "
              "events_ingested=%lld\n",
              static_cast<long long>(server_stats.frames_processed),
              static_cast<long long>(server_stats.protocol_errors),
              static_cast<long long>(server_stats.application_errors),
              static_cast<long long>(server_stats.events_ingested));
  out->Check(server_stats.protocol_errors == 0, "no protocol errors");

  // Quality and result latency of the open-loop tenants, whose results the
  // checksum check just tied to the served ones.
  std::vector<double> latency_ms;
  double quality_sum = 0.0;
  double target_sum = 0.0;
  for (int c = 0; c < kClients; ++c) {
    const std::vector<streamq::WindowResult>& results =
        tenants[static_cast<size_t>(2 * c)].replay.results;
    const streamq::QualityReport report = streamq::EvaluateQuality(
        results, *rig.oracles[static_cast<size_t>(c)]);
    quality_sum += report.MeanQualityIncludingMissed();
    target_sum += report.FractionMeeting(0.95);
    for (double us : streamq::ResponseLatencies(results)) {
      latency_ms.push_back(us / 1e3);
    }
  }

  EndToEnd e2e;
  e2e.throughput_eps = InterquartileMean(segment_eps);
  e2e.quality.mean = quality_sum / kClients;
  e2e.quality.target_frac = target_sum / kClients;
  e2e.quality.windows = latency_ms.size();
  e2e.quality.latency_p50_ms = Quantile(latency_ms, 0.50);
  e2e.quality.latency_p99_ms = Quantile(latency_ms, 0.99);
  e2e.ingest_latency_p50_us = Median(open_p50_us);
  e2e.setup_s = Median(setup_s);
  e2e.peak_heap_mb = heap.AddedMiB();
  const double rtt_p50_us = Quantile(rtt_us, 0.50);
  const double send_lag_p99_ms = Quantile(open.send_lag_ms(), 0.99);
  std::printf("run     open loop %zu frames, latency p50 %.1f us p90 %.1f "
              "us p99 %.1f us over all, send lag p99 %.3f ms; closed loop %lld events in %.3f s (%.0f events/s "
              "over all, segments %.0f to %.0f), RTT p50 %.1f us p99 %.1f "
              "us\n",
              open.latency_us().size(), Quantile(open.latency_us(), 0.50),
              Quantile(open.latency_us(), 0.90),
              Quantile(open.latency_us(), 0.99),
              send_lag_p99_ms, static_cast<long long>(closed_events),
              closed_wall_s, static_cast<double>(closed_events) / closed_wall_s,
              Quantile(segment_eps, 0.0), Quantile(segment_eps, 1.0),
              rtt_p50_us, Quantile(rtt_us, 0.99));

  if (!args.trace) {
    CheckPercentileSupport("result_latency", latency_ms.size(), 99.0, out);
    CheckPercentileSupport("ingest_latency per segment",
                           static_cast<size_t>(phases.frames_per_open_segment),
                           50.0, out);
    AddEndToEnd(e2e, out);
    return;
  }

  // Per-layer attribution: the session the server hides, replayed alone on
  // client 0's closed-loop frames, with and without the metrics observer the
  // server installs; the same frames through the timed pipeline; the codec
  // on the same events.
  const TenantCheck& replayed = tenants[1];
  const int64_t frames = std::min<int64_t>(replayed.frames, 2048);
  const std::vector<Event> events = replayed.stream->Prefix(frames);
  const double n = static_cast<double>(events.size());
  std::vector<double> bare_ns;
  std::vector<double> observed_ns;
  for (int rep = 0; rep < 3; ++rep) {
    double wall = 0.0;
    (void)ReplaySession(replayed.tenant, *replayed.stream, frames, nullptr,
                        &wall);
    bare_ns.push_back(wall);
    streamq::MetricsObserver observer;
    (void)ReplaySession(replayed.tenant, *replayed.stream, frames, &observer,
                        &wall);
    observed_ns.push_back(wall);
  }
  const CodecCost codec = MeasureCodec(events);
  out->Check(codec.round_trip_ok, "frame codec round trip of the stream");

  const streamq::ContinuousQuery query =
      TenantOptions(replayed.tenant).BuildQuery().value();
  const BatchedStream stream = BatchedStream::Regular(events, kBatch);
  Tracer tracer;
  const LayerIds ids = LayerIds::Intern(&tracer);
  const size_t names = tracer.num_names();
  std::vector<std::vector<double>> self_ns(names);
  std::vector<double> traced_wall;
  PipelineRun traced;
  for (int rep = 0; rep < 3; ++rep) {
    tracer.Clear();
    traced = RunPipeline(query, stream, &tracer, &ids);
    traced_wall.push_back(static_cast<double>(traced.wall_ns));
    const std::vector<int64_t> totals = SelfTimeByName(tracer.spans(), names);
    for (size_t l = 0; l < names; ++l) {
      self_ns[l].push_back(static_cast<double>(totals[l]));
    }
  }
  std::vector<double> untraced_wall;
  for (int rep = 0; rep < 3; ++rep) {
    untraced_wall.push_back(static_cast<double>(
        RunPipeline(query, stream, nullptr, nullptr).wall_ns));
  }
  {
    double unused = 0.0;
    const RunReport session_run = ReplaySession(
        replayed.tenant, *replayed.stream, frames, nullptr, &unused);
    out->Check(traced.results == session_run.results,
               "traced replay results byte-identical to the session's");
  }
  const std::string path = args.out_dir + "/service.spans.csv";
  if (!WriteSpans(path, tracer, 200000)) {
    std::printf("note    could not write %s\n", path.c_str());
  }

  auto layer = [&](uint32_t id) { return Median(self_ns[id]); };
  // One client at a time drives the closed loop, so this is its cost.
  const double per_client_ns = 1e9 / std::max(e2e.throughput_eps, 1.0);
  Layers l;
  l.session_ns_per_event = Median(bare_ns) / n;
  l.metrics_observer_ns_per_event =
      (Median(observed_ns) - Median(bare_ns)) / n;
  const double session_ns = Median(observed_ns) / n;
  l.source_ns_per_event = layer(ids.source) / n;
  l.disorder_self_ns_per_event = layer(ids.disorder) / n;
  l.fold_ns_per_event = layer(ids.fold) / n;
  l.late_ns_per_event = layer(ids.late) / n;
  l.fire_ns_per_watermark =
      traced.watermarks > 0
          ? layer(ids.fire) / static_cast<double>(traced.watermarks)
          : 0.0;
  l.sink_ns_per_result =
      traced.results.empty()
          ? 0.0
          : layer(ids.sink) / static_cast<double>(traced.results.size());
  l.release_calls_per_kevent =
      1000.0 * static_cast<double>(traced.release_calls) / n;
  l.watermarks = static_cast<double>(traced.watermarks);
  const streamq::DisorderHandlerStats& hs = traced.handler_stats;
  l.late_frac = static_cast<double>(hs.events_late) /
                static_cast<double>(std::max<int64_t>(hs.events_in, 1));
  l.buffering_latency_mean_ms = hs.buffering_latency_us.mean() / 1e3;
  l.buffer_max = static_cast<double>(hs.max_buffer_size);
  l.revisions_per_window =
      static_cast<double>(traced.window_stats.revisions) /
      static_cast<double>(std::max<int64_t>(traced.window_stats.windows_fired,
                                            1));
  l.max_live_windows = static_cast<double>(traced.window_stats.max_live_windows);
  l.critical_shard_ns_per_event = Median(untraced_wall) / n;
  l.runtime_overhead_ns_per_event =
      per_client_ns - l.critical_shard_ns_per_event;
  l.encode_ns_per_event = codec.encode_ns_per_event;
  l.decode_ns_per_event = codec.decode_ns_per_event;
  l.bytes_per_event = codec.bytes_per_event;
  l.residual_ns_per_event = per_client_ns - session_ns -
                            codec.encode_ns_per_event -
                            codec.decode_ns_per_event;
  l.queue_hop_ns_per_batch = MeasureQueueHopNsPerBatch();
  out->Check(l.queue_hop_ns_per_batch > 0,
             "SpscQueue hop delivered every batch");
  l.frames = static_cast<double>(server_stats.frames_processed);
  l.protocol_errors = static_cast<double>(server_stats.protocol_errors);
  l.trace_overhead_pct =
      100.0 * (Median(traced_wall) / Median(untraced_wall) - 1.0);
  const double rtt_residual_us =
      rtt_p50_us - (session_ns + codec.encode_ns_per_event +
                    codec.decode_ns_per_event) *
                       static_cast<double>(kBatch) / 1e3;

  std::printf("ledger  e2e %.1f ns/event per client (closed loop, one "
              "client at a time); RTT p50 %.1f us per %zu-event frame\n",
              per_client_ns, rtt_p50_us, kBatch);
  PrintLayerLine("core.session (observed)", session_ns, per_client_ns);
  PrintLayerLine("  core.metrics_observer", l.metrics_observer_ns_per_event,
                 per_client_ns);
  PrintLayerLine("  disorder (self)", l.disorder_self_ns_per_event,
                 per_client_ns);
  PrintLayerLine("  window.fold", l.fold_ns_per_event, per_client_ns);
  PrintLayerLine("  window.fire", layer(ids.fire) / n, per_client_ns);
  PrintLayerLine("  window.late", l.late_ns_per_event, per_client_ns);
  PrintLayerLine("  sink", layer(ids.sink) / n, per_client_ns);
  PrintLayerLine("net.encode", l.encode_ns_per_event, per_client_ns);
  PrintLayerLine("net.decode", l.decode_ns_per_event, per_client_ns);
  std::printf("ledger  layer sum %.1f ns/event | e2e %.1f | residual %.1f "
              "ns/event (socket, server dispatch, client)\n",
              session_ns + codec.encode_ns_per_event +
                  codec.decode_ns_per_event,
              per_client_ns, l.residual_ns_per_event);
  std::printf("ledger  net.rtt_residual %.1f us/frame; generator send lag p99 "
              "%.3f ms; %.2f bytes/event; queue hop %.1f ns/batch; trace "
              "overhead %.1f%%\n",
              rtt_residual_us, send_lag_p99_ms, l.bytes_per_event,
              l.queue_hop_ns_per_batch, l.trace_overhead_pct);
  AddLayers(l, out);
}

}  // namespace perfbench
