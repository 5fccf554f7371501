#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/session_options.h"
#include "core/stream_session.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/server.h"
#include "stream/generator.h"
#include "stream/source.h"

namespace streamq {
namespace {

std::vector<Event> TestStream(uint64_t seed, int64_t n = 20000) {
  WorkloadConfig config;
  config.num_events = n;
  config.num_keys = 8;
  config.seed = seed;
  return GenerateWorkload(config).arrival_order;
}

void IngestInBatches(StreamQClient* client, uint32_t tenant,
                     const std::vector<Event>& events, size_t batch = 512) {
  for (size_t i = 0; i < events.size(); i += batch) {
    const size_t n = std::min(batch, events.size() - i);
    ASSERT_TRUE(client
                    ->Ingest(tenant,
                             std::span<const Event>(events.data() + i, n))
                    .ok());
  }
}

/// What a tenant's final report looks like when the same options and the
/// same stream run in-process with nobody else around — the isolation
/// baseline.
SnapshotStats SoloBaseline(const SessionOptions& options,
                           const std::vector<Event>& events) {
  auto session = StreamSession::Open(options);
  EXPECT_TRUE(session.ok());
  VectorSource source(events);
  const RunReport report = session.value()->Run(&source);
  return SnapshotFromReport(report, static_cast<int64_t>(events.size()),
                            /*finished=*/true);
}

class ServerLoopbackTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(server_.Start().ok());
    ASSERT_GT(server_.port(), 0);
  }

  void TearDown() override { server_.Stop(); }

  std::unique_ptr<StreamQClient> Connect() {
    auto client = StreamQClient::Connect(server_.port());
    EXPECT_TRUE(client.ok());
    return std::move(client).value();
  }

  StreamQServer server_;
};

TEST_F(ServerLoopbackTest, FullLifecycleWithExactAccounting) {
  const std::vector<Event> events = TestStream(11);
  SessionOptions options;
  options.Name("tenant-1").Window(100).QualityTarget(0.9);

  auto client = Connect();
  ASSERT_TRUE(client->RegisterQuery(1, options).ok());
  EXPECT_EQ(server_.active_tenants(), 1u);
  IngestInBatches(client.get(), 1, events);

  // Live snapshot mid-stream: counts are flowing, session not sealed.
  auto live = client->Snapshot(1);
  ASSERT_TRUE(live.ok());
  EXPECT_EQ(live.value().finished, 0);
  EXPECT_EQ(live.value().events_ingested,
            static_cast<int64_t>(events.size()));

  // Unregister seals the session and returns the final report, which must
  // be byte-identical to running the same options solo, in-process.
  auto final_stats = client->Unregister(1);
  ASSERT_TRUE(final_stats.ok());
  EXPECT_EQ(final_stats.value().finished, 1);
  EXPECT_TRUE(final_stats.value().AccountingIdentityHolds());
  EXPECT_EQ(final_stats.value(), SoloBaseline(options, events));
  EXPECT_EQ(server_.active_tenants(), 0u);

  // The id is free again.
  EXPECT_TRUE(client->RegisterQuery(1, options).ok());
  EXPECT_EQ(server_.stats().protocol_errors, 0);
}

TEST_F(ServerLoopbackTest, ThreadedTenantRunsOnShardedRunner) {
  const std::vector<Event> events = TestStream(12);
  SessionOptions options;
  options.Name("tenant-1").Window(100).PerKey().Threads(2);

  auto client = Connect();
  ASSERT_TRUE(client->RegisterQuery(1, options).ok());
  IngestInBatches(client.get(), 1, events);
  auto final_stats = client->Unregister(1);
  ASSERT_TRUE(final_stats.ok());
  EXPECT_TRUE(final_stats.value().AccountingIdentityHolds());
  EXPECT_EQ(final_stats.value().events_ingested,
            static_cast<int64_t>(events.size()));
  EXPECT_GT(final_stats.value().results, 0);
}

TEST_F(ServerLoopbackTest, MisbehavingTenantLeavesOthersByteIdentical) {
  const std::vector<Event> clean_events = TestStream(21);
  SessionOptions clean_options;
  clean_options.Name("clean").Window(100).QualityTarget(0.9);
  const SnapshotStats baseline = SoloBaseline(clean_options, clean_events);

  auto clean_client = Connect();
  ASSERT_TRUE(clean_client->RegisterQuery(1, clean_options).ok());

  // Tenant 2 misbehaves on its own connections, interleaved with tenant
  // 1's ingest: bad registration, mangled batches, a corrupt frame, shed
  // pressure through a tiny buffer cap.
  auto bad_client = Connect();
  SessionOptions bad_options;
  bad_options.Name("bad").Window(100);
  bad_options.BufferCap(64, "drop-newest");
  ASSERT_TRUE(bad_client->RegisterQuery(2, bad_options).ok());

  const std::vector<Event> bad_events = TestStream(22, 5000);
  std::thread chaos([&] {
    // Unparseable register payload (unknown option on the wire).
    Frame bad_register{FrameType::kRegisterQuery, 3, "--warp=9"};
    (void)bad_client->RoundTrip(bad_register);
    // Mangled event batch: count says 2, body has 1 event.
    std::string mangled;
    EncodeEventBatch(std::span<const Event>(bad_events.data(), 1), &mangled);
    mangled[0] = 2;
    (void)bad_client->RoundTrip(Frame{FrameType::kIngest, 2, mangled});
    // Ingest to a tenant that does not exist.
    (void)bad_client->RoundTrip(Frame{FrameType::kIngest, 99, mangled});
    // A shedding stream of its own.
    for (size_t i = 0; i < bad_events.size(); i += 512) {
      const size_t n = std::min<size_t>(512, bad_events.size() - i);
      (void)bad_client->Ingest(
          2, std::span<const Event>(bad_events.data() + i, n));
    }
    // A connection that turns to garbage mid-stream.
    auto garbage = StreamQClient::Connect(server_.port());
    if (garbage.ok()) {
      (void)garbage.value()->SendRawAndAwaitReply(
          "this is not a frame at all!!");
    }
  });

  IngestInBatches(clean_client.get(), 1, clean_events);
  chaos.join();

  // Tenant 1's sealed report must match the solo baseline exactly — same
  // counters, same checksum, byte-for-byte.
  auto final_stats = clean_client->Unregister(1);
  ASSERT_TRUE(final_stats.ok());
  EXPECT_EQ(final_stats.value(), baseline);
  EXPECT_TRUE(final_stats.value().AccountingIdentityHolds());

  // Tenant 2 still owes a coherent (identity-preserving) report of its own.
  auto bad_final = bad_client->Unregister(2);
  ASSERT_TRUE(bad_final.ok());
  EXPECT_TRUE(bad_final.value().AccountingIdentityHolds());
  EXPECT_GT(server_.stats().protocol_errors, 0);
}

TEST_F(ServerLoopbackTest, PayloadErrorsAreRecoverablePerConnection) {
  auto client = Connect();
  // Unknown tenant: error reply, but the connection keeps working.
  const Status missing = client->Ingest(7, {});
  EXPECT_EQ(missing.code(), StatusCode::kNotFound);
  SessionOptions options;
  ASSERT_TRUE(client->RegisterQuery(7, options).ok());
  // Duplicate registration: AlreadyExists, connection still fine.
  EXPECT_EQ(client->RegisterQuery(7, options).code(),
            StatusCode::kAlreadyExists);
  EXPECT_TRUE(client->Ingest(7, {}).ok());
  auto stats = client->Unregister(7);
  ASSERT_TRUE(stats.ok());
}

TEST_F(ServerLoopbackTest, HostileRegisterPayloadsGetErrorReplies) {
  // Each payload is one RegisterQuery frame whose numbers are out of any
  // sane range: a vshards count that cannot be allocated, durations whose
  // microsecond form overflows, more threads than a tenant may spawn, a
  // window/slide ratio that would put each event in 100000 windows.
  // Every one must come back as an error reply naming the flag, with the
  // server — and this very connection — still serving afterwards.
  const struct {
    const char* payload;
    const char* flag;
  } kHostile[] = {
      {"--per-key --threads=1 --vshards=100000000000000", "--vshards"},
      {"--window=9300000000000000", "--window"},
      {"--slide=9300000000000000", "--slide"},
      {"--lateness=9300000000000000", "--lateness"},
      {"--strategy=fixed --k=9300000000000000", "--k"},
      {"--strategy=lb --latency-budget=9300000000000000", "--latency-budget"},
      {"--max-slack=9300000000000000", "--max-slack"},
      {"--per-key --threads=100000", "--threads"},
      {"--window=100000 --slide=1", "--window"},
      {"--quality=nan", "--quality"},
  };
  auto client = Connect();
  uint32_t tenant = 1;
  for (const auto& hostile : kHostile) {
    SCOPED_TRACE(hostile.payload);
    auto reply = client->RoundTrip(
        Frame{FrameType::kRegisterQuery, tenant++, hostile.payload});
    ASSERT_FALSE(reply.ok());
    EXPECT_EQ(reply.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(reply.status().message().find(hostile.flag), std::string::npos)
        << reply.status().ToString();
  }
  EXPECT_EQ(server_.active_tenants(), 0u);

  const std::vector<Event> events = TestStream(41, 5000);
  SessionOptions options;
  options.Name("good").Window(100).PerKey().Threads(2);
  ASSERT_TRUE(client->RegisterQuery(tenant, options).ok());
  IngestInBatches(client.get(), tenant, events);
  auto final_stats = client->Unregister(tenant);
  ASSERT_TRUE(final_stats.ok());
  EXPECT_TRUE(final_stats.value().AccountingIdentityHolds());
  EXPECT_EQ(final_stats.value().events_ingested,
            static_cast<int64_t>(events.size()));
  EXPECT_GT(final_stats.value().results, 0);
}

TEST_F(ServerLoopbackTest, FramingErrorsCloseTheConnection) {
  auto client = Connect();
  auto reply = client->SendRawAndAwaitReply("garbage garbage garbage!");
  // One error frame comes back...
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kInvalidArgument);
  // ...and the server is still alive for new connections.
  auto fresh = Connect();
  SessionOptions options;
  EXPECT_TRUE(fresh->RegisterQuery(1, options).ok());
  EXPECT_GT(server_.stats().protocol_errors, 0);
}

TEST_F(ServerLoopbackTest, OversizedFrameIsRejectedNotAllocated) {
  auto client = Connect();
  // Hand-build a header claiming a payload far over the cap.
  std::string header;
  header.push_back(kFrameMagic0);
  header.push_back(kFrameMagic1);
  header.push_back(static_cast<char>(FrameType::kIngest));
  header.push_back(0);
  AppendU32(1, &header);
  AppendU32(0x7fffffff, &header);
  auto reply = client->SendRawAndAwaitReply(header);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ServerLoopbackTest, HeartbeatOverTheWire) {
  auto client = Connect();
  SessionOptions options;
  options.Window(100).FixedK(10);
  ASSERT_TRUE(client->RegisterQuery(4, options).ok());
  std::vector<Event> events;
  for (int i = 0; i < 200; ++i) {
    Event e;
    e.id = i;
    e.event_time = i * Millis(1);
    e.arrival_time = e.event_time;
    e.value = 1.0;
    events.push_back(e);
  }
  ASSERT_TRUE(client->Ingest(4, events).ok());
  ASSERT_TRUE(client->Heartbeat(4, Millis(2000), Millis(2000)).ok());
  auto live = client->Snapshot(4);
  ASSERT_TRUE(live.ok());
  EXPECT_GT(live.value().results, 0);
  ASSERT_TRUE(client->Unregister(4).ok());
}

TEST_F(ServerLoopbackTest, ConcurrentTenantsKeepIndependentAccounts) {
  constexpr int kTenants = 4;
  std::vector<std::vector<Event>> streams;
  for (int t = 0; t < kTenants; ++t) {
    streams.push_back(TestStream(100 + static_cast<uint64_t>(t), 10000));
  }
  std::vector<std::thread> drivers;
  std::vector<SnapshotStats> finals(kTenants);
  for (int t = 0; t < kTenants; ++t) {
    drivers.emplace_back([this, t, &streams, &finals] {
      auto client = StreamQClient::Connect(server_.port());
      ASSERT_TRUE(client.ok());
      SessionOptions options;
      options.Name("tenant-" + std::to_string(t)).Window(100);
      const uint32_t tenant = static_cast<uint32_t>(t + 1);
      ASSERT_TRUE(client.value()->RegisterQuery(tenant, options).ok());
      IngestInBatches(client.value().get(), tenant, streams[t]);
      auto stats = client.value()->Unregister(tenant);
      ASSERT_TRUE(stats.ok());
      finals[t] = stats.value();
    });
  }
  for (std::thread& d : drivers) d.join();
  for (int t = 0; t < kTenants; ++t) {
    EXPECT_TRUE(finals[t].AccountingIdentityHolds()) << "tenant " << t;
    EXPECT_EQ(finals[t].events_ingested,
              static_cast<int64_t>(streams[t].size()));
    // Concurrency must not leak events across tenants: each final matches
    // its own solo baseline.
    SessionOptions options;
    options.Name("tenant-" + std::to_string(t)).Window(100);
    EXPECT_EQ(finals[t], SoloBaseline(options, streams[t])) << "tenant " << t;
  }

  // One connection carrying every tenant, batches interleaved round-robin:
  // multiplexing must not leak events across tenants either.
  auto shared = Connect();
  for (int t = 0; t < kTenants; ++t) {
    SessionOptions options;
    options.Name("muxed-" + std::to_string(t)).Window(100);
    ASSERT_TRUE(
        shared->RegisterQuery(static_cast<uint32_t>(11 + t), options).ok());
  }
  for (size_t i = 0; i < streams[0].size(); i += 512) {
    for (int t = 0; t < kTenants; ++t) {
      const size_t n = std::min<size_t>(512, streams[t].size() - i);
      ASSERT_TRUE(shared
                      ->Ingest(static_cast<uint32_t>(11 + t),
                               std::span<const Event>(streams[t].data() + i, n))
                      .ok());
    }
  }
  for (int t = 0; t < kTenants; ++t) {
    auto stats = shared->Unregister(static_cast<uint32_t>(11 + t));
    ASSERT_TRUE(stats.ok());
    SessionOptions options;
    options.Name("muxed-" + std::to_string(t)).Window(100);
    EXPECT_EQ(stats.value(), SoloBaseline(options, streams[t]))
        << "muxed tenant " << t;
  }
  EXPECT_EQ(server_.stats().protocol_errors, 0);
}

TEST_F(ServerLoopbackTest, MetricsFrameExposesServerWideRegistry) {
  const std::vector<Event> events = TestStream(31);
  SessionOptions options;
  options.Name("metered").Window(100).QualityTarget(0.9);

  auto client = Connect();
  ASSERT_TRUE(client->RegisterQuery(1, options).ok());
  IngestInBatches(client.get(), 1, events);
  ASSERT_TRUE(client->Unregister(1).ok());

  auto prom = client->Metrics(kMetricsFormatPrometheus);
  ASSERT_TRUE(prom.ok());
  EXPECT_NE(prom.value().find("streamq_source_events_total"),
            std::string::npos);
  EXPECT_NE(prom.value().find("streamq_window_amends_total"),
            std::string::npos);
  EXPECT_NE(prom.value().find("streamq_window_amend_rate"), std::string::npos);

  auto json = client->Metrics(kMetricsFormatJson);
  ASSERT_TRUE(json.ok());
  EXPECT_EQ(json.value().front(), '{');
  EXPECT_NE(json.value().find("streamq.window.amends_total"),
            std::string::npos);

  // Unknown format byte is a protocol error, and the connection survives it.
  auto bad = client->Metrics(42);
  EXPECT_FALSE(bad.ok());
  auto again = client->Metrics(kMetricsFormatPrometheus);
  EXPECT_TRUE(again.ok());
}

TEST_F(ServerLoopbackTest, ShutdownFrameUnblocksWait) {
  std::thread waiter([this] { server_.WaitForShutdownRequest(); });
  auto client = Connect();
  EXPECT_TRUE(client->Shutdown().ok());
  waiter.join();  // Must return promptly after the shutdown request.
}

}  // namespace
}  // namespace streamq
