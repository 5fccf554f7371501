#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "net/frame.h"
#include "stream/event.h"

namespace streamq {
namespace {

Event MakeEvent(int64_t id, int64_t key, TimestampUs et, TimestampUs at,
                double value) {
  Event e;
  e.id = id;
  e.key = key;
  e.event_time = et;
  e.arrival_time = at;
  e.value = value;
  return e;
}

TEST(FrameCodec, RoundTripsFramesFedByteByByte) {
  const std::vector<Frame> frames = {
      {FrameType::kRegisterQuery, 7, "--window=100 --agg=mean"},
      {FrameType::kIngest, 7, std::string("\x00\x00\x00\x00", 4)},
      {FrameType::kSnapshot, 42, ""},
      {FrameType::kMetricsRequest, 0, std::string(1, '\x00')},
      {FrameType::kOk, 7, ""},
      {FrameType::kMetricsReply, 0, "streamq_runs_total 1\n"},
  };
  std::string wire;
  for (const Frame& f : frames) AppendFrame(f, &wire);

  FrameDecoder decoder;
  std::vector<Frame> decoded;
  for (char c : wire) {
    decoder.Feed(std::string_view(&c, 1));
    Frame out;
    bool have = false;
    ASSERT_TRUE(decoder.Next(&out, &have).ok());
    if (have) decoded.push_back(out);
  }
  EXPECT_EQ(decoded, frames);
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
}

TEST(FrameCodec, PartialHeaderYieldsNoFrame) {
  std::string wire;
  AppendFrame({FrameType::kSnapshot, 1, ""}, &wire);
  FrameDecoder decoder;
  decoder.Feed(std::string_view(wire.data(), kFrameHeaderBytes - 1));
  Frame out;
  bool have = true;
  ASSERT_TRUE(decoder.Next(&out, &have).ok());
  EXPECT_FALSE(have);
  decoder.Feed(std::string_view(wire.data() + kFrameHeaderBytes - 1, 1));
  ASSERT_TRUE(decoder.Next(&out, &have).ok());
  EXPECT_TRUE(have);
  EXPECT_EQ(out.type, FrameType::kSnapshot);
  EXPECT_EQ(out.tenant, 1u);
}

TEST(FrameCodec, RejectsBadMagicAndStaysFailed) {
  FrameDecoder decoder;
  decoder.Feed("XQ..........");
  Frame out;
  bool have = false;
  const Status first = decoder.Next(&out, &have);
  EXPECT_EQ(first.code(), StatusCode::kInvalidArgument);
  // Sticky: even valid bytes afterwards cannot resynchronize the stream.
  std::string wire;
  AppendFrame({FrameType::kOk, 0, ""}, &wire);
  decoder.Feed(wire);
  EXPECT_EQ(decoder.Next(&out, &have).code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(have);
}

TEST(FrameCodec, RejectsUnknownTypeAndNonzeroFlags) {
  {
    std::string wire;
    AppendFrame({FrameType::kOk, 0, ""}, &wire);
    wire[2] = 99;  // Unknown type.
    FrameDecoder decoder;
    decoder.Feed(wire);
    Frame out;
    bool have = false;
    EXPECT_EQ(decoder.Next(&out, &have).code(),
              StatusCode::kInvalidArgument);
  }
  {
    std::string wire;
    AppendFrame({FrameType::kOk, 0, ""}, &wire);
    wire[3] = 1;  // Reserved flags must be zero.
    FrameDecoder decoder;
    decoder.Feed(wire);
    Frame out;
    bool have = false;
    EXPECT_EQ(decoder.Next(&out, &have).code(),
              StatusCode::kInvalidArgument);
  }
}

TEST(FrameCodec, RejectsOversizedPayloadWithoutBuffering) {
  // A length prefix over the cap must fail immediately from the header
  // alone — the decoder must not wait for (or try to allocate) the body.
  std::string wire;
  AppendFrame({FrameType::kIngest, 1, "xxxxxxxx"}, &wire);
  FrameDecoder decoder(/*max_payload=*/4);
  decoder.Feed(std::string_view(wire.data(), kFrameHeaderBytes));
  Frame out;
  bool have = false;
  EXPECT_EQ(decoder.Next(&out, &have).code(), StatusCode::kInvalidArgument);
}

TEST(FrameCodec, EventBatchRoundTrip) {
  std::vector<Event> events = {
      MakeEvent(1, 3, 1000, 1500, 0.5),
      MakeEvent(2, -9, 2000, 2000, -1.25),
      MakeEvent(3, 0, 0, 0, 0.0),
  };
  std::string payload;
  EncodeEventBatch(events, &payload);
  std::vector<Event> decoded;
  ASSERT_TRUE(DecodeEventBatch(payload, &decoded).ok());
  EXPECT_EQ(decoded, events);

  std::string empty_payload;
  EncodeEventBatch(std::span<const Event>(), &empty_payload);
  std::vector<Event> none;
  ASSERT_TRUE(DecodeEventBatch(empty_payload, &none).ok());
  EXPECT_TRUE(none.empty());
}

TEST(FrameCodec, EventBatchRejectsLengthMismatchAndGarbage) {
  std::vector<Event> events = {MakeEvent(1, 1, 1, 1, 1.0)};
  std::string payload;
  EncodeEventBatch(events, &payload);

  std::vector<Event> out;
  // Truncated record.
  EXPECT_EQ(DecodeEventBatch(std::string_view(payload).substr(
                                 0, payload.size() - 1),
                             &out)
                .code(),
            StatusCode::kInvalidArgument);
  // Trailing garbage.
  EXPECT_EQ(DecodeEventBatch(payload + "z", &out).code(),
            StatusCode::kInvalidArgument);
  // Count lies about the body size.
  std::string tampered = payload;
  tampered[0] = 2;
  EXPECT_EQ(DecodeEventBatch(tampered, &out).code(),
            StatusCode::kInvalidArgument);
  // Too short for even the count.
  EXPECT_EQ(DecodeEventBatch("ab", &out).code(), StatusCode::kOutOfRange);
}

TEST(FrameCodec, ErrorRoundTrip) {
  const Status original = Status::NotFound("tenant 9 not registered");
  std::string payload;
  EncodeError(original, &payload);
  const Status decoded = DecodeError(payload);
  EXPECT_EQ(decoded.code(), StatusCode::kNotFound);
  EXPECT_EQ(decoded.message(), "tenant 9 not registered");
}

TEST(FrameCodec, SnapshotStatsRoundTrip) {
  SnapshotStats stats;
  stats.finished = 1;
  stats.status_code = StatusCode::kResourceExhausted;
  stats.status_message = "buffer cap reached";
  stats.events_ingested = 100;
  stats.events_processed = 98;
  stats.events_rejected = 2;
  stats.events_out = 90;
  stats.events_late = 5;
  stats.events_dropped = 1;
  stats.events_shed = 3;
  stats.events_force_released = 7;
  stats.max_buffer_size = 4096;
  stats.results = 12;
  stats.result_checksum = 0xdeadbeefcafef00dULL;
  stats.mean_buffering_latency_us = 1234.5;
  stats.final_slack_us = 30000;
  stats.segments_stolen = 11;

  std::string payload;
  EncodeSnapshotStats(stats, &payload);
  SnapshotStats decoded;
  ASSERT_TRUE(DecodeSnapshotStats(payload, &decoded).ok());
  EXPECT_EQ(decoded, stats);
  EXPECT_TRUE(decoded.AccountingIdentityHolds());

  // Truncation at every prefix length must fail cleanly, never crash.
  for (size_t n = 0; n < payload.size(); ++n) {
    SnapshotStats partial;
    EXPECT_FALSE(
        DecodeSnapshotStats(std::string_view(payload).substr(0, n), &partial)
            .ok());
  }
  // Unknown version byte.
  std::string versioned = payload;
  versioned[0] = 9;
  SnapshotStats wrong;
  EXPECT_EQ(DecodeSnapshotStats(versioned, &wrong).code(),
            StatusCode::kInvalidArgument);
}

TEST(FrameCodec, SnapshotFromReportCarriesSchedulerCounters) {
  RunReport report;
  report.events_processed = 50;
  report.segments_stolen = 9;
  const SnapshotStats stats =
      SnapshotFromReport(report, /*ingested=*/50, /*finished=*/true);
  EXPECT_EQ(stats.segments_stolen, 9);

  std::string payload;
  EncodeSnapshotStats(stats, &payload);
  SnapshotStats decoded;
  ASSERT_TRUE(DecodeSnapshotStats(payload, &decoded).ok());
  EXPECT_EQ(decoded.segments_stolen, 9);
}

TEST(FrameCodec, RejectsV3SnapshotWithMigrationCounter) {
  // A v3 peer wrote a shard-migration counter between final_slack_us and
  // segments_stolen. Rebuild that layout from a v4 payload: the decoder
  // must refuse it by version, not misread the extra field.
  SnapshotStats stats;
  stats.status_message = "ok";
  stats.final_slack_us = 30000;
  stats.segments_stolen = 4;
  std::string v4;
  EncodeSnapshotStats(stats, &v4);
  ASSERT_EQ(static_cast<uint8_t>(v4[0]), 4);
  // version, finished, status code, message length + bytes, ten i64
  // counters, checksum, mean latency, final slack.
  const size_t migrations_at = 1 + 1 + 4 + 4 + stats.status_message.size() +
                               10 * 8 + 8 + 8 + 8;
  std::string v3 = v4;
  v3[0] = 3;
  v3.insert(migrations_at, std::string(8, '\0'));
  SnapshotStats decoded;
  const Status status = DecodeSnapshotStats(v3, &decoded);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("snapshot version 3"), std::string::npos)
      << status.ToString();
}

TEST(FrameCodec, AccountingIdentity) {
  SnapshotStats stats;
  stats.events_processed = 10;
  stats.events_out = 7;
  stats.events_late = 2;
  stats.events_shed = 1;
  EXPECT_TRUE(stats.AccountingIdentityHolds());
  stats.events_shed = 0;
  EXPECT_FALSE(stats.AccountingIdentityHolds());
}

TEST(FrameCodec, ResultChecksumIsOrderAndValueSensitive) {
  RunReport a;
  WindowResult r1;
  r1.bounds.start = 0;
  r1.bounds.end = 100;
  r1.key = 1;
  r1.value = 2.5;
  r1.tuple_count = 4;
  WindowResult r2 = r1;
  r2.bounds.start = 100;
  r2.value = 3.5;
  a.results = {r1, r2};

  RunReport same = a;
  EXPECT_EQ(ResultChecksum(a), ResultChecksum(same));

  RunReport reordered = a;
  std::swap(reordered.results[0], reordered.results[1]);
  EXPECT_NE(ResultChecksum(a), ResultChecksum(reordered));

  RunReport perturbed = a;
  perturbed.results[1].value += 1e-5;
  EXPECT_NE(ResultChecksum(a), ResultChecksum(perturbed));
}

TEST(FrameCodec, PayloadReaderBoundsChecks) {
  PayloadReader reader(std::string_view("\x01\x02\x03", 3));
  uint32_t v = 0;
  EXPECT_EQ(reader.ReadU32(&v).code(), StatusCode::kOutOfRange);
  uint8_t b = 0;
  ASSERT_TRUE(reader.ReadU8(&b).ok());
  EXPECT_EQ(b, 1);
  EXPECT_EQ(reader.remaining(), 2u);
  EXPECT_EQ(reader.ExpectEnd().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace streamq
