#ifndef STREAMQ_NET_FRAME_H_
#define STREAMQ_NET_FRAME_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/executor.h"
#include "stream/event.h"

namespace streamq {

/// The streamq wire protocol: length-prefixed binary frames over a byte
/// stream (localhost TCP in practice; the codec itself is transport-free
/// and fully testable in memory). All integers are little-endian.
///
/// Frame layout (header is kFrameHeaderBytes = 12):
///
///   offset  size  field
///   0       2     magic   'S' 'Q' — resync guard: a client that sends
///                 garbage fails fast instead of being misparsed
///   2       1     type    FrameType
///   3       1     flags   reserved, must be 0
///   4       4     tenant  tenant id the frame addresses (0 for kShutdown)
///   8       4     length  payload byte count (bounded; oversized frames
///                 are a protocol error, not an allocation)
///   12      len   payload type-specific body, see below
///
/// Payloads:
///   kRegisterQuery  SessionOptions::Serialize() text — the same
///                   `--flag=value` vocabulary the CLI parses, so every
///                   front door shares one parser and one validator
///   kIngest         u32 count, then count * 40-byte events
///                   (id, key, event_time, arrival_time: i64; value: f64)
///   kHeartbeat      i64 event_time_bound, i64 stream_time
///   kSnapshot       empty
///   kUnregister     empty
///   kShutdown       empty
///   kMetricsRequest u8 format: 0 = Prometheus text, 1 = JSON. Server-wide
///                   (tenant 0): the reply snapshots the server's shared
///                   metrics registry across all tenants
///   kOpenSession    u64 client token (nonzero), then SessionOptions text.
///                   Idempotent open/resume for the sequenced protocol: a
///                   fresh tenant is registered under the token; re-opening
///                   with the same token resumes (epoch += 1) and returns
///                   the last acked sequence number so a reconnecting
///                   client knows where the server really is. A different
///                   token is rejected — the token doubles as the guard
///                   against misdirected frames.
///   kSeqIngest      sequenced envelope (u64 token, u64 seq, u64 FNV-1a of
///                   the body) wrapping a kIngest event-batch body
///   kSeqHeartbeat   sequenced envelope wrapping a kHeartbeat body
///   kOk             empty
///   kError          u32 status code, u32 message length, message bytes
///   kReport         SnapshotStats binary body (see EncodeSnapshotStats)
///   kMetricsReply   rendered metrics text (Prometheus or JSON per request)
///   kSessionAccepted u64 token, u32 epoch, u64 last_acked_seq
///   kAck            u64 acked seq (echo of the request), u8 replayed —
///                   1 when the frame was a duplicate the server suppressed
///   kOverloaded     u32 retry-after ms, u32 message length, message bytes.
///                   Admission control saying "not now": the frame was NOT
///                   applied and the same seq must be retried after the
///                   given backoff
enum class FrameType : uint8_t {
  // Requests.
  kRegisterQuery = 1,
  kIngest = 2,
  kHeartbeat = 3,
  kSnapshot = 4,
  kUnregister = 5,
  kShutdown = 6,
  kMetricsRequest = 7,
  kOpenSession = 8,
  kSeqIngest = 9,
  kSeqHeartbeat = 10,
  // Replies.
  kOk = 16,
  kError = 17,
  kReport = 18,
  kMetricsReply = 19,
  kSessionAccepted = 20,
  kAck = 21,
  kOverloaded = 22,
};

/// kMetricsRequest payload formats.
inline constexpr uint8_t kMetricsFormatPrometheus = 0;
inline constexpr uint8_t kMetricsFormatJson = 1;

/// True for the frame types a client may send.
bool IsRequestFrameType(FrameType type);
/// True for the frame types a server may send back.
bool IsReplyFrameType(FrameType type);

inline constexpr size_t kFrameHeaderBytes = 12;
inline constexpr char kFrameMagic0 = 'S';
inline constexpr char kFrameMagic1 = 'Q';

/// Default bound on payload size. Generous for event batches (16 MiB is
/// ~400k events) while keeping a garbage length prefix from looking like a
/// gigabyte allocation.
inline constexpr size_t kDefaultMaxFramePayload = 16u << 20;

/// One decoded frame.
struct Frame {
  FrameType type = FrameType::kOk;
  uint32_t tenant = 0;
  std::string payload;

  bool operator==(const Frame& other) const = default;
};

/// Serializes `frame` onto `*out` (appends; callers batch frames into one
/// send).
void AppendFrame(const Frame& frame, std::string* out);

/// Incremental frame decoder for a byte stream: feed whatever recv()
/// returned, pull zero or more complete frames. A malformed stream (bad
/// magic, nonzero flags, unknown type, oversized length) is unrecoverable —
/// once Next returns an error the decoder stays failed and the connection
/// must be dropped (there is no resync point inside a corrupt
/// length-prefixed stream).
class FrameDecoder {
 public:
  explicit FrameDecoder(size_t max_payload = kDefaultMaxFramePayload)
      : max_payload_(max_payload) {}

  /// Appends raw bytes from the transport.
  void Feed(std::string_view bytes);

  /// If a complete, well-formed frame is buffered, fills `*out`, sets
  /// `*have_frame` and returns OK. With only a partial frame buffered,
  /// returns OK with `*have_frame` false. Malformed input returns
  /// InvalidArgument (sticky).
  Status Next(Frame* out, bool* have_frame);

  /// Bytes buffered but not yet consumed (diagnostics).
  size_t buffered_bytes() const { return buffer_.size() - pos_; }

 private:
  const size_t max_payload_;
  std::string buffer_;
  size_t pos_ = 0;
  Status failed_;
};

// ----------------------------------------------------------- payload codecs

/// Little-endian primitive appenders.
void AppendU32(uint32_t v, std::string* out);
void AppendU64(uint64_t v, std::string* out);
void AppendI64(int64_t v, std::string* out);
void AppendF64(double v, std::string* out);

/// Sequential little-endian reader over a payload; every getter fails with
/// OutOfRange once the payload is exhausted.
class PayloadReader {
 public:
  explicit PayloadReader(std::string_view payload) : data_(payload) {}

  Status ReadU8(uint8_t* out);
  Status ReadU32(uint32_t* out);
  Status ReadU64(uint64_t* out);
  Status ReadI64(int64_t* out);
  Status ReadF64(double* out);
  Status ReadBytes(size_t n, std::string* out);

  /// OK iff every byte has been consumed (trailing garbage is a protocol
  /// error).
  Status ExpectEnd() const;

  size_t remaining() const { return data_.size() - pos_; }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

/// Event-batch payload: u32 count + count fixed 40-byte records.
void EncodeEventBatch(std::span<const Event> events, std::string* out);
Status DecodeEventBatch(std::string_view payload, std::vector<Event>* out);

/// Error payload: status code + message.
void EncodeError(const Status& status, std::string* out);
Status DecodeError(std::string_view payload);

// ------------------------------------------------- resilience protocol

/// FNV-1a over raw bytes: the integrity hash carried by sequenced frames.
/// The chaos transport can flip payload bytes that still decode cleanly
/// (an event value, a sequence number) — without an end-to-end hash such a
/// frame would be applied and silently break checksum identity. Passing
/// `seed` (a previous HashBytes result) chains the stream across
/// non-contiguous spans.
uint64_t HashBytes(std::string_view bytes,
                   uint64_t seed = 1469598103934665603ull);

/// kOpenSession payload: client-minted nonzero token + options text.
void EncodeOpenSession(uint64_t token, const std::string& options_text,
                       std::string* out);
Status DecodeOpenSession(std::string_view payload, uint64_t* token,
                         std::string* options_text);

/// kSessionAccepted payload: what the server knows about the session.
/// `epoch` counts opens (1 on first registration, +1 per resume);
/// `last_acked_seq` is where a resuming client should resync its window.
struct SessionGrant {
  uint64_t token = 0;
  uint32_t epoch = 0;
  uint64_t last_acked_seq = 0;

  bool operator==(const SessionGrant& other) const = default;
};

void EncodeSessionGrant(const SessionGrant& grant, std::string* out);
Status DecodeSessionGrant(std::string_view payload, SessionGrant* out);

/// Sequenced request envelope: token + monotone seq + FNV-1a of the body,
/// then the body (a kIngest or kHeartbeat payload). Decode verifies the
/// hash and returns the body view into `payload`.
struct SeqEnvelope {
  uint64_t token = 0;
  uint64_t seq = 0;
};

void AppendSeqEnvelope(uint64_t token, uint64_t seq, std::string_view body,
                       std::string* out);
Status DecodeSeqEnvelope(std::string_view payload, SeqEnvelope* out,
                         std::string_view* body);

/// kAck payload.
struct AckInfo {
  uint64_t acked_seq = 0;
  uint8_t replayed = 0;

  bool operator==(const AckInfo& other) const = default;
};

void EncodeAck(const AckInfo& ack, std::string* out);
Status DecodeAck(std::string_view payload, AckInfo* out);

/// kOverloaded payload: admission control's "not now".
struct OverloadInfo {
  uint32_t retry_after_ms = 0;
  std::string message;

  bool operator==(const OverloadInfo& other) const = default;
};

void EncodeOverloaded(const OverloadInfo& info, std::string* out);
Status DecodeOverloaded(std::string_view payload, OverloadInfo* out);

/// Per-tenant accounting snapshot crossing the wire in kReport frames:
/// the counters behind the `in == out + late + shed` identity, the result
/// checksum (byte-equality witness across runs), and summary latency.
struct SnapshotStats {
  uint8_t finished = 0;
  StatusCode status_code = StatusCode::kOk;
  std::string status_message;
  int64_t events_ingested = 0;
  int64_t events_processed = 0;   // == handler events_in
  int64_t events_rejected = 0;
  int64_t events_out = 0;
  int64_t events_late = 0;
  int64_t events_dropped = 0;     // subset of late
  int64_t events_shed = 0;
  int64_t events_force_released = 0;
  int64_t max_buffer_size = 0;
  int64_t results = 0;
  uint64_t result_checksum = 0;
  double mean_buffering_latency_us = 0.0;
  int64_t final_slack_us = 0;
  /// Scheduler accounting from threaded sessions: segments starving
  /// workers stole. Zero on single-threaded sessions.
  int64_t segments_stolen = 0;
  /// Resilience accounting (v3 fields); all zero for plain (non-sequenced)
  /// tenants. `frames_replayed` counts sequenced frames that arrived with
  /// seq <= last acked, `frames_deduped` the ones suppressed without
  /// touching the session — equal by construction (the no-double-apply
  /// invariant the chaos soak gates on). `frames_throttled` counts
  /// kOverloaded replies from admission control.
  uint32_t epoch = 0;
  uint64_t last_acked_seq = 0;
  int64_t frames_replayed = 0;
  int64_t frames_deduped = 0;
  int64_t frames_throttled = 0;

  /// The conservation identity every finished session must satisfy:
  /// in == out + late + shed (drops are a subset of late; force-released
  /// tuples are a subset of out).
  bool AccountingIdentityHolds() const {
    return events_processed == events_out + events_late + events_shed;
  }

  bool operator==(const SnapshotStats& other) const = default;

  std::string ToString() const;
};

void EncodeSnapshotStats(const SnapshotStats& stats, std::string* out);
Status DecodeSnapshotStats(std::string_view payload, SnapshotStats* out);

/// Order-sensitive FNV-style fold over a report's results — the same
/// checksum the loadgen and the R-F25 bench gate on. Two runs with equal
/// checksums emitted byte-identical result sequences (window bounds, key,
/// value at fixed precision, tuple count).
uint64_t ResultChecksum(const RunReport& report);

/// Builds the wire snapshot for a report (`ingested` from the session,
/// `finished` per lifecycle).
SnapshotStats SnapshotFromReport(const RunReport& report, int64_t ingested,
                                 bool finished);

}  // namespace streamq

#endif  // STREAMQ_NET_FRAME_H_
