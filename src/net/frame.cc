#include "net/frame.h"

#include <bit>
#include <cstring>
#include <sstream>

namespace streamq {

namespace {

/// Fixed per-event record size in kIngest payloads: 4 i64 + 1 f64.
constexpr size_t kEventFields = 5;
constexpr size_t kEventWireBytes = kEventFields * sizeof(uint64_t);

static_assert(std::endian::native == std::endian::little ||
                  std::endian::native == std::endian::big,
              "the event codec assumes a little- or big-endian host");

/// A 64-bit field between host and wire (little-endian) byte order; the
/// same swap converts either way. Every 64-bit field on the wire goes
/// through StoreU64/LoadU64 below, so this is the one place the order is
/// defined.
uint64_t WireOrder(uint64_t v) {
  if constexpr (std::endian::native == std::endian::big) {
    return __builtin_bswap64(v);
  }
  return v;
}

void StoreU64(uint64_t v, char* p) {
  const uint64_t w = WireOrder(v);
  std::memcpy(p, &w, sizeof(w));
}

uint64_t LoadU64(const char* p) {
  uint64_t w;
  std::memcpy(&w, p, sizeof(w));
  return WireOrder(w);
}

uint64_t Fold(uint64_t h, int64_t v) {
  h ^= static_cast<uint64_t>(v);
  h *= 0x100000001B3ull;
  return h;
}

}  // namespace

bool IsRequestFrameType(FrameType type) {
  switch (type) {
    case FrameType::kRegisterQuery:
    case FrameType::kIngest:
    case FrameType::kHeartbeat:
    case FrameType::kSnapshot:
    case FrameType::kUnregister:
    case FrameType::kShutdown:
    case FrameType::kMetricsRequest:
    case FrameType::kOpenSession:
    case FrameType::kSeqIngest:
    case FrameType::kSeqHeartbeat:
      return true;
    default:
      return false;
  }
}

bool IsReplyFrameType(FrameType type) {
  switch (type) {
    case FrameType::kOk:
    case FrameType::kError:
    case FrameType::kReport:
    case FrameType::kMetricsReply:
    case FrameType::kSessionAccepted:
    case FrameType::kAck:
    case FrameType::kOverloaded:
      return true;
    default:
      return false;
  }
}

// ------------------------------------------------------------- primitives

void AppendU32(uint32_t v, std::string* out) {
  char buf[4];
  for (int i = 0; i < 4; ++i) buf[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  out->append(buf, 4);
}

void AppendU64(uint64_t v, std::string* out) {
  char buf[8];
  StoreU64(v, buf);
  out->append(buf, 8);
}

void AppendI64(int64_t v, std::string* out) {
  AppendU64(static_cast<uint64_t>(v), out);
}

void AppendF64(double v, std::string* out) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  AppendU64(bits, out);
}

Status PayloadReader::ReadU8(uint8_t* out) {
  if (remaining() < 1) return Status::OutOfRange("payload truncated");
  *out = static_cast<uint8_t>(data_[pos_++]);
  return Status::OK();
}

Status PayloadReader::ReadU32(uint32_t* out) {
  if (remaining() < 4) return Status::OutOfRange("payload truncated");
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_ + i])) << (8 * i);
  }
  pos_ += 4;
  *out = v;
  return Status::OK();
}

Status PayloadReader::ReadU64(uint64_t* out) {
  if (remaining() < 8) return Status::OutOfRange("payload truncated");
  *out = LoadU64(data_.data() + pos_);
  pos_ += 8;
  return Status::OK();
}

Status PayloadReader::ReadI64(int64_t* out) {
  uint64_t v;
  STREAMQ_RETURN_NOT_OK(ReadU64(&v));
  *out = static_cast<int64_t>(v);
  return Status::OK();
}

Status PayloadReader::ReadF64(double* out) {
  uint64_t bits;
  STREAMQ_RETURN_NOT_OK(ReadU64(&bits));
  std::memcpy(out, &bits, sizeof(*out));
  return Status::OK();
}

Status PayloadReader::ReadBytes(size_t n, std::string* out) {
  if (remaining() < n) return Status::OutOfRange("payload truncated");
  out->assign(data_.substr(pos_, n));
  pos_ += n;
  return Status::OK();
}

Status PayloadReader::ExpectEnd() const {
  if (pos_ != data_.size()) {
    return Status::InvalidArgument("trailing bytes in payload");
  }
  return Status::OK();
}

// ------------------------------------------------------------------ frames

void AppendFrame(const Frame& frame, std::string* out) {
  out->push_back(kFrameMagic0);
  out->push_back(kFrameMagic1);
  out->push_back(static_cast<char>(frame.type));
  out->push_back(0);  // flags
  AppendU32(frame.tenant, out);
  AppendU32(static_cast<uint32_t>(frame.payload.size()), out);
  out->append(frame.payload);
}

void FrameDecoder::Feed(std::string_view bytes) {
  // Compact once consumed bytes dominate, so the buffer stays bounded by
  // one frame plus one read.
  if (pos_ > 0 && pos_ >= buffer_.size() / 2) {
    buffer_.erase(0, pos_);
    pos_ = 0;
  }
  buffer_.append(bytes);
}

Status FrameDecoder::Next(Frame* out, bool* have_frame) {
  *have_frame = false;
  if (!failed_.ok()) return failed_;
  const size_t available = buffer_.size() - pos_;
  if (available < kFrameHeaderBytes) return Status::OK();
  const char* h = buffer_.data() + pos_;
  if (h[0] != kFrameMagic0 || h[1] != kFrameMagic1) {
    failed_ = Status::InvalidArgument("bad frame magic");
    return failed_;
  }
  const uint8_t type = static_cast<uint8_t>(h[2]);
  if (!IsRequestFrameType(static_cast<FrameType>(type)) &&
      !IsReplyFrameType(static_cast<FrameType>(type))) {
    failed_ = Status::InvalidArgument("unknown frame type " +
                                      std::to_string(type));
    return failed_;
  }
  if (h[3] != 0) {
    failed_ = Status::InvalidArgument("nonzero frame flags");
    return failed_;
  }
  PayloadReader header(std::string_view(h + 4, 8));
  uint32_t tenant = 0, length = 0;
  (void)header.ReadU32(&tenant);
  (void)header.ReadU32(&length);
  if (length > max_payload_) {
    failed_ = Status::InvalidArgument(
        "frame payload of " + std::to_string(length) + " bytes exceeds cap " +
        std::to_string(max_payload_));
    return failed_;
  }
  if (available < kFrameHeaderBytes + length) return Status::OK();
  out->type = static_cast<FrameType>(type);
  out->tenant = tenant;
  out->payload.assign(buffer_, pos_ + kFrameHeaderBytes, length);
  pos_ += kFrameHeaderBytes + length;
  *have_frame = true;
  return Status::OK();
}

// ---------------------------------------------------------- event batches

// Both loops store or load the five 8-byte fields of each record in
// place: the decoder checks the payload length once, up front, so no field
// needs a bounds check or a Status of its own.
void EncodeEventBatch(std::span<const Event> events, std::string* out) {
  AppendU32(static_cast<uint32_t>(events.size()), out);
  const size_t at = out->size();
  out->resize(at + events.size() * kEventWireBytes);
  char* p = out->data() + at;
  for (const Event& e : events) {
    StoreU64(static_cast<uint64_t>(e.id), p);
    StoreU64(static_cast<uint64_t>(e.key), p + 8);
    StoreU64(static_cast<uint64_t>(e.event_time), p + 16);
    StoreU64(static_cast<uint64_t>(e.arrival_time), p + 24);
    StoreU64(std::bit_cast<uint64_t>(e.value), p + 32);
    p += kEventWireBytes;
  }
}

Status DecodeEventBatch(std::string_view payload, std::vector<Event>* out) {
  PayloadReader reader(payload);
  uint32_t count = 0;
  STREAMQ_RETURN_NOT_OK(reader.ReadU32(&count));
  if (reader.remaining() != count * kEventWireBytes) {
    return Status::InvalidArgument(
        "event batch length mismatch: count=" + std::to_string(count) +
        " but " + std::to_string(reader.remaining()) + " payload bytes");
  }
  const char* p = payload.data() + (payload.size() - reader.remaining());
  const size_t first = out->size();
  out->resize(first + count);
  for (Event& e : std::span<Event>(out->data() + first, count)) {
    e.id = static_cast<int64_t>(LoadU64(p));
    e.key = static_cast<int64_t>(LoadU64(p + 8));
    e.event_time = static_cast<int64_t>(LoadU64(p + 16));
    e.arrival_time = static_cast<int64_t>(LoadU64(p + 24));
    e.value = std::bit_cast<double>(LoadU64(p + 32));
    p += kEventWireBytes;
  }
  return Status::OK();
}

// ------------------------------------------------------------------ errors

void EncodeError(const Status& status, std::string* out) {
  AppendU32(static_cast<uint32_t>(status.code()), out);
  AppendU32(static_cast<uint32_t>(status.message().size()), out);
  out->append(status.message());
}

Status DecodeError(std::string_view payload) {
  PayloadReader reader(payload);
  uint32_t code = 0, length = 0;
  STREAMQ_RETURN_NOT_OK(reader.ReadU32(&code));
  STREAMQ_RETURN_NOT_OK(reader.ReadU32(&length));
  std::string message;
  STREAMQ_RETURN_NOT_OK(reader.ReadBytes(length, &message));
  STREAMQ_RETURN_NOT_OK(reader.ExpectEnd());
  if (code == 0 || code > static_cast<uint32_t>(StatusCode::kCancelled)) {
    return Status::Internal("server error with unintelligible code " +
                            std::to_string(code) + ": " + message);
  }
  return Status(static_cast<StatusCode>(code), std::move(message));
}

// ------------------------------------------------- resilience protocol

uint64_t HashBytes(std::string_view bytes, uint64_t seed) {
  uint64_t h = seed;
  for (const char c : bytes) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001B3ull;
  }
  return h;
}

void EncodeOpenSession(uint64_t token, const std::string& options_text,
                       std::string* out) {
  const size_t start = out->size();
  AppendU64(token, out);
  // The hash binds the token too: a token byte flipped in flight would
  // otherwise arm the server session under a key its owner can never
  // present again.
  AppendU64(HashBytes(options_text,
                      HashBytes(std::string_view(*out).substr(start))),
            out);
  out->append(options_text);
}

Status DecodeOpenSession(std::string_view payload, uint64_t* token,
                         std::string* options_text) {
  PayloadReader reader(payload);
  uint64_t hash = 0;
  STREAMQ_RETURN_NOT_OK(reader.ReadU64(token));
  STREAMQ_RETURN_NOT_OK(reader.ReadU64(&hash));
  STREAMQ_RETURN_NOT_OK(reader.ReadBytes(reader.remaining(), options_text));
  if (*token == 0) {
    return Status::InvalidArgument("open-session token must be nonzero");
  }
  if (hash != HashBytes(*options_text, HashBytes(payload.substr(0, 8)))) {
    return Status::IOError("open-session payload failed integrity check");
  }
  return Status::OK();
}

void EncodeSessionGrant(const SessionGrant& grant, std::string* out) {
  const size_t start = out->size();
  AppendU64(grant.token, out);
  AppendU32(grant.epoch, out);
  AppendU64(grant.last_acked_seq, out);
  AppendU64(HashBytes(std::string_view(*out).substr(start)), out);
}

Status DecodeSessionGrant(std::string_view payload, SessionGrant* out) {
  PayloadReader reader(payload);
  STREAMQ_RETURN_NOT_OK(reader.ReadU64(&out->token));
  STREAMQ_RETURN_NOT_OK(reader.ReadU32(&out->epoch));
  STREAMQ_RETURN_NOT_OK(reader.ReadU64(&out->last_acked_seq));
  uint64_t hash = 0;
  STREAMQ_RETURN_NOT_OK(reader.ReadU64(&hash));
  STREAMQ_RETURN_NOT_OK(reader.ExpectEnd());
  if (hash != HashBytes(payload.substr(0, payload.size() - 8))) {
    return Status::IOError("session grant failed integrity check");
  }
  return Status::OK();
}

void AppendSeqEnvelope(uint64_t token, uint64_t seq, std::string_view body,
                       std::string* out) {
  const size_t start = out->size();
  AppendU64(token, out);
  AppendU64(seq, out);
  // The hash binds token and seq along with the body: all three steer
  // server-side session state (routing, dedup), so none may survive a
  // byte flip and still decode cleanly.
  AppendU64(HashBytes(body, HashBytes(std::string_view(*out).substr(start))),
            out);
  out->append(body);
}

Status DecodeSeqEnvelope(std::string_view payload, SeqEnvelope* out,
                         std::string_view* body) {
  PayloadReader reader(payload);
  uint64_t hash = 0;
  STREAMQ_RETURN_NOT_OK(reader.ReadU64(&out->token));
  STREAMQ_RETURN_NOT_OK(reader.ReadU64(&out->seq));
  STREAMQ_RETURN_NOT_OK(reader.ReadU64(&hash));
  *body = payload.substr(payload.size() - reader.remaining());
  if (hash != HashBytes(*body, HashBytes(payload.substr(0, 16)))) {
    return Status::IOError("sequenced frame failed integrity check");
  }
  return Status::OK();
}

void EncodeAck(const AckInfo& ack, std::string* out) {
  const size_t start = out->size();
  AppendU64(ack.acked_seq, out);
  out->push_back(static_cast<char>(ack.replayed));
  AppendU64(HashBytes(std::string_view(*out).substr(start)), out);
}

Status DecodeAck(std::string_view payload, AckInfo* out) {
  PayloadReader reader(payload);
  STREAMQ_RETURN_NOT_OK(reader.ReadU64(&out->acked_seq));
  STREAMQ_RETURN_NOT_OK(reader.ReadU8(&out->replayed));
  uint64_t hash = 0;
  STREAMQ_RETURN_NOT_OK(reader.ReadU64(&hash));
  STREAMQ_RETURN_NOT_OK(reader.ExpectEnd());
  if (out->replayed > 1) {
    return Status::IOError("ack replayed flag out of range");
  }
  if (hash != HashBytes(payload.substr(0, payload.size() - 8))) {
    return Status::IOError("ack failed integrity check");
  }
  return Status::OK();
}

void EncodeOverloaded(const OverloadInfo& info, std::string* out) {
  AppendU32(info.retry_after_ms, out);
  AppendU32(static_cast<uint32_t>(info.message.size()), out);
  out->append(info.message);
}

Status DecodeOverloaded(std::string_view payload, OverloadInfo* out) {
  PayloadReader reader(payload);
  uint32_t msg_len = 0;
  STREAMQ_RETURN_NOT_OK(reader.ReadU32(&out->retry_after_ms));
  STREAMQ_RETURN_NOT_OK(reader.ReadU32(&msg_len));
  STREAMQ_RETURN_NOT_OK(reader.ReadBytes(msg_len, &out->message));
  return reader.ExpectEnd();
}

// --------------------------------------------------------------- snapshots

namespace {
// v2 appended the scheduler counters; v3 the resilience counters (epoch,
// last_acked_seq, replay/dedup/throttle); v4 dropped the shard-migration
// counter, leaving segments_stolen as the one scheduler counter. Decoding
// is strict: both peers ship from one tree, so there is no cross-version
// traffic to tolerate, and a version mismatch should fail loudly instead
// of zero-filling.
constexpr uint8_t kSnapshotVersion = 4;
}  // namespace

void EncodeSnapshotStats(const SnapshotStats& stats, std::string* out) {
  out->push_back(static_cast<char>(kSnapshotVersion));
  out->push_back(static_cast<char>(stats.finished));
  AppendU32(static_cast<uint32_t>(stats.status_code), out);
  AppendU32(static_cast<uint32_t>(stats.status_message.size()), out);
  out->append(stats.status_message);
  AppendI64(stats.events_ingested, out);
  AppendI64(stats.events_processed, out);
  AppendI64(stats.events_rejected, out);
  AppendI64(stats.events_out, out);
  AppendI64(stats.events_late, out);
  AppendI64(stats.events_dropped, out);
  AppendI64(stats.events_shed, out);
  AppendI64(stats.events_force_released, out);
  AppendI64(stats.max_buffer_size, out);
  AppendI64(stats.results, out);
  AppendU64(stats.result_checksum, out);
  AppendF64(stats.mean_buffering_latency_us, out);
  AppendI64(stats.final_slack_us, out);
  AppendI64(stats.segments_stolen, out);
  AppendU32(stats.epoch, out);
  AppendU64(stats.last_acked_seq, out);
  AppendI64(stats.frames_replayed, out);
  AppendI64(stats.frames_deduped, out);
  AppendI64(stats.frames_throttled, out);
}

Status DecodeSnapshotStats(std::string_view payload, SnapshotStats* out) {
  PayloadReader reader(payload);
  uint8_t version = 0;
  STREAMQ_RETURN_NOT_OK(reader.ReadU8(&version));
  if (version != kSnapshotVersion) {
    return Status::InvalidArgument("unknown snapshot version " +
                                   std::to_string(version));
  }
  STREAMQ_RETURN_NOT_OK(reader.ReadU8(&out->finished));
  uint32_t code = 0, msg_len = 0;
  STREAMQ_RETURN_NOT_OK(reader.ReadU32(&code));
  if (code > static_cast<uint32_t>(StatusCode::kCancelled)) {
    return Status::InvalidArgument("bad snapshot status code");
  }
  out->status_code = static_cast<StatusCode>(code);
  STREAMQ_RETURN_NOT_OK(reader.ReadU32(&msg_len));
  STREAMQ_RETURN_NOT_OK(reader.ReadBytes(msg_len, &out->status_message));
  STREAMQ_RETURN_NOT_OK(reader.ReadI64(&out->events_ingested));
  STREAMQ_RETURN_NOT_OK(reader.ReadI64(&out->events_processed));
  STREAMQ_RETURN_NOT_OK(reader.ReadI64(&out->events_rejected));
  STREAMQ_RETURN_NOT_OK(reader.ReadI64(&out->events_out));
  STREAMQ_RETURN_NOT_OK(reader.ReadI64(&out->events_late));
  STREAMQ_RETURN_NOT_OK(reader.ReadI64(&out->events_dropped));
  STREAMQ_RETURN_NOT_OK(reader.ReadI64(&out->events_shed));
  STREAMQ_RETURN_NOT_OK(reader.ReadI64(&out->events_force_released));
  STREAMQ_RETURN_NOT_OK(reader.ReadI64(&out->max_buffer_size));
  STREAMQ_RETURN_NOT_OK(reader.ReadI64(&out->results));
  STREAMQ_RETURN_NOT_OK(reader.ReadU64(&out->result_checksum));
  STREAMQ_RETURN_NOT_OK(reader.ReadF64(&out->mean_buffering_latency_us));
  STREAMQ_RETURN_NOT_OK(reader.ReadI64(&out->final_slack_us));
  STREAMQ_RETURN_NOT_OK(reader.ReadI64(&out->segments_stolen));
  STREAMQ_RETURN_NOT_OK(reader.ReadU32(&out->epoch));
  STREAMQ_RETURN_NOT_OK(reader.ReadU64(&out->last_acked_seq));
  STREAMQ_RETURN_NOT_OK(reader.ReadI64(&out->frames_replayed));
  STREAMQ_RETURN_NOT_OK(reader.ReadI64(&out->frames_deduped));
  STREAMQ_RETURN_NOT_OK(reader.ReadI64(&out->frames_throttled));
  return reader.ExpectEnd();
}

std::string SnapshotStats::ToString() const {
  std::ostringstream out;
  out << (finished ? "final" : "live") << " in=" << events_processed
      << " out=" << events_out << " late=" << events_late
      << " shed=" << events_shed << " rejected=" << events_rejected
      << " results=" << results << " checksum=" << result_checksum;
  if (status_code != StatusCode::kOk) {
    out << " status=" << StatusCodeToString(status_code);
  }
  return out.str();
}

uint64_t ResultChecksum(const RunReport& report) {
  uint64_t h = 1469598103934665603ull;
  for (const WindowResult& r : report.results) {
    h = Fold(h, r.bounds.start);
    h = Fold(h, r.key);
    h = Fold(h, static_cast<int64_t>(r.value * 1e6));
    h = Fold(h, r.tuple_count);
  }
  return h;
}

SnapshotStats SnapshotFromReport(const RunReport& report, int64_t ingested,
                                 bool finished) {
  SnapshotStats s;
  s.finished = finished ? 1 : 0;
  s.status_code = report.status.code();
  s.status_message = report.status.message();
  s.events_ingested = ingested;
  s.events_processed = report.events_processed;
  s.events_rejected = report.events_rejected;
  s.events_out = report.handler_stats.events_out;
  s.events_late = report.handler_stats.events_late;
  s.events_dropped = report.handler_stats.events_dropped;
  s.events_shed = report.handler_stats.events_shed;
  s.events_force_released = report.handler_stats.events_force_released;
  s.max_buffer_size = report.handler_stats.max_buffer_size;
  s.results = static_cast<int64_t>(report.results.size());
  s.result_checksum = ResultChecksum(report);
  s.mean_buffering_latency_us = report.handler_stats.buffering_latency_us.mean();
  s.final_slack_us = report.final_slack;
  s.segments_stolen = report.segments_stolen;
  return s;
}

}  // namespace streamq
