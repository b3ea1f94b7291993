#include "net/protocol.h"

#include <cstring>

#include "core/ldp_join_sketch.h"

namespace ldpjs {

namespace {

bool IsKnownFrameType(uint8_t type) {
  return type >= static_cast<uint8_t>(NetFrameType::kHello) &&
         type <= static_cast<uint8_t>(NetFrameType::kFleetStats);
}

/// The handshake's version rule, shared by HELLO and HELLO_OK.
Status CheckVersion(uint8_t version) {
  if (version == kNetVersion) return Status::OK();
  return Status::FailedPrecondition(
      "LJSP version mismatch: peer speaks v" + std::to_string(version) +
      ", this build speaks only v" + std::to_string(kNetVersion));
}

/// Receives the rest of a payload whose header was already read. A close
/// before its first byte is still a truncation — the peer promised these
/// bytes — so it is Corruption, never end-of-stream.
Status RecvPayload(const Socket& socket, std::span<uint8_t> rest) {
  const Status status = socket.RecvAll(rest);
  if (status.code() == StatusCode::kNotFound) {
    return Status::Corruption("connection closed mid-frame");
  }
  return status;
}

}  // namespace

std::vector<uint8_t> EncodeHello(const SessionHello& hello) {
  BinaryWriter writer;
  writer.PutU32(kNetMagic);
  writer.PutU8(hello.version);
  writer.PutU32(hello.k);
  writer.PutU32(hello.m);
  writer.PutU64(hello.seed);
  writer.PutDouble(hello.epsilon);
  writer.PutU8(hello.has_region ? 1 : 0);
  writer.PutU32(hello.region_id);
  return writer.TakeBuffer();
}

Result<SessionHello> DecodeHello(std::span<const uint8_t> payload) {
  BinaryReader reader(payload);
  auto magic = reader.GetU32();
  if (!magic.ok()) return magic.status();
  if (*magic != kNetMagic) {
    return Status::Corruption("missing LJSP protocol magic");
  }
  auto version = reader.GetU8();
  if (!version.ok()) return version.status();
  // Checked before the rest: another version's HELLO may not share this
  // layout, and refusing it is a handshake mismatch, not corruption.
  LDPJS_RETURN_IF_ERROR(CheckVersion(*version));
  SessionHello hello;
  hello.version = *version;
  auto k = reader.GetU32();
  if (!k.ok()) return k.status();
  auto m = reader.GetU32();
  if (!m.ok()) return m.status();
  auto seed = reader.GetU64();
  if (!seed.ok()) return seed.status();
  auto epsilon = reader.GetDouble();
  if (!epsilon.ok()) return epsilon.status();
  auto has_region = reader.GetU8();
  if (!has_region.ok()) return has_region.status();
  if (*has_region > 1) {
    return Status::Corruption("HELLO region flag is not 0 or 1");
  }
  auto region = reader.GetU32();
  if (!region.ok()) return region.status();
  if (!reader.AtEnd()) return Status::Corruption("trailing bytes after HELLO");
  hello.k = *k;
  hello.m = *m;
  hello.seed = *seed;
  hello.epsilon = *epsilon;
  hello.has_region = *has_region != 0;
  hello.region_id = *region;
  return hello;
}

std::vector<uint8_t> EncodeHelloOk(const SessionHelloOk& ok) {
  BinaryWriter writer;
  writer.PutU8(ok.version);
  writer.PutU32(ok.num_shards);
  writer.PutU8(ok.acked_data ? 1 : 0);
  writer.PutU64(ok.region_next_epoch);
  return writer.TakeBuffer();
}

Result<SessionHelloOk> DecodeHelloOk(std::span<const uint8_t> payload) {
  BinaryReader reader(payload);
  auto version = reader.GetU8();
  if (!version.ok()) return version.status();
  LDPJS_RETURN_IF_ERROR(CheckVersion(*version));
  auto shards = reader.GetU32();
  if (!shards.ok()) return shards.status();
  auto acked = reader.GetU8();
  if (!acked.ok()) return acked.status();
  auto next_epoch = reader.GetU64();
  if (!next_epoch.ok()) return next_epoch.status();
  if (!reader.AtEnd()) {
    return Status::Corruption("trailing bytes after HELLO_OK");
  }
  SessionHelloOk ok;
  ok.version = *version;
  ok.num_shards = *shards;
  ok.acked_data = *acked != 0;
  ok.region_next_epoch = *next_epoch;
  return ok;
}

std::vector<uint8_t> EncodeEpochPushAck(const EpochPushAck& ack) {
  BinaryWriter writer;
  writer.PutU8(static_cast<uint8_t>(ack.code));
  writer.PutU64(ack.next_epoch);
  return writer.TakeBuffer();
}

Result<EpochPushAck> DecodeEpochPushAck(std::span<const uint8_t> payload) {
  BinaryReader reader(payload);
  auto code = reader.GetU8();
  if (!code.ok()) return code.status();
  if (*code > static_cast<uint8_t>(EpochPushAckCode::kDuplicate)) {
    return Status::Corruption("unknown EPOCH_PUSH_OK code");
  }
  auto next_epoch = reader.GetU64();
  if (!next_epoch.ok()) return next_epoch.status();
  if (!reader.AtEnd()) {
    return Status::Corruption("trailing bytes after EPOCH_PUSH_OK");
  }
  EpochPushAck ack;
  ack.code = static_cast<EpochPushAckCode>(*code);
  ack.next_epoch = *next_epoch;
  return ack;
}

std::vector<uint8_t> EncodeEpochPush(uint32_t region_id, uint64_t epoch,
                                     std::span<const uint8_t> raw_sketch) {
  std::vector<uint8_t> payload;
  payload.reserve(kEpochPushHeaderBytes + raw_sketch.size());
  for (int shift = 0; shift < 32; shift += 8) {
    payload.push_back(static_cast<uint8_t>(region_id >> shift));
  }
  for (int shift = 0; shift < 64; shift += 8) {
    payload.push_back(static_cast<uint8_t>(epoch >> shift));
  }
  payload.insert(payload.end(), raw_sketch.begin(), raw_sketch.end());
  return payload;
}

Result<EpochPush> DecodeEpochPush(std::span<const uint8_t> payload) {
  BinaryReader reader(payload);
  auto region = reader.GetU32();
  if (!region.ok()) return region.status();
  auto epoch = reader.GetU64();
  if (!epoch.ok()) return epoch.status();
  // Zero sketch bytes are legal: the empty-epoch heartbeat, advancing the
  // region's epoch clock without shipping (or merging) any lanes.
  auto sketch = reader.GetRaw(reader.remaining());
  if (!sketch.ok()) return sketch.status();
  EpochPush push;
  push.region_id = *region;
  push.epoch = *epoch;
  push.raw_sketch = *sketch;
  return push;
}

size_t EpochPushPayloadBound(const SketchParams& params) {
  // Measure the real serializer instead of hand-duplicating its layout —
  // if Serialize() ever grows a field, the bound grows with it and a
  // well-formed push can never be rejected as oversized. A raw sketch's
  // size is fully determined by the shape (epsilon only changes values),
  // and this runs once per server construction, so the transient k·m
  // allocation is irrelevant.
  const size_t sketch_bytes =
      LdpJoinSketchServer(params, /*epsilon=*/1.0).Serialize().size();
  return kEpochPushHeaderBytes + sketch_bytes;
}

std::vector<uint8_t> EncodeQueryRequest(const QueryRequest& request) {
  BinaryWriter writer;
  writer.PutU8(static_cast<uint8_t>(request.kind));
  switch (request.kind) {
    case QueryKind::kJoinSize:
      writer.PutFrame(request.probe_sketch);
      break;
    case QueryKind::kFrequency:
      writer.PutU64(request.key);
      break;
    case QueryKind::kFrequentItems:
      writer.PutU64(request.domain);
      writer.PutDouble(request.threshold);
      break;
    case QueryKind::kMultiwayChain:
      writer.PutU32(static_cast<uint32_t>(request.middles.size()));
      for (const auto& middle : request.middles) writer.PutFrame(middle);
      writer.PutFrame(request.probe_sketch);
      break;
    case QueryKind::kRangeCount:
      writer.PutU64(request.range_lo);
      writer.PutU64(request.range_hi);
      break;
    case QueryKind::kPredicateJoin:
      writer.PutU64(request.range_lo);
      writer.PutU64(request.range_hi);
      writer.PutFrame(request.probe_sketch);
      break;
  }
  return writer.TakeBuffer();
}

Result<QueryRequest> DecodeQueryRequest(std::span<const uint8_t> payload) {
  BinaryReader reader(payload);
  auto kind = reader.GetU8();
  if (!kind.ok()) return kind.status();
  if (*kind > static_cast<uint8_t>(QueryKind::kPredicateJoin)) {
    return Status::Corruption("unknown query kind " + std::to_string(*kind));
  }
  QueryRequest request;
  request.kind = static_cast<QueryKind>(*kind);
  switch (request.kind) {
    case QueryKind::kJoinSize: {
      auto probe = reader.GetFrame();
      if (!probe.ok()) return probe.status();
      request.probe_sketch.assign(probe->begin(), probe->end());
      break;
    }
    case QueryKind::kFrequency: {
      auto key = reader.GetU64();
      if (!key.ok()) return key.status();
      request.key = *key;
      break;
    }
    case QueryKind::kFrequentItems: {
      auto domain = reader.GetU64();
      if (!domain.ok()) return domain.status();
      auto threshold = reader.GetDouble();
      if (!threshold.ok()) return threshold.status();
      request.domain = *domain;
      request.threshold = *threshold;
      break;
    }
    case QueryKind::kMultiwayChain: {
      auto count = reader.GetU32();
      if (!count.ok()) return count.status();
      if (*count > kMaxQueryMiddles) {
        return Status::Corruption("multiway query with " +
                                  std::to_string(*count) + " middles");
      }
      request.middles.reserve(*count);
      for (uint32_t i = 0; i < *count; ++i) {
        auto middle = reader.GetFrame();
        if (!middle.ok()) return middle.status();
        request.middles.emplace_back(middle->begin(), middle->end());
      }
      auto probe = reader.GetFrame();
      if (!probe.ok()) return probe.status();
      request.probe_sketch.assign(probe->begin(), probe->end());
      break;
    }
    case QueryKind::kRangeCount:
    case QueryKind::kPredicateJoin: {
      auto lo = reader.GetU64();
      if (!lo.ok()) return lo.status();
      auto hi = reader.GetU64();
      if (!hi.ok()) return hi.status();
      request.range_lo = *lo;
      request.range_hi = *hi;
      if (request.kind == QueryKind::kPredicateJoin) {
        auto probe = reader.GetFrame();
        if (!probe.ok()) return probe.status();
        request.probe_sketch.assign(probe->begin(), probe->end());
      }
      break;
    }
  }
  if (!reader.AtEnd()) return Status::Corruption("trailing bytes after QUERY");
  return request;
}

std::vector<uint8_t> EncodeQueryResponse(const QueryResponse& response) {
  BinaryWriter writer;
  writer.PutU8(static_cast<uint8_t>(response.kind));
  writer.PutU64(response.view_sequence);
  writer.PutU8(response.view_aligned ? 1 : 0);
  writer.PutU64(response.view_epoch);
  writer.PutU64(response.view_reports);
  writer.PutDouble(response.value);
  writer.PutU64(response.items.size());
  for (uint64_t item : response.items) writer.PutU64(item);
  return writer.TakeBuffer();
}

Result<QueryResponse> DecodeQueryResponse(std::span<const uint8_t> payload) {
  BinaryReader reader(payload);
  auto kind = reader.GetU8();
  if (!kind.ok()) return kind.status();
  if (*kind > static_cast<uint8_t>(QueryKind::kPredicateJoin)) {
    return Status::Corruption("unknown query kind in QUERY_OK");
  }
  auto sequence = reader.GetU64();
  if (!sequence.ok()) return sequence.status();
  auto aligned = reader.GetU8();
  if (!aligned.ok()) return aligned.status();
  if (*aligned > 1) {
    return Status::Corruption("QUERY_OK aligned flag is not 0 or 1");
  }
  auto epoch = reader.GetU64();
  if (!epoch.ok()) return epoch.status();
  auto reports = reader.GetU64();
  if (!reports.ok()) return reports.status();
  auto value = reader.GetDouble();
  if (!value.ok()) return value.status();
  auto item_count = reader.GetU64();
  if (!item_count.ok()) return item_count.status();
  if (*item_count > reader.remaining() / 8) {
    return Status::Corruption("QUERY_OK item list exceeds buffer");
  }
  QueryResponse response;
  response.kind = static_cast<QueryKind>(*kind);
  response.view_sequence = *sequence;
  response.view_aligned = *aligned != 0;
  response.view_epoch = *epoch;
  response.view_reports = *reports;
  response.value = *value;
  response.items.reserve(*item_count);
  for (uint64_t i = 0; i < *item_count; ++i) {
    auto item = reader.GetU64();
    if (!item.ok()) return item.status();
    response.items.push_back(*item);
  }
  if (!reader.AtEnd()) {
    return Status::Corruption("trailing bytes after QUERY_OK");
  }
  return response;
}

std::vector<uint8_t> EncodeTraced(NetFrameType inner_type, uint64_t trace_id,
                                  uint64_t origin_ns,
                                  std::span<const uint8_t> inner_payload) {
  std::vector<uint8_t> payload;
  payload.reserve(kTracedHeaderBytes + inner_payload.size());
  payload.push_back(static_cast<uint8_t>(inner_type));
  for (int shift = 0; shift < 64; shift += 8) {
    payload.push_back(static_cast<uint8_t>(trace_id >> shift));
  }
  for (int shift = 0; shift < 64; shift += 8) {
    payload.push_back(static_cast<uint8_t>(origin_ns >> shift));
  }
  payload.insert(payload.end(), inner_payload.begin(), inner_payload.end());
  return payload;
}

Result<TracedFrame> DecodeTraced(std::span<const uint8_t> payload) {
  BinaryReader reader(payload);
  auto inner = reader.GetU8();
  if (!inner.ok()) return inner.status();
  if (*inner != static_cast<uint8_t>(NetFrameType::kData) &&
      *inner != static_cast<uint8_t>(NetFrameType::kEpochPush) &&
      *inner != static_cast<uint8_t>(NetFrameType::kQuery)) {
    return Status::Corruption("TRACED wraps untraceable frame type " +
                              std::to_string(*inner));
  }
  auto trace_id = reader.GetU64();
  if (!trace_id.ok()) return trace_id.status();
  auto origin_ns = reader.GetU64();
  if (!origin_ns.ok()) return origin_ns.status();
  auto rest = reader.GetRaw(reader.remaining());
  if (!rest.ok()) return rest.status();
  TracedFrame frame;
  frame.inner_type = static_cast<NetFrameType>(*inner);
  frame.trace_id = *trace_id;
  frame.origin_ns = *origin_ns;
  frame.inner_payload = *rest;
  return frame;
}

std::vector<uint8_t> EncodeErrorPayload(const Status& status) {
  std::vector<uint8_t> payload;
  payload.reserve(1 + status.message().size());
  payload.push_back(static_cast<uint8_t>(status.code()));
  for (char c : status.message()) {
    payload.push_back(static_cast<uint8_t>(c));
  }
  return payload;
}

Status DecodeErrorPayload(std::span<const uint8_t> payload) {
  if (payload.empty()) return Status::Internal("peer reported an error");
  const uint8_t code = payload[0];
  std::string message(reinterpret_cast<const char*>(payload.data()) + 1,
                      payload.size() - 1);
  if (code == 0 ||
      code > static_cast<uint8_t>(StatusCode::kDeadlineExceeded)) {
    return Status::Internal("peer reported an error: " + message);
  }
  return Status(static_cast<StatusCode>(code), std::move(message));
}

Result<NetFrameHeader> ParseNetFrameHeader(
    std::span<const uint8_t, kNetFrameHeaderBytes> header,
    size_t max_payload) {
  const uint32_t len = static_cast<uint32_t>(header[0]) |
                       (static_cast<uint32_t>(header[1]) << 8) |
                       (static_cast<uint32_t>(header[2]) << 16) |
                       (static_cast<uint32_t>(header[3]) << 24);
  if (len > max_payload) {
    return Status::Corruption("frame payload of " + std::to_string(len) +
                              " bytes exceeds the limit of " +
                              std::to_string(max_payload));
  }
  if (!IsKnownFrameType(header[4])) {
    return Status::Corruption("unknown frame type " +
                              std::to_string(header[4]));
  }
  NetFrameHeader parsed;
  parsed.type = static_cast<NetFrameType>(header[4]);
  parsed.payload_len = len;
  return parsed;
}

Status WriteNetFrame(const Socket& socket, NetFrameType type,
                     std::span<const uint8_t> payload) {
  LDPJS_CHECK(payload.size() <= kMaxControlFramePayload);
  // Gathered write: header + payload leave as one segment/syscall even on
  // an idle TCP_NODELAY connection, and stay allocation-free.
  uint8_t header[kNetFrameHeaderBytes];
  const uint32_t len = static_cast<uint32_t>(payload.size());
  header[0] = static_cast<uint8_t>(len);
  header[1] = static_cast<uint8_t>(len >> 8);
  header[2] = static_cast<uint8_t>(len >> 16);
  header[3] = static_cast<uint8_t>(len >> 24);
  header[4] = static_cast<uint8_t>(type);
  return socket.SendAllV(header, payload);
}

Result<NetFrame> ReadNetFrame(const Socket& socket, size_t max_payload) {
  uint8_t header[kNetFrameHeaderBytes];
  // RecvAll distinguishes a close on the frame boundary (NotFound — the
  // peer is simply done) from a close inside the header (Corruption).
  LDPJS_RETURN_IF_ERROR(socket.RecvAll(header));
  auto parsed = ParseNetFrameHeader(header, max_payload);
  if (!parsed.ok()) return parsed.status();
  NetFrame frame;
  frame.type = parsed->type;
  frame.payload.resize(parsed->payload_len);
  const Status status = RecvPayload(socket, frame.payload);
  if (!status.ok()) return status;
  return frame;
}

Result<BufferedFrame> FrameReader::Next(size_t max_payload) {
  if (begin_ == end_) begin_ = end_ = 0;  // the whole buffer is free again
  while (end_ - begin_ < kNetFrameHeaderBytes) {
    if (begin_ + kNetFrameHeaderBytes > buffer_.size()) Compact();
    LDPJS_RETURN_IF_ERROR(Fill(/*at_boundary=*/begin_ == end_));
  }
  auto parsed = ParseNetFrameHeader(
      std::span<const uint8_t, kNetFrameHeaderBytes>(buffer_.data() + begin_,
                                                     kNetFrameHeaderBytes),
      max_payload);
  if (!parsed.ok()) return parsed.status();
  begin_ += kNetFrameHeaderBytes;
  const size_t len = parsed->payload_len;
  BufferedFrame frame;
  frame.type = parsed->type;
  if (len <= buffer_.size()) {
    if (begin_ + len > buffer_.size()) Compact();
    while (end_ - begin_ < len) {
      LDPJS_RETURN_IF_ERROR(Fill(/*at_boundary=*/false));
    }
    frame.buffered = std::span<const uint8_t>(buffer_.data() + begin_, len);
    begin_ += len;
    return frame;
  }
  // Larger than the whole buffer: what is buffered is a prefix of this
  // payload (never of the next frame), and the rest bypasses the buffer.
  const size_t prefix = end_ - begin_;
  frame.owned.resize(len);
  std::memcpy(frame.owned.data(), buffer_.data() + begin_, prefix);
  begin_ = end_ = 0;
  const Status status = RecvPayload(
      socket_, std::span<uint8_t>(frame.owned).subspan(prefix));
  if (!status.ok()) return status;
  return frame;
}

Status FrameReader::Fill(bool at_boundary) {
  auto received = socket_.RecvSome(
      std::span<uint8_t>(buffer_.data() + end_, buffer_.size() - end_));
  if (!received.ok()) return received.status();
  if (*received == 0) {
    if (at_boundary) return Status::NotFound("end of stream");
    return Status::Corruption("connection closed mid-frame");
  }
  end_ += *received;
  return Status::OK();
}

void FrameReader::Compact() {
  std::memmove(buffer_.data(), buffer_.data() + begin_, end_ - begin_);
  end_ -= begin_;
  begin_ = 0;
}

}  // namespace ldpjs
