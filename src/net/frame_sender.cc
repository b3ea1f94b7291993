#include "net/frame_sender.h"

#include <atomic>
#include <chrono>
#include <thread>

#include "common/random.h"
#include "obs/metrics.h"

namespace ldpjs {

namespace {

/// Process-unique trace ids: a mix of a monotone draw counter and the wall
/// clock, so ids from different processes (or restarts) collide only with
/// hash probability and id 0 — the "untraced" sentinel — never comes out.
uint64_t NextTraceId() {
  static std::atomic<uint64_t> counter{0};
  const uint64_t id = Mix64(
      (counter.fetch_add(1, std::memory_order_relaxed) << 20) ^ NowNanos());
  return id == 0 ? 1 : id;
}

}  // namespace

Result<FrameSender> FrameSender::Connect(const std::string& host,
                                         uint16_t port,
                                         const SketchParams& params,
                                         double epsilon,
                                         const Options& options) {
  auto socket = Socket::ConnectTcp(host, port, options.fault_site);
  if (!socket.ok()) return socket.status();
  if (options.recv_timeout_seconds > 0) {
    // Before the handshake, so even a server that accepts and goes mute
    // cannot park this client forever waiting for HELLO_OK.
    socket->SetRecvTimeout(options.recv_timeout_seconds);
  }

  SessionHello hello;
  hello.k = static_cast<uint32_t>(params.k);
  hello.m = static_cast<uint32_t>(params.m);
  hello.seed = params.seed;
  hello.epsilon = epsilon;
  hello.has_region = options.announce_region;
  hello.region_id = options.region_id;
  LDPJS_RETURN_IF_ERROR(
      WriteNetFrame(*socket, NetFrameType::kHello, EncodeHello(hello)));

  auto reply = ReadNetFrame(*socket, kMaxControlFramePayload);
  if (!reply.ok()) return reply.status();
  if (reply->type == NetFrameType::kError) {
    return DecodeErrorPayload(reply->payload);
  }
  if (reply->type != NetFrameType::kHelloOk) {
    return Status::Corruption("expected HELLO_OK from server");
  }
  // DecodeHelloOk refuses a server of another protocol version.
  auto session = DecodeHelloOk(reply->payload);
  if (!session.ok()) return session.status();
  return FrameSender(std::move(*socket), *session, options);
}

Result<NetFrame> FrameSender::ReadReply() {
  auto frame = ReadNetFrame(socket_, kMaxControlFramePayload);
  if (!frame.ok()) {
    if (frame.status().code() == StatusCode::kNotFound) {
      return Status::Unavailable("server closed the connection");
    }
    return frame.status();
  }
  if (frame->type == NetFrameType::kError) {
    return DecodeErrorPayload(frame->payload);
  }
  return frame;
}

Status FrameSender::SendEncodedBatch(std::span<const uint8_t> envelope) {
  TraceContext trace;
  if (options_.trace_every > 0 && batches_sent_ % options_.trace_every == 0) {
    trace.trace_id = NextTraceId();
    trace.origin_ns = NowNanos();
  }
  return SendTracedBatch(envelope, trace);
}

Status FrameSender::SendTracedBatch(std::span<const uint8_t> envelope,
                                    const TraceContext& trace) {
  LDPJS_CHECK(!finished_);
  ++batches_sent_;
  std::vector<uint8_t> wrapped;
  std::span<const uint8_t> wire = envelope;
  NetFrameType type = NetFrameType::kData;
  const uint64_t send_start_ns =
      trace.active() && ObsEnabled() ? NowNanos() : 0;
  if (trace.active()) {
    wrapped = EncodeTraced(NetFrameType::kData, trace.trace_id,
                           trace.origin_ns, envelope);
    wire = wrapped;
    type = NetFrameType::kTraced;
  }
  for (int attempt = 0;; ++attempt) {
    LDPJS_RETURN_IF_ERROR(WriteNetFrame(socket_, type, wire));
    ++frames_sent_;
    bytes_sent_ += kNetFrameHeaderBytes + wire.size();
    if (send_start_ns != 0 && attempt == 0) {
      // The client-side span covers origin (encode start) → handed to the
      // kernel; the server's queue span picks up from its enqueue.
      TraceLog::Global().Record(trace.trace_id, "client_send",
                                trace.origin_ns, NowNanos());
    }
    if (!session_.acked_data) return Status::OK();
    auto reply = ReadReply();
    if (!reply.ok()) return reply.status();
    if (reply->type != NetFrameType::kDataAck || reply->payload.size() != 1) {
      return Status::Corruption("expected DATA_ACK");
    }
    if (reply->payload[0] == static_cast<uint8_t>(DataAckCode::kAbsorbed)) {
      if (attempt > 0) busy_backoff_.Reset();  // incident over
      return Status::OK();
    }
    // Busy: the server shed the frame under backpressure. Retry the same
    // bytes after a jittered, exponentially growing backoff; lanes are
    // integer adds, so a retried frame lands exactly once (it was never
    // ingested) and ordering cannot matter.
    ++busy_retries_;
    if (attempt >= options_.max_busy_retries) {
      return Status::Unavailable("server still busy after " +
                                 std::to_string(attempt) + " retries");
    }
    busy_backoff_.SleepNext();
  }
}

Status FrameSender::SendReports(std::span<const LdpReport> reports) {
  BinaryWriter writer;
  for (size_t first = 0; first < reports.size();
       first += kMaxWireBatchReports) {
    const size_t count =
        std::min(kMaxWireBatchReports, reports.size() - first);
    writer = BinaryWriter();
    EncodeReportBatch(reports.subspan(first, count), writer);
    LDPJS_RETURN_IF_ERROR(SendEncodedBatch(writer.buffer()));
  }
  return Status::OK();
}

Result<std::vector<uint8_t>> FrameSender::SnapshotRawSketch() {
  LDPJS_CHECK(!finished_);
  LDPJS_RETURN_IF_ERROR(WriteNetFrame(socket_, NetFrameType::kSnapshot, {}));
  auto reply = ReadReply();
  if (!reply.ok()) return reply.status();
  if (reply->type != NetFrameType::kSnapshotData) {
    return Status::Corruption("expected SNAPSHOT_DATA");
  }
  return std::move(reply->payload);
}

Result<EpochPushAck> FrameSender::PushEpochSnapshot(
    uint32_t region_id, uint64_t epoch, std::span<const uint8_t> raw_sketch) {
  return PushEpochSnapshotTraced(region_id, epoch, raw_sketch,
                                 TraceContext{});
}

Result<EpochPushAck> FrameSender::PushEpochSnapshotTraced(
    uint32_t region_id, uint64_t epoch, std::span<const uint8_t> raw_sketch,
    const TraceContext& trace) {
  LDPJS_CHECK(!finished_);
  std::vector<uint8_t> payload = EncodeEpochPush(region_id, epoch, raw_sketch);
  NetFrameType type = NetFrameType::kEpochPush;
  if (trace.active()) {
    // Origin preserved from the client that produced the traced batch — the
    // central's view publish then measures true client→central latency.
    payload = EncodeTraced(NetFrameType::kEpochPush, trace.trace_id,
                           trace.origin_ns, payload);
    type = NetFrameType::kTraced;
  }
  LDPJS_RETURN_IF_ERROR(WriteNetFrame(socket_, type, payload));
  ++frames_sent_;
  bytes_sent_ += kNetFrameHeaderBytes + payload.size();
  auto reply = ReadReply();
  if (!reply.ok()) return reply.status();
  if (reply->type != NetFrameType::kEpochPushOk) {
    return Status::Corruption("expected EPOCH_PUSH_OK");
  }
  return DecodeEpochPushAck(reply->payload);
}

Result<std::string> FrameSender::Stats() {
  LDPJS_CHECK(!finished_);
  LDPJS_RETURN_IF_ERROR(
      WriteNetFrame(socket_, NetFrameType::kStatsRequest, {}));
  auto reply = ReadReply();
  if (!reply.ok()) return reply.status();
  if (reply->type != NetFrameType::kStats) {
    return Status::Corruption("expected STATS");
  }
  return std::string(reply->payload.begin(), reply->payload.end());
}

Status FrameSender::PushStats(const FleetSnapshot& snapshot) {
  LDPJS_CHECK(!finished_);
  const std::vector<uint8_t> payload = EncodeFleetSnapshot(snapshot);
  LDPJS_RETURN_IF_ERROR(
      WriteNetFrame(socket_, NetFrameType::kStatsPush, payload));
  ++frames_sent_;
  bytes_sent_ += kNetFrameHeaderBytes + payload.size();
  auto reply = ReadReply();
  if (!reply.ok()) return reply.status();
  if (reply->type != NetFrameType::kStatsPushOk) {
    return Status::Corruption("expected STATS_PUSH_OK");
  }
  return Status::OK();
}

Result<FleetView> FrameSender::FleetStats() {
  LDPJS_CHECK(!finished_);
  LDPJS_RETURN_IF_ERROR(
      WriteNetFrame(socket_, NetFrameType::kFleetStatsRequest, {}));
  auto reply = ReadReply();
  if (!reply.ok()) return reply.status();
  if (reply->type != NetFrameType::kFleetStats) {
    return Status::Corruption("expected FLEET_STATS");
  }
  return DecodeFleetView(reply->payload);
}

Status FrameSender::Ping() {
  LDPJS_CHECK(!finished_);
  LDPJS_RETURN_IF_ERROR(WriteNetFrame(socket_, NetFrameType::kPing, {}));
  auto reply = ReadReply();
  if (!reply.ok()) return reply.status();
  if (reply->type != NetFrameType::kPingOk) {
    return Status::Corruption("expected PING_OK");
  }
  return Status::OK();
}

Result<QueryResponse> FrameSender::Query(const QueryRequest& request) {
  LDPJS_CHECK(!finished_);
  const std::vector<uint8_t> payload = EncodeQueryRequest(request);
  if (payload.size() > kMaxQueryFramePayload) {
    // The server would refuse the frame from its length prefix alone and
    // cut the connection; reject here so the caller gets an actionable
    // error (shrink the probe/middles) instead of a mid-send reset — and
    // the session stays usable for the next query.
    return Status::InvalidArgument(
        "QUERY payload of " + std::to_string(payload.size()) +
        " bytes exceeds kMaxQueryFramePayload (" +
        std::to_string(kMaxQueryFramePayload) +
        "); shrink the probe sketch or middle matrices");
  }
  LDPJS_RETURN_IF_ERROR(WriteNetFrame(socket_, NetFrameType::kQuery, payload));
  ++frames_sent_;
  bytes_sent_ += kNetFrameHeaderBytes + payload.size();
  auto reply = ReadReply();
  if (!reply.ok()) return reply.status();
  if (reply->type != NetFrameType::kQueryOk) {
    return Status::Corruption("expected QUERY_OK");
  }
  return DecodeQueryResponse(reply->payload);
}

Status FrameSender::RequestFinalize() {
  LDPJS_CHECK(!finished_);
  finished_ = true;  // terminal exchange — the server may disconnect next
  LDPJS_RETURN_IF_ERROR(WriteNetFrame(socket_, NetFrameType::kFinalize, {}));
  auto reply = ReadReply();
  if (!reply.ok()) return reply.status();
  if (reply->type != NetFrameType::kFinalizeOk) {
    return Status::Corruption("expected FINALIZE_OK");
  }
  return Status::OK();
}

Status FrameSender::RequestFinalizeAsRegion(uint32_t region_id) {
  LDPJS_CHECK(!finished_);
  finished_ = true;
  uint8_t payload[4];
  for (int i = 0; i < 4; ++i) {
    payload[i] = static_cast<uint8_t>(region_id >> (8 * i));
  }
  LDPJS_RETURN_IF_ERROR(
      WriteNetFrame(socket_, NetFrameType::kFinalize, payload));
  auto reply = ReadReply();
  if (!reply.ok()) return reply.status();
  if (reply->type != NetFrameType::kFinalizeOk) {
    return Status::Corruption("expected FINALIZE_OK");
  }
  return Status::OK();
}

Status FrameSender::Finish() {
  LDPJS_CHECK(!finished_);
  finished_ = true;
  LDPJS_RETURN_IF_ERROR(WriteNetFrame(socket_, NetFrameType::kBye, {}));
  auto reply = ReadReply();
  if (!reply.ok()) return reply.status();
  if (reply->type != NetFrameType::kByeOk) {
    return Status::Corruption("expected BYE_OK");
  }
  return Status::OK();
}

}  // namespace ldpjs
