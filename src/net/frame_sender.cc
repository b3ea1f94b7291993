#include "net/frame_sender.h"

#include <algorithm>
#include <atomic>

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
  FrameSender sender(std::move(*socket), options);

  SessionHello hello;
  hello.k = static_cast<uint32_t>(params.k);
  hello.m = static_cast<uint32_t>(params.m);
  hello.seed = params.seed;
  hello.epsilon = epsilon;
  hello.has_region = options.announce_region;
  hello.region_id = options.region_id;
  auto reply = sender.Exchange(NetFrameType::kHello, EncodeHello(hello),
                               NetFrameType::kHelloOk);
  if (!reply.ok()) return reply.status();
  // DecodeHelloOk refuses a server of another protocol version.
  auto session = DecodeHelloOk(reply->payload);
  if (!session.ok()) return session.status();
  sender.region_next_epoch_ = session->region_next_epoch;
  return sender;
}

Status FrameSender::Write(NetFrameType type,
                          std::span<const uint8_t> payload) {
  LDPJS_CHECK(!finished_);
  if (type == NetFrameType::kFinalize || type == NetFrameType::kBye) {
    finished_ = true;  // terminal — the server may disconnect next
  }
  LDPJS_RETURN_IF_ERROR(WriteNetFrame(socket_, type, payload));
  ++frames_sent_;
  bytes_sent_ += kNetFrameHeaderBytes + payload.size();
  return Status::OK();
}

Result<NetFrame> FrameSender::Exchange(NetFrameType type,
                                       std::span<const uint8_t> payload,
                                       NetFrameType expected_reply) {
  LDPJS_RETURN_IF_ERROR(Write(type, payload));
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
  if (frame->type != expected_reply) {
    return Status::Corruption(
        "expected reply type " +
        std::to_string(static_cast<int>(expected_reply)) + " to request " +
        std::to_string(static_cast<int>(type)) + ", got " +
        std::to_string(static_cast<int>(frame->type)));
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
  ++batches_sent_;
  if (!trace.active()) return Write(NetFrameType::kData, envelope);
  LDPJS_RETURN_IF_ERROR(
      Write(NetFrameType::kTraced,
            EncodeTraced(NetFrameType::kData, trace.trace_id,
                         trace.origin_ns, envelope)));
  if (ObsEnabled()) {
    // The client-side span covers origin (encode start) → handed to the
    // kernel; the server's queue span picks up from its enqueue.
    TraceLog::Global().Record(trace.trace_id, "client_send", trace.origin_ns,
                              NowNanos());
  }
  return Status::OK();
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
  auto reply =
      Exchange(NetFrameType::kSnapshot, {}, NetFrameType::kSnapshotData);
  if (!reply.ok()) return reply.status();
  return std::move(reply->payload);
}

Result<EpochPushAck> FrameSender::PushEpochSnapshot(
    uint32_t region_id, uint64_t epoch, std::span<const uint8_t> raw_sketch,
    const TraceContext& trace) {
  std::vector<uint8_t> payload = EncodeEpochPush(region_id, epoch, raw_sketch);
  NetFrameType type = NetFrameType::kEpochPush;
  if (trace.active()) {
    // Origin preserved from the client that produced the traced batch — the
    // central's view publish then measures true client→central latency.
    payload = EncodeTraced(NetFrameType::kEpochPush, trace.trace_id,
                           trace.origin_ns, payload);
    type = NetFrameType::kTraced;
  }
  auto reply = Exchange(type, payload, NetFrameType::kEpochPushOk);
  if (!reply.ok()) return reply.status();
  return DecodeEpochPushAck(reply->payload);
}

Result<std::string> FrameSender::Stats() {
  auto reply =
      Exchange(NetFrameType::kStatsRequest, {}, NetFrameType::kStats);
  if (!reply.ok()) return reply.status();
  return std::string(reply->payload.begin(), reply->payload.end());
}

Status FrameSender::PushStats(const FleetSnapshot& snapshot) {
  return Exchange(NetFrameType::kStatsPush, EncodeFleetSnapshot(snapshot),
                  NetFrameType::kStatsPushOk)
      .status();
}

Result<FleetView> FrameSender::FleetStats() {
  auto reply = Exchange(NetFrameType::kFleetStatsRequest, {},
                        NetFrameType::kFleetStats);
  if (!reply.ok()) return reply.status();
  return DecodeFleetView(reply->payload);
}

Status FrameSender::Ping() {
  return Exchange(NetFrameType::kPing, {}, NetFrameType::kPingOk).status();
}

Result<QueryResponse> FrameSender::Query(const QueryRequest& request) {
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
  auto reply = Exchange(NetFrameType::kQuery, payload, NetFrameType::kQueryOk);
  if (!reply.ok()) return reply.status();
  return DecodeQueryResponse(reply->payload);
}

Status FrameSender::RequestFinalize() {
  return Exchange(NetFrameType::kFinalize, {}, NetFrameType::kFinalizeOk)
      .status();
}

Status FrameSender::RequestFinalizeAsRegion(uint32_t region_id) {
  uint8_t payload[4];
  for (int i = 0; i < 4; ++i) {
    payload[i] = static_cast<uint8_t>(region_id >> (8 * i));
  }
  return Exchange(NetFrameType::kFinalize, payload, NetFrameType::kFinalizeOk)
      .status();
}

Status FrameSender::Finish() {
  return Exchange(NetFrameType::kBye, {}, NetFrameType::kByeOk).status();
}

}  // namespace ldpjs
