// LJSP, the session protocol the TCP front end speaks between FrameSender
// clients and the FrameServer (ingest, regional and central tiers alike).
//
// Transport framing (everything little-endian):
//
//   +----------------+--------+----------------------------+
//   | u32 payload_len| u8 type| payload (payload_len bytes)|
//   +----------------+--------+----------------------------+
//
// Session flow:
//
//   client                                 server
//     | -- HELLO {magic,ver,k,m,seed,eps, -> |  version and params must
//     |           region?}                   |  match exactly, else ERROR
//     | <- HELLO_OK {ver,region_next_epoch}  |  (FailedPrecondition) + close
//     | -- DATA {LJSB batch envelope} -----> |  ingest into a shard; no reply
//     |            ...                       |
//     | -- BYE / FINALIZE -----------------> |  all of this connection's
//     | <- BYE_OK / FINALIZE_OK ----------- |  frames are ingested
//     |  close                               |
//
// There is exactly one protocol version, kNetVersion. A HELLO or HELLO_OK
// carrying any other version is refused at the handshake, like a params
// mismatch; nothing after the handshake ever looks at the version.
//
// Client→server requests and their replies:
//
//   DATA             (no reply)        LJSB batch, into a shard
//   SNAPSHOT         → SNAPSHOT_DATA   merged raw (un-finalized) lanes
//   PING             → PING_OK         ingest barrier + view republish
//   EPOCH_PUSH       → EPOCH_PUSH_OK   a region ships one epoch's lanes
//   FINALIZE         → FINALIZE_OK     end of collection (last message)
//   BYE              → BYE_OK          end of session (last message)
//   QUERY            → QUERY_OK        estimate from the published view
//   STATS_REQUEST    → STATS           the node's stats JSON
//   STATS_PUSH       → STATS_PUSH_OK   a region ships its stats snapshot
//   FLEET_STATS_REQUEST → FLEET_STATS  the central's merged fleet view
//   TRACED           wraps a DATA, EPOCH_PUSH or QUERY with a trace context
//
// Any request may instead be answered with ERROR (a status code + message).
// A protocol violation — an undecodable payload, an oversized length
// prefix, a frame type the server does not accept from clients — is
// answered with ERROR and the connection is closed.
//
// Ordering: SNAPSHOT, PING, EPOCH_PUSH, FINALIZE and BYE are handled only
// after every DATA frame the same connection sent before them is absorbed,
// so their replies mean "everything you sent is in the lanes". QUERY,
// STATS_REQUEST, STATS_PUSH and FLEET_STATS_REQUEST are answered at once,
// never behind ingest.
//
// Flow control is TCP's: a DATA frame is write-only, and a server whose
// shard queue is full stops reading the connection until there is room, so
// the client's sends block. Lanes are sums of ±1 votes, so lossless
// in-order delivery is all ingest needs; nothing is ever refused and
// retried.
//
// DATA payloads are exactly the "LJSB" batch-envelope records the in-process
// service ingests (EncodeReportBatch), so the network tier adds framing but
// never re-encodes reports — which is what makes the TCP path bit-identical
// to in-process ingestion.
#ifndef LDPJS_NET_PROTOCOL_H_
#define LDPJS_NET_PROTOCOL_H_

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "common/result.h"
#include "common/serialize.h"
#include "common/socket.h"
#include "common/status.h"
#include "core/params.h"

namespace ldpjs {

inline constexpr uint32_t kNetMagic = 0x50534A4CU;  // "LJSP" little-endian
/// The one protocol version this build speaks. Both handshake frames carry
/// it; any other value is refused (see DecodeHello / DecodeHelloOk).
inline constexpr uint8_t kNetVersion = 6;

/// Frame types. Client→server: kHello, kData, kSnapshot, kFinalize, kBye,
/// kEpochPush, kPing, kQuery, kStatsRequest, kTraced, kStatsPush,
/// kFleetStatsRequest. Server→client: kHelloOk, kSnapshotData,
/// kFinalizeOk, kByeOk, kError, kEpochPushOk, kPingOk, kQueryOk, kStats,
/// kStatsPushOk, kFleetStats. Type 4 is unassigned: both frame readers
/// refuse it like any other unknown type.
enum class NetFrameType : uint8_t {
  kHello = 1,
  kHelloOk = 2,
  kData = 3,
  kSnapshot = 5,
  kSnapshotData = 6,
  /// Payload: empty (anonymous — every request counts), or u32 region_id
  /// (federation: a region's forwarded FINALIZE counts once per region no
  /// matter how many times a retry resends it).
  kFinalize = 7,
  kFinalizeOk = 8,
  kBye = 9,
  kByeOk = 10,
  kError = 11,
  /// Federation: a regional aggregator ships one epoch's raw-lane snapshot
  /// upstream. Payload: u32 region_id, u64 epoch, then the serialized
  /// un-finalized sketch — or zero sketch bytes for an empty-epoch
  /// heartbeat (the region had nothing to ship but its epoch clock still
  /// advances, so an idle region never freezes the windowed view's
  /// aligned frontier). Ordered after the connection's DATA like the
  /// other control frames.
  kEpochPush = 12,
  /// Ack for kEpochPush: an EpochPushAckCode byte plus the server's
  /// next-expected epoch for the pushing region (see EpochPushAck).
  /// `kDuplicate` makes a retried push after an ambiguous failure
  /// exactly-once — the central tier dedups on (region_id, epoch) and
  /// never double-merges.
  kEpochPushOk = 13,
  /// Ingest barrier: an empty no-op frame, ordered after every DATA frame
  /// its connection sent (like the other control frames) and answered with
  /// kPingOk. PING_OK is therefore proof that everything sent before it is
  /// in the lanes — the cheap barrier epoch-sensitive drivers use before a
  /// cut, where SNAPSHOT (which ships the full lanes back) would be waste.
  kPing = 14,
  kPingOk = 15,
  /// Read path: one query against the server's published finalized view.
  /// Payload: a QueryRequest (see below). Unlike the other non-DATA frames
  /// a QUERY is NOT ordered after the connection's DATA — it is answered
  /// immediately from the latest published snapshot, so a query can never
  /// stall (or be stalled by) ingest or the finalize barrier. Clients that
  /// want "my own writes visible" send PING first: the server republishes
  /// at every PING barrier and epoch boundary.
  kQuery = 16,
  /// Payload: a QueryResponse — the answer plus the identity (sequence /
  /// epoch / report count) of the published view that produced it.
  kQueryOk = 17,
  /// Ops read path: ask the server for its stats snapshot. Empty payload;
  /// answered immediately with kStats (like QUERY, a stats scrape is never
  /// ordered behind the connection's DATA — an ops probe must not stall on
  /// a busy ingest queue).
  kStatsRequest = 18,
  /// Payload: one UTF-8 JSON object (see obs/stats_export.h) — the same
  /// serializer output the SIGUSR1 dump and the JSONL exporter emit.
  kStats = 19,
  /// Trace envelope: u8 inner frame type (kData, kEpochPush or kQuery)
  /// + u64 trace_id + u64 origin_ns, then the inner frame's payload
  /// unchanged to the end of the frame. The receiver unwraps, notes the
  /// trace context, and handles the inner frame exactly as if it had
  /// arrived bare — tracing rides alongside the bytes, it never re-encodes
  /// them.
  kTraced = 20,
  /// Fleet telemetry: a regional node ships its stats snapshot to the
  /// central. Payload: a FleetSnapshot (see obs/fleet_stats.h) — u32
  /// region_id, u64 capture timestamp, then the registry's counters,
  /// gauges, and histograms with raw bucket arrays. Like STATS_REQUEST it
  /// is answered immediately (telemetry must not stall behind a busy
  /// ingest queue), and a lost or failed push is harmless — the next one
  /// carries the cumulative totals again.
  kStatsPush = 21,
  /// Ack for kStatsPush (empty payload): the snapshot is in the central's
  /// per-region fleet store.
  kStatsPushOk = 22,
  /// Fleet read path: ask the central for its merged fleet view. Empty
  /// payload; answered immediately with kFleetStats.
  kFleetStatsRequest = 23,
  /// Payload: a FleetView (see obs/fleet_stats.h) — every region's last
  /// pushed snapshot plus the exactly-merged cluster histograms and the
  /// per-region / cluster health verdicts.
  kFleetStats = 24,
};

/// Hard cap on client→server frame payloads. A batch envelope is at most
/// 9 + 4096·9 bytes, so anything near this cap is garbage; bounding it
/// keeps a malicious length prefix from making the server allocate.
inline constexpr size_t kMaxIngestFramePayload = 64 * 1024;

/// Cap on server→client payloads (snapshots carry k·m raw i64 lanes).
inline constexpr size_t kMaxControlFramePayload = size_t{256} * 1024 * 1024;

/// Cap on a QUERY frame payload. The heavy kinds carry serialized sketches
/// (a probe sketch is k·m doubles; a multiway middle is k·m1·m2), so this
/// admits realistic probes and moderate middle matrices while keeping a
/// hostile length prefix from making the server allocate unboundedly.
inline constexpr size_t kMaxQueryFramePayload = size_t{32} * 1024 * 1024;

/// Caps on the O(domain)/O(width) query kinds: a frequent-items or range
/// scan costs O(domain·k) server-side, so an unbounded request is a DoS.
/// Requests above these are rejected with InvalidArgument, never evaluated.
inline constexpr uint64_t kMaxQueryDomain = uint64_t{1} << 22;
inline constexpr uint64_t kMaxQueryRangeWidth = uint64_t{1} << 22;
/// Cap on middle sketches in one multiway-chain query.
inline constexpr size_t kMaxQueryMiddles = 8;

/// HELLO payload: the sketch session parameters. The server accepts a
/// connection only if every field matches its own configuration bit for bit
/// (mismatched params would silently poison lanes, never mergeable).
/// A regional aggregator's upstream session additionally announces its
/// region id, so the HELLO_OK can carry the server's next-expected epoch
/// for that region — the sync a restarted incarnation uses to number its
/// epochs above everything its predecessor already shipped.
struct SessionHello {
  /// Always kNetVersion from this build; DecodeHello refuses any other.
  uint8_t version = kNetVersion;
  uint32_t k = 0;
  uint32_t m = 0;
  uint64_t seed = 0;
  double epsilon = 0.0;
  bool has_region = false;
  uint32_t region_id = 0;
};

std::vector<uint8_t> EncodeHello(const SessionHello& hello);
/// Corruption on a bad magic or malformed bytes; FailedPrecondition when the
/// version is not kNetVersion (the rest of a foreign HELLO is not parsed).
Result<SessionHello> DecodeHello(std::span<const uint8_t> payload);

/// HELLO_OK payload, 9 bytes: u8 version | u64 region_next_epoch.
/// `region_next_epoch` answers a region-announcing HELLO with the first
/// epoch the server has NOT applied for that region (0 when the region has
/// never pushed, or when the HELLO carried no region).
struct SessionHelloOk {
  uint8_t version = kNetVersion;
  uint64_t region_next_epoch = 0;
};

std::vector<uint8_t> EncodeHelloOk(const SessionHelloOk& ok);
/// Same version rule as DecodeHello: anything but kNetVersion is
/// FailedPrecondition.
Result<SessionHelloOk> DecodeHelloOk(std::span<const uint8_t> payload);

/// EPOCH_PUSH_OK result code.
enum class EpochPushAckCode : uint8_t {
  kApplied = 0,    ///< snapshot merged into the central lanes
  kDuplicate = 1,  ///< (region, epoch) already applied — retry resolved
};

/// EPOCH_PUSH_OK payload: the ack code plus the server's next-expected
/// epoch for the pushing region (its high-water + 1, after this push). The
/// shipper folds it into its own numbering, so region and central converge
/// on an epoch sequence even across restarts and clock steps.
struct EpochPushAck {
  EpochPushAckCode code = EpochPushAckCode::kApplied;
  uint64_t next_epoch = 0;
};

std::vector<uint8_t> EncodeEpochPushAck(const EpochPushAck& ack);
Result<EpochPushAck> DecodeEpochPushAck(std::span<const uint8_t> payload);

/// EPOCH_PUSH payload header; the serialized raw-lane sketch follows it to
/// the end of the frame (no inner length prefix — the transport frame
/// already delimits it).
struct EpochPush {
  uint32_t region_id = 0;
  uint64_t epoch = 0;
  std::span<const uint8_t> raw_sketch;  ///< zero-copy view into the payload
};

/// Transport bytes an EPOCH_PUSH adds on top of the sketch itself.
inline constexpr size_t kEpochPushHeaderBytes = 12;

std::vector<uint8_t> EncodeEpochPush(uint32_t region_id, uint64_t epoch,
                                     std::span<const uint8_t> raw_sketch);
/// The decoded view borrows `payload` — keep it alive.
Result<EpochPush> DecodeEpochPush(std::span<const uint8_t> payload);

/// Upper bound on a well-formed EPOCH_PUSH payload for `params`-shaped
/// sessions: push header + the measured size of a serialized raw-lane
/// sketch of that shape. Anything larger is garbage, so servers read
/// session frames with max(kMaxIngestFramePayload, this) and a malicious
/// length prefix still cannot make them allocate unboundedly.
size_t EpochPushPayloadBound(const SketchParams& params);

/// What a QUERY asks of the published view. Every kind is answered from
/// one immutable snapshot, so the reply is internally consistent even
/// while ingest and epoch cuts run concurrently.
enum class QueryKind : uint8_t {
  /// Join size |view ⋈ probe|: the probe payload is a serialized
  /// LdpJoinSketchServer for the other table (raw lanes are finalized
  /// server-side; params/seed must match the view's sketch).
  kJoinSize = 0,
  /// Thm-7 frequency estimate f̂(key).
  kFrequency = 1,
  /// Values in [0, domain) with f̂ > threshold (FAP phase 1). Sorted
  /// ascending in the reply; domain capped by kMaxQueryDomain.
  kFrequentItems = 2,
  /// Chain join |view ⋈ M_1 ⋈ ... ⋈ M_p ⋈ probe| (Eq. 27): the payload
  /// carries p serialized finalized LdpMultiwayServer middles plus the
  /// right-end probe sketch; the published view is the left end.
  kMultiwayChain = 3,
  /// AQP COUNT(*) WHERE key in [lo, hi] (width capped).
  kRangeCount = 4,
  /// AQP join size restricted to keys in [lo, hi]: Σ f̂_view·f̂_probe.
  kPredicateJoin = 5,
};

/// One decoded QUERY payload. Only the fields for `kind` are meaningful;
/// the codec writes/reads exactly the fields that kind defines, so a
/// truncated or over-long payload is always Corruption.
struct QueryRequest {
  QueryKind kind = QueryKind::kFrequency;
  uint64_t key = 0;           ///< kFrequency
  uint64_t domain = 0;        ///< kFrequentItems
  double threshold = 0.0;     ///< kFrequentItems
  uint64_t range_lo = 0;      ///< kRangeCount, kPredicateJoin
  uint64_t range_hi = 0;      ///< kRangeCount, kPredicateJoin
  /// Serialized LdpJoinSketchServer probe (kJoinSize, kMultiwayChain's
  /// right end, kPredicateJoin).
  std::vector<uint8_t> probe_sketch;
  /// Serialized finalized LdpMultiwayServer middles (kMultiwayChain).
  std::vector<std::vector<uint8_t>> middles;
};

std::vector<uint8_t> EncodeQueryRequest(const QueryRequest& request);
Result<QueryRequest> DecodeQueryRequest(std::span<const uint8_t> payload);

/// One QUERY_OK payload: the answer plus the identity of the published
/// view that produced it. `value` is bit-exact over the wire (doubles are
/// memcpy round-trips), which is what lets a served answer be pinned
/// bit-identical to the in-process estimate on the same view.
struct QueryResponse {
  QueryKind kind = QueryKind::kFrequency;
  uint64_t view_sequence = 0;  ///< publication counter of the view
  bool view_aligned = false;   ///< windowed views: frontier established
  uint64_t view_epoch = 0;     ///< aligned frontier (windowed) else 0
  uint64_t view_reports = 0;   ///< reports inside the view's sketch
  double value = 0.0;          ///< scalar answer (all kinds)
  std::vector<uint64_t> items; ///< kFrequentItems: sorted ascending
};

std::vector<uint8_t> EncodeQueryResponse(const QueryResponse& response);
Result<QueryResponse> DecodeQueryResponse(std::span<const uint8_t> payload);

/// One decoded TRACED envelope: the inner frame type, the trace
/// context, and a zero-copy view of the inner payload.
struct TracedFrame {
  NetFrameType inner_type = NetFrameType::kData;
  uint64_t trace_id = 0;
  uint64_t origin_ns = 0;
  std::span<const uint8_t> inner_payload;  ///< borrows the outer payload
};

/// Bytes a TRACED envelope adds in front of the inner payload
/// (u8 inner type + u64 trace id + u64 origin timestamp).
inline constexpr size_t kTracedHeaderBytes = 17;

std::vector<uint8_t> EncodeTraced(NetFrameType inner_type, uint64_t trace_id,
                                  uint64_t origin_ns,
                                  std::span<const uint8_t> inner_payload);
/// The decoded view borrows `payload` — keep it alive. Rejects inner types
/// other than kData/kEpochPush/kQuery (wrapping a control frame would let
/// tracing bypass the drain-barrier ordering those frames rely on).
Result<TracedFrame> DecodeTraced(std::span<const uint8_t> payload);

/// ERROR payload: one status-code byte plus the message bytes. The decoded
/// Status is what the failing server-side operation returned, so a client
/// can distinguish a retriable condition from a protocol violation.
std::vector<uint8_t> EncodeErrorPayload(const Status& status);
Status DecodeErrorPayload(std::span<const uint8_t> payload);

/// Transport header bytes per frame (u32 payload length + u8 type).
inline constexpr size_t kNetFrameHeaderBytes = 5;

/// One parsed transport frame (payload bytes owned).
struct NetFrame {
  NetFrameType type = NetFrameType::kError;
  std::vector<uint8_t> payload;
};

/// The checked fields of one transport header.
struct NetFrameHeader {
  NetFrameType type = NetFrameType::kError;
  uint32_t payload_len = 0;
};

/// The one header parser both readers use: Corruption for a payload length
/// above `max_payload` or an unknown type — decided from these 5 bytes
/// alone, so a hostile length prefix is refused before any wait for its
/// payload.
Result<NetFrameHeader> ParseNetFrameHeader(
    std::span<const uint8_t, kNetFrameHeaderBytes> header, size_t max_payload);

/// Writes one frame (u32 len + u8 type + payload) to the socket.
Status WriteNetFrame(const Socket& socket, NetFrameType type,
                     std::span<const uint8_t> payload);

/// Reads one frame (empty payloads are valid — the control frames carry
/// none). A clean close on a frame boundary returns NotFound (end of
/// session); a close mid-frame, an unknown type, or a payload above
/// `max_payload` returns Corruption without reading further.
Result<NetFrame> ReadNetFrame(const Socket& socket, size_t max_payload);

/// One frame read through a FrameReader. A frame that fit in the reader's
/// buffer is a view of it, valid until the reader's next Next(); a larger
/// frame's payload is owned here instead.
struct BufferedFrame {
  NetFrameType type = NetFrameType::kError;
  std::span<const uint8_t> buffered;  ///< the payload, when it fit
  std::vector<uint8_t> owned;         ///< the payload, when it did not

  std::span<const uint8_t> payload() const {
    return owned.empty() ? buffered : std::span<const uint8_t>(owned);
  }
  /// The payload as an owned vector: `owned` moved out, or the buffered
  /// bytes copied (a frame handed to another thread outlives the buffer).
  std::vector<uint8_t> TakePayload() {
    if (!owned.empty()) return std::move(owned);
    return std::vector<uint8_t>(buffered.begin(), buffered.end());
  }
};

/// Reads one socket's frames through a fixed buffer: one recv may deliver
/// many frames, and a frame that fits in the buffer costs no allocation. A
/// frame larger than the buffer gets an owned payload — the buffered prefix
/// copied, the rest received straight into it. Every ReadNetFrame rule
/// holds (they share ParseNetFrameHeader): a close on a frame boundary is
/// NotFound, a close inside a header or payload is Corruption, an
/// over-cap length or unknown type is Corruption before its payload is
/// awaited, an elapsed SO_RCVTIMEO is DeadlineExceeded, and every recv
/// consults the socket's fault site.
class FrameReader {
 public:
  /// 8 KiB holds 14 of ingest_small's 585-byte frames. Ledger medians of
  /// three 10 s runs per size (4-vCPU AMD EPYC, loopback) at 2 / 8 / 64 KiB:
  /// ingest_small 2.03e7 / 2.14e7 / 1.95e7 reports/s, ingest_bulk 2.30e8 /
  /// 2.27e8 / 2.23e8 — all within run-to-run noise. So the buffer only has
  /// to hold a burst of small frames; a larger one reads past it anyway.
  static constexpr size_t kBufferBytes = 8 * 1024;

  explicit FrameReader(const Socket& socket) : socket_(socket) {}
  FrameReader(const FrameReader&) = delete;
  FrameReader& operator=(const FrameReader&) = delete;

  /// The next frame; see the class comment for its errors.
  Result<BufferedFrame> Next(size_t max_payload);

 private:
  /// One recv into the buffer's free tail. A close is NotFound when
  /// `at_boundary` (no partial frame buffered), else Corruption.
  Status Fill(bool at_boundary);
  /// Moves the unread bytes to the front of the buffer.
  void Compact();

  const Socket& socket_;
  std::array<uint8_t, kBufferBytes> buffer_{};
  size_t begin_ = 0;  ///< first unread byte
  size_t end_ = 0;    ///< one past the last received byte
};

}  // namespace ldpjs

#endif  // LDPJS_NET_PROTOCOL_H_
