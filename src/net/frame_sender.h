// FrameSender: client side of the LJSP session protocol. Connects to a
// FrameServer, performs the HELLO handshake (protocol version and sketch
// params must match the server's bit for bit), then streams PerturbBatch
// output as LJSB batch envelopes inside DATA frames.
//
// Flow control: against a kShed server every DATA frame is acked; a busy
// ack makes SendReports/SendEncodedBatch retry the same frame after a
// jittered exponential backoff (bounded by Options::max_busy_retries, then
// Unavailable). Against a kBlock server there are no per-frame acks — TCP
// flow control is the backpressure — and Finish()'s BYE/BYE_OK exchange is
// the proof that every frame sent on this connection has been ingested.
#ifndef LDPJS_NET_FRAME_SENDER_H_
#define LDPJS_NET_FRAME_SENDER_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/backoff.h"
#include "common/result.h"
#include "common/socket.h"
#include "common/status.h"
#include "core/ldp_join_sketch.h"
#include "net/protocol.h"
#include "obs/fleet_stats.h"
#include "obs/trace.h"

namespace ldpjs {

class FrameSender {
 public:
  struct Options {
    int max_busy_retries = 100000;  ///< per frame, before Unavailable
    /// Backoff between busy retries: decorrelated jitter from 100us up to
    /// 20ms, so a fleet of shed clients does not hammer the server in
    /// lockstep the way a fixed interval would.
    BackoffOptions busy_backoff{.base_micros = 100, .cap_micros = 20000};
    /// SO_RCVTIMEO on the session socket: caps how long any reply wait
    /// (HELLO_OK, acks, snapshots) can hang on a dead-but-connected server
    /// before failing with DeadlineExceeded. 0 disables. Chaos runs arm
    /// this so a dropped EPOCH_PUSH_OK turns into a retry, not a deadlock.
    int recv_timeout_seconds = 0;
    /// Fault-injection site label for the session socket (chaos runs);
    /// also checked as "<fault_site>.connect" before connecting. Empty
    /// disables.
    std::string fault_site;
    /// Announce a region id in the HELLO (federation upstream sessions).
    /// The HELLO_OK then carries the server's next-expected epoch for that
    /// region — read it with region_next_epoch(). See RegionalNode for the
    /// restart/collision sync built on it.
    bool announce_region = false;
    uint32_t region_id = 0;
    /// Trace sampling: wrap every Nth DATA batch in a TRACED envelope
    /// (batch 0, N, 2N, ...) with a fresh trace id and an origin timestamp
    /// taken just before the send. 0 (default) disables sampling.
    uint64_t trace_every = 0;
  };

  /// Connects and completes the handshake. Fails with FailedPrecondition
  /// when the server refuses the session (params or protocol version
  /// mismatch) or answers with another protocol version — retrying cannot
  /// fix either — or Unavailable if the host is unreachable.
  static Result<FrameSender> Connect(const std::string& host, uint16_t port,
                                     const SketchParams& params,
                                     double epsilon, const Options& options);
  static Result<FrameSender> Connect(const std::string& host, uint16_t port,
                                     const SketchParams& params,
                                     double epsilon) {
    return Connect(host, port, params, epsilon, Options());
  }

  FrameSender(FrameSender&&) = default;
  FrameSender& operator=(FrameSender&&) = default;

  /// Encodes `reports` into LJSB envelopes of at most kMaxWireBatchReports
  /// each and streams them as DATA frames.
  Status SendReports(std::span<const LdpReport> reports);

  /// Streams one already-encoded LJSB batch envelope. This is the zero-
  /// re-encode path the loopback simulation uses: the exact bytes the
  /// in-process service would ingest go on the wire. Applies Options::
  /// trace_every sampling (the sampled batch goes out as a TRACED frame
  /// with a fresh id and origin = just before this send).
  Status SendEncodedBatch(std::span<const uint8_t> envelope);

  /// Streams one batch wrapped in a TRACED envelope with an explicit trace
  /// context — how a caller includes its own encode time in the origin
  /// (stamp origin_ns before encoding). An inactive context sends a bare
  /// DATA frame. Runs the busy-retry protocol; a retried frame re-sends
  /// the identical bytes.
  Status SendTracedBatch(std::span<const uint8_t> envelope,
                         const TraceContext& trace);

  /// Asks the server for a raw-lane snapshot of everything ingested so far
  /// (ordered after every frame this connection has sent). Returns the
  /// serialized un-finalized sketch (LdpJoinSketchServer::Deserialize).
  Result<std::vector<uint8_t>> SnapshotRawSketch();

  /// Federation upstream path: ships one epoch's serialized raw-lane
  /// snapshot to a central aggregator as EPOCH_PUSH and waits for the ack.
  /// The ack says whether the snapshot was merged (kApplied) or the
  /// central had already applied this (region, epoch) (kDuplicate — how a
  /// retry after an ambiguous failure resolves to exactly-once), and
  /// carries the central's next-expected epoch for the region so the
  /// shipper's numbering tracks the central's high-water. Any transport
  /// failure leaves the outcome unknown; reconnect and push the same
  /// (region, epoch) again.
  Result<EpochPushAck> PushEpochSnapshot(uint32_t region_id, uint64_t epoch,
                                         std::span<const uint8_t> raw_sketch);

  /// PushEpochSnapshot with a trace context riding along (a regional
  /// shipper forwarding the context claimed at its epoch cut, origin
  /// preserved, so the central's publish measures client→central latency).
  Result<EpochPushAck> PushEpochSnapshotTraced(
      uint32_t region_id, uint64_t epoch, std::span<const uint8_t> raw_sketch,
      const TraceContext& trace);

  /// Ingest barrier: returns once the server has absorbed every frame this
  /// connection sent so far (PING/PING_OK — no lanes shipped back, unlike
  /// SnapshotRawSketch). The session stays open, unlike Finish(). The
  /// server also republishes its query view at the barrier, so
  /// Ping-then-Query reads your own writes.
  Status Ping();

  /// Read path: one query against the server's published finalized view
  /// (join size / frequency / frequent items / multiway chain / AQP range
  /// kinds — see QueryKind). Fails with the server's ERROR status when it
  /// rejects the request (mismatched probe params, oversized domain, ...);
  /// the session stays open either way.
  Result<QueryResponse> Query(const QueryRequest& request);

  /// Ops path: asks the server for its stats snapshot (the same JSON the
  /// SIGUSR1 dump and JSONL exporter emit — see obs/stats_export.h). Never
  /// ordered behind ingest server-side.
  Result<std::string> Stats();

  /// Fleet path: ships this node's full stats snapshot — counters, gauges,
  /// raw histogram buckets — upstream as STATS_PUSH and waits for the ack.
  /// A lost or failed push is harmless (the series are cumulative; the
  /// next push supersedes it), so callers treat errors as advisory.
  Status PushStats(const FleetSnapshot& snapshot);

  /// Fleet path: asks the server (a central) for its merged fleet view —
  /// every region's last pushed snapshot, the exactly-merged cluster
  /// histograms, and per-region + cluster health verdicts.
  Result<FleetView> FleetStats();

  /// Asks the server to end collection (the CLI `serve` loop exits, drains,
  /// and finalizes). FINALIZE is processed after every frame this
  /// connection sent, so the FINALIZE_OK this waits for is — like BYE_OK —
  /// proof that this connection's data is in the lanes. It is also the
  /// session's last exchange: the server may tear the transport down
  /// immediately after confirming, so do not call Finish() afterwards.
  Status RequestFinalize();

  /// Federation variant: the FINALIZE carries `region_id`, and the server
  /// counts at most one finalize per region — so a retry on a fresh
  /// session after a lost ack is idempotent and can never end a
  /// multi-region collection early.
  Status RequestFinalizeAsRegion(uint32_t region_id);

  /// BYE/BYE_OK: returns once the server has ingested every frame this
  /// connection sent. The connection is done after this.
  Status Finish();

  uint32_t server_shards() const { return session_.num_shards; }
  bool acked_data() const { return session_.acked_data; }
  /// First epoch the server has not applied for the announced region
  /// (0 when no region was announced or the server never heard from it).
  uint64_t region_next_epoch() const { return session_.region_next_epoch; }
  uint64_t frames_sent() const { return frames_sent_; }
  uint64_t bytes_sent() const { return bytes_sent_; }
  uint64_t busy_retries() const { return busy_retries_; }
  /// Cumulative time this sender has slept in busy backoff.
  uint64_t backoff_micros() const { return busy_backoff_.total_micros(); }

 private:
  FrameSender(Socket socket, const SessionHelloOk& session,
              const Options& options)
      : socket_(std::move(socket)),
        session_(session),
        options_(options),
        busy_backoff_(options.busy_backoff) {}

  /// Reads the next server frame, surfacing ERROR frames as their Status.
  Result<NetFrame> ReadReply();

  Socket socket_;
  SessionHelloOk session_;
  Options options_;
  Backoff busy_backoff_;
  uint64_t frames_sent_ = 0;
  uint64_t bytes_sent_ = 0;
  uint64_t busy_retries_ = 0;
  uint64_t batches_sent_ = 0;  ///< trace_every sampling cursor
  bool finished_ = false;
};

}  // namespace ldpjs

#endif  // LDPJS_NET_FRAME_SENDER_H_
