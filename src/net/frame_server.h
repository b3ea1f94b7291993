// FrameServer: the TCP ingestion front end of the sharded aggregation
// service — and, in the federated deployment, both the regional ingest tier
// (it can cut epoch snapshots of its raw lanes) and the central tier (it
// merges EPOCH_PUSH snapshots shipped upstream by regions). Accepts many
// concurrent client connections, speaks the LJSP session protocol (see
// net/protocol.h), and feeds every decoded DATA frame into a
// ShardedAggregator.
//
// Threading model (shard-affine ingest, small frames run to completion):
//   - reader workers. A worker accepts a connection itself, registers it,
//     reads that session to its end on the same thread and goes back to
//     accept(): there is no acceptor thread and no handoff. A worker that
//     takes the last accepting slot spawns one more, so every live
//     connection has its own blocking reader; idle workers above
//     kMaxIdleWorkers retire, so a steady stream of short sessions spawns
//     and joins no threads;
//   - the reader does the HELLO handshake, reads frames through the
//     connection's FrameReader buffer and dispatches each through one
//     route table (RouteFor). A DATA frame is routed to a shard
//     connection-local round-robin. A small one (at most
//     kInlineAbsorbMaxReports reports, read from the frame's length) is
//     absorbed right there on the reader, under that shard's lock; a larger
//     one goes onto the shard's bounded queue. Every other request is
//     handled on the reader itself;
//   - one ingest pump thread per shard, draining that shard's queue. A
//     small frame costs one absorb instead of a cross-thread handoff, and
//     N shards' pumps still spread bulk frames over N cores.
//
// Ordering: a control frame (SNAPSHOT / PING / EPOCH_PUSH / FINALIZE / BYE)
// is handled only after every DATA frame its connection sent before it has
// been absorbed: inline frames are absorbed before the reader reads on, and
// for queued ones the reader waits for its in-flight count to reach zero.
// So SNAPSHOT_DATA / BYE_OK keep their "everything you sent is in the
// lanes" guarantee. Ordering across connections is unspecified, which is
// fine — raw integer lanes make the merged sketch independent of frame
// routing, interleaving and absorbing thread (the service exactness
// invariant), which is also why either path is bit-identical to a direct
// absorb.
//
// Backpressure (bounded memory): each shard's queue holds at most
// `queue_capacity` frames. A reader whose DATA frame finds its shard's
// queue full parks until the pump makes space; the kernel receive buffer
// fills and TCP flow control pushes back on the client. DATA is never
// answered, refused or retried, so that is the only flow-control rule.
// Inline DATA frames and control frames are never queued, so they never
// wait for space. The server's memory is one sketch per shard, the shard
// queues and one read buffer per live connection — never proportional to
// client traffic.
//
// Untrusted input: a malformed transport frame, an oversized length prefix,
// a frame type clients may not send, a corrupt LJSB envelope or pushed
// sketch, a mid-frame disconnect, or a HELLO with another protocol version
// or mismatched sketch params can never crash the server or touch a lane —
// each is counted in the metrics, answered with ERROR, and the offending
// connection is closed.
#ifndef LDPJS_NET_FRAME_SERVER_H_
#define LDPJS_NET_FRAME_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "common/socket.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/ldp_join_sketch.h"
#include "net/net_metrics.h"
#include "net/protocol.h"
#include "obs/events.h"
#include "obs/fleet_stats.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/published_view.h"
#include "service/sharded_aggregator.h"

namespace ldpjs {

/// What a full shard queue does to a DATA frame: kBlock parks the reader,
/// and TCP flow control slows the client. It is the only policy; the type
/// stays because the frozen benchmark ledger (bench/ledger/util.cc)
/// assigns FrameServerOptions::backpressure.
enum class BackpressurePolicy {
  kBlock,
};

struct FrameServerOptions {
  uint16_t port = 0;          ///< 0 = ephemeral; read back with port()
  size_t num_shards = 1;      ///< aggregation shards == ingest pumps (>= 1)
  size_t queue_capacity = 64; ///< max queued frames per shard
  BackpressurePolicy backpressure = BackpressurePolicy::kBlock;
  /// SO_RCVTIMEO on accepted sockets — the idle-connection watchdog: a
  /// client that goes silent for this long is reaped (counted in
  /// idle_reaped), its fd closed and its reader freed. 0 (default)
  /// disables the deadline: a regional shipper legitimately idles between
  /// epochs, so only deployments that know their traffic cadence should
  /// arm this.
  int idle_timeout_seconds = 0;
  /// Called exactly once per fresh (region, epoch) EPOCH_PUSH, after the
  /// snapshot is merged into the lanes and before the push is acked — the
  /// (region, epoch) dedup guarantees the exactly-once, and a retried
  /// push's duplicate ack waits for the original's observer call, so a
  /// region's epochs are observed strictly in order. `snapshot` is the
  /// decoded, validated raw-lane snapshot — the server discards it after
  /// the call, so the observer may move from it — or nullptr for an
  /// empty-epoch heartbeat (an idle region advancing its epoch clock;
  /// nothing merged). Invoked on the pushing connection's reader thread,
  /// concurrently across regions; the observer synchronizes itself (see
  /// federation/WindowedView). Keep it cheap — the pushing region waits on
  /// the ack behind it; each call is timed into `epoch_observer_ns`.
  std::function<void(uint32_t region_id, uint64_t epoch,
                     LdpJoinSketchServer* snapshot)>
      epoch_observer;
  /// Where QUERY frames read from. Unset (default): the server's own
  /// published lifetime view (everything merged so far, republished at
  /// every EPOCH_PUSH, PING barrier, and FINALIZE). Set it to route
  /// queries elsewhere — a windowed CentralNode points it at its
  /// WindowedView's publisher so QUERY answers cover the sliding window.
  /// Must be cheap and lock-free (called per query on reader threads);
  /// must never return null.
  std::function<std::shared_ptr<const PublishedView>()> query_view_source;
  /// What a STATS frame snapshots. Unset (default): the server's own
  /// metrics(). A RegionalNode points it at its augmented metrics() so a
  /// stats scrape of the regional ingest port also sees the ship-side
  /// counters (retries, backoff, spool) the bare server cannot know.
  std::function<NetMetrics()> stats_metrics_source;
  /// Thresholds for the health evaluator — both this server's own "health"
  /// verdict and, on a central, the per-region verdicts over STATS_PUSH
  /// snapshots. Transitions land in events().
  HealthOptions health;
};

class FrameServer {
 public:
  /// Reader workers that may wait in accept() at once: a worker whose
  /// session ends while this many already wait retires instead. Each
  /// waiting worker parks one stack and holds one descriptor, which Linux
  /// reserves before accept() blocks. Clients that reconnect back to back
  /// find workers still finishing their last sessions, so the bound must
  /// exceed their count or reconnects keep spawning: over 10 s of the
  /// ledger's ingest_small (4 such clients, 4-vCPU Xeon) this bound spawned
  /// 7 workers in 133,588 sessions, and a bound of 4 spawned 3,889.
  static constexpr size_t kMaxIdleWorkers = 8;

  /// Params/epsilon every client HELLO must match bit for bit.
  FrameServer(const SketchParams& params, double epsilon,
              const FrameServerOptions& options);
  ~FrameServer();

  FrameServer(const FrameServer&) = delete;
  FrameServer& operator=(const FrameServer&) = delete;

  /// Binds, listens, and starts the per-shard pump threads and the first
  /// reader worker.
  Status Start();

  /// Bound port (valid after Start; resolves an ephemeral bind).
  uint16_t port() const { return port_; }

  /// Blocks until at least `count` FINALIZE frames have been processed
  /// (a central aggregator fed by N regions waits for N).
  void WaitForFinalizeRequests(size_t count);
  void WaitForFinalizeRequest() { WaitForFinalizeRequests(1); }

  /// Epoch cut (regional tier): quiesces every shard, serializes the merged
  /// raw lanes of everything ingested since the last cut, and resets the
  /// lanes in place. Frames still queued simply land in the next epoch —
  /// merging every cut is bit-identical to never cutting. Callable while
  /// the server is live or after Stop() (the final flush), but not after
  /// Finalize().
  ShardedAggregator::EpochCut CutEpochSnapshot();

  /// The trace context of the oldest traced DATA frame absorbed since the
  /// last cut, claimed by CutEpochSnapshot() — a RegionalNode attaches it
  /// to the cut's pending snapshot so the context (and its client-side
  /// origin timestamp) rides the EPOCH_PUSH upstream and the central tier
  /// can record true client→central ingest-to-queryable latency. Inactive
  /// context when no traced frame landed in the cut epoch.
  TraceContext TakeCutTrace();

  /// The latest RCU-published lifetime view (atomic load, no ingest
  /// locks) — the one way to read the server's estimate. Published at Start
  /// (empty), at every applied EPOCH_PUSH, at every PING barrier, at
  /// FINALIZE, and by PublishView() — so "ping, then query" reads your own
  /// writes. Never null after Start.
  std::shared_ptr<const PublishedView> CurrentPublishedView() const {
    return publisher_.Current();
  }

  /// Merges and finalizes the current lanes and publishes them as a fresh
  /// view (what PING does implicitly). Callable any time after Start.
  void PublishView();

  /// Disconnects every currently attached client (their queued frames are
  /// still drained; the listener stays open, so clients may reconnect).
  /// An ops action — kick all sessions — and the chaos hook the federation
  /// tests use to force a mid-epoch regional disconnect/retry.
  void DisconnectClients();

  /// Shutdown: stops accepting, disconnects any client still attached
  /// (its already-queued frames are still drained — but a client is only
  /// guaranteed fully ingested if its Finish()/BYE_OK completed first),
  /// drains all shard queues, joins threads. Idempotent.
  void Stop();

  /// Merged + finalized sketch — callable exactly once, after Stop(), so
  /// the global k·c_ε debias and row transforms happen exactly once over
  /// fully drained queues. Bit-identical to a single node absorbing the
  /// same reports.
  LdpJoinSketchServer Finalize();

  /// Consistent snapshot of the per-connection/per-shard/per-region
  /// counters.
  NetMetrics metrics() const;

  /// The JSON a STATS frame answers with, and the one the CLI dumps on
  /// SIGUSR1, at exit and into its JSONL file: the stats_metrics_source (or
  /// the server's own metrics()) and one snapshot of registry() through
  /// the one shared serializer (obs/stats_export.h) — plus "health" (this
  /// server's own verdict, read from the same snapshot), "fleet" (the
  /// merged view over pushed region snapshots; empty regions list when
  /// nothing has pushed), and "events" (the bounded transition ring).
  std::string StatsJson() const;

  /// This node's metrics registry: every series the server records, plus
  /// the ones a RegionalNode around it registers. Nodes sharing a process
  /// each have their own, so their series never mix.
  MetricsRegistry& registry() { return registry_; }
  const MetricsRegistry& registry() const { return registry_; }

  /// The merged fleet view over every STATS_PUSH received so far, rendered
  /// now — what a FLEET_STATS frame answers with.
  FleetView CurrentFleetView() const;

  /// The structured event ring (health transitions, reconnects, spool
  /// replays, idle reaps). RegionalNode records its ship-side events here
  /// so one scrape of the node tells the whole story.
  EventLog& events() { return events_; }
  const EventLog& events() const { return events_; }

 private:
  struct Connection {
    uint64_t id = 0;
    Socket socket;
    /// Serializes socket writes (replies). A nested struct cannot
    /// name the owning server's mu_ in a GUARDED_BY, so the field below
    /// carries its discipline as a comment; the enclosing class's
    /// annotated methods are where the analysis enforces it.
    Mutex write_mu;
    /// Queued-but-unabsorbed DATA (inline frames never count); mu_.
    uint64_t data_inflight = 0;
    size_t next_shard = 0;     ///< connection-local round-robin cursor
    std::atomic<uint64_t> frames_received{0};
    std::atomic<uint64_t> bytes_received{0};
    std::atomic<uint64_t> reports_ingested{0};
    std::atomic<uint64_t> corrupt_frames{0};
  };
  struct PumpItem {
    Connection* conn;             ///< kept alive until inflight drains
    std::vector<uint8_t> payload;
    /// Wrapped DATA keeps the outer TRACED payload and points past its
    /// header — the LJSB bytes are never copied or re-encoded.
    size_t payload_offset = 0;
    uint64_t enqueue_ns = 0;      ///< queue-wait timing (obs enabled only)
    TraceContext trace;           ///< inactive unless the frame was TRACED
  };
  /// One shard's ingest lane: a bounded queue drained by a dedicated pump,
  /// plus the mutex that makes the shard's aggregator state lockable by
  /// snapshot/cut/merge paths without stopping the other pumps.
  struct ShardLane {
    std::deque<PumpItem> queue;        ///< guarded by FrameServer::mu_
    CondVar work_cv;                   ///< pump waits for queue items
    std::thread pump;
    mutable Mutex agg_mu;              ///< guards aggregator shard state
    /// Written by readers under mu_, but read lock-free by metrics paths —
    /// atomic so a TSan-clean snapshot never has to take the queue lock.
    std::atomic<uint64_t> queue_high_water{0};
    std::atomic<uint64_t> frames{0};
    std::atomic<uint64_t> reports{0};
    /// Cached registry instruments (stable pointers, see obs/metrics.h):
    /// per-shard queue-wait and absorb-time distributions.
    ObsHistogram* queue_wait_hist = nullptr;
    ObsHistogram* absorb_hist = nullptr;
  };
  struct RegionState {
    uint64_t next_epoch = 0;  ///< pushes below this are duplicates
    /// Epochs reserved but not yet merged+observed. A retry of one of
    /// these waits for the original to complete before its duplicate ack,
    /// so "kDuplicate" always means "applied", never "in flight" — and
    /// the epoch observer sees a region's epochs strictly in order even
    /// when a connection dies mid-merge and the shipper retries on a
    /// fresh one.
    std::set<uint64_t> inflight;
    RegionMetrics metrics;
  };

  /// One client frame as a route handler sees it. A TRACED envelope is
  /// already unwrapped: `type` is the inner type, `trace` its context, and
  /// payload() the inner payload. `wire` stays the outer frame as the
  /// connection's FrameReader returned it — usually a view of its buffer,
  /// valid only until the next read — so only a DATA frame bound for a
  /// pump takes its bytes over (TakePayload).
  struct InboundFrame {
    NetFrameType type = NetFrameType::kData;
    BufferedFrame wire;
    size_t offset = 0;   ///< inner payload start (past a TRACED header)
    TraceContext trace;  ///< inactive unless the frame was TRACED
    std::span<const uint8_t> payload() const {
      return wire.payload().subspan(offset);
    }
  };
  /// Handles one routed frame. Returns false when the session is over —
  /// the handler has already replied and, on an error, closed the socket.
  using FrameHandler = bool (FrameServer::*)(Connection&, InboundFrame&);
  struct FrameRoute {
    FrameHandler handler = nullptr;
    /// Handled only once every DATA frame the connection sent before it is
    /// absorbed — what gives the reply its "your data is in the lanes"
    /// meaning. Requests without it never stall behind (or hold up) ingest.
    bool ordered_after_data = false;
  };
  /// The route table row for a client request type; nullptr for every type
  /// clients may not send (a second HELLO, any server→client frame).
  static const FrameRoute* RouteFor(NetFrameType type);

  /// A reader worker: accept, register, ReaderLoop, repeat, until the
  /// server stops, the listener dies or the worker retires as idle.
  void ReaderWorker(uint64_t backoff_seed);
  /// Starts one more reader worker, counted as accepting from the start.
  void SpawnWorker() LDPJS_REQUIRES(mu_);
  /// Moves the calling worker's own handle to retired_workers_ as it exits.
  void RetireWorker() LDPJS_REQUIRES(mu_);
  /// The HELLO handshake, read through the connection's `reader`. Returns
  /// whether the session is open; on a refusal the peer has been sent
  /// ERROR and its socket is shut down.
  bool OpenSession(Connection& conn, FrameReader& reader);
  /// Serves one registered connection to its end, then unregisters it:
  /// its final counters become a departed_ row.
  void ReaderLoop(Connection* conn);
  void PumpLoop(size_t shard);
  /// The one absorb routine, run by a shard's pump for a queued frame and
  /// by the reader for an inline one: ingests `payload` into `shard` under
  /// its lock and counts it. From `start_ns` (0 when obs is off) it records
  /// the shard's absorb time and, for a traced frame, the shard_absorb span.
  /// `enqueue_ns` is a queued frame's admission time, whose wait it records
  /// with the server_queue span; 0 for an inline frame, which has no queue
  /// stage. A corrupt envelope touches no lane and is RejectCorrupt'ed.
  /// Returns whether the frame was absorbed.
  bool AbsorbData(Connection& conn, size_t shard,
                  std::span<const uint8_t> payload, const TraceContext& trace,
                  uint64_t enqueue_ns, uint64_t start_ns);
  /// Blocks until every DATA frame `conn` enqueued has been absorbed — the
  /// ordering barrier control frames ride on.
  void WaitConnDrained(Connection* conn);
  // Route handlers (see RouteFor for which are ordered after DATA).
  bool HandleData(Connection& conn, InboundFrame& frame);
  bool HandleSnapshot(Connection& conn, InboundFrame& frame);
  bool HandleEpochPush(Connection& conn, InboundFrame& frame);
  bool HandleFinalize(Connection& conn, InboundFrame& frame);
  bool HandlePing(Connection& conn, InboundFrame& frame);
  bool HandleBye(Connection& conn, InboundFrame& frame);
  /// Answers one QUERY from the published view; a semantically invalid
  /// request gets ERROR but keeps the session.
  bool HandleQuery(Connection& conn, InboundFrame& frame);
  /// Answers one STATS_REQUEST with the StatsJson() payload.
  bool HandleStats(Connection& conn, InboundFrame& frame);
  /// Absorbs one STATS_PUSH into the fleet store (health transitions go to
  /// the event log) and acks.
  bool HandleStatsPush(Connection& conn, InboundFrame& frame);
  /// Answers one FLEET_STATS_REQUEST with the encoded CurrentFleetView().
  bool HandleFleetStats(Connection& conn, InboundFrame& frame);
  /// Notes a traced frame absorbed into the lanes: the pending-publish and
  /// pending-cut slots keep the oldest unclaimed origin, so the claimed
  /// latency is the conservative (worst) one across a publish interval.
  void NoteAbsorbedTrace(const TraceContext& trace);
  void RecordQueryOutcome(size_t kind_index, uint64_t start_ns, bool rejected);
  ConnectionMetrics SnapshotConnection(const Connection& conn) const;
  /// Writes one reply frame under the connection's write lock. A failed
  /// write (the peer stopped reading or vanished) shuts the socket down and
  /// returns false.
  bool Reply(Connection& conn, NetFrameType type,
             std::span<const uint8_t> payload);
  void SendError(Connection& conn, const Status& status);
  /// ERROR, then shut the socket down at once, so the peer reads EOF next.
  void CloseWithError(Connection& conn, const Status& status);
  /// A protocol violation: counted as a corrupt frame, then CloseWithError.
  void RejectCorrupt(Connection& conn, const Status& status);
  bool HelloMatches(const SessionHello& hello) const;
  /// Merges every shard's lanes under all shard locks (consistent cut).
  /// The lock set is dynamic (one agg_mu per lane), which the static
  /// analysis cannot model — the definition opts out and documents why.
  LdpJoinSketchServer MergeShardsLocked() const
      LDPJS_NO_THREAD_SAFETY_ANALYSIS;
  /// Cuts the epoch under all shard locks (same dynamic-lock-set opt-out).
  ShardedAggregator::EpochCut CutAllShards()
      LDPJS_NO_THREAD_SAFETY_ANALYSIS;

  SketchParams params_;
  double epsilon_;
  FrameServerOptions options_;
  size_t max_session_payload_;    ///< DATA cap or EPOCH_PUSH bound
  ShardedAggregator aggregator_;  ///< shard s owned by pump s (agg_mu)
  std::vector<std::unique_ptr<ShardLane>> lanes_;
  std::atomic<size_t> push_shard_{0};  ///< EPOCH_PUSH merge round-robin

  Socket listener_;
  uint16_t port_ = 0;

  mutable Mutex mu_;
  CondVar space_cv_;     ///< readers wait for queue space
  CondVar drain_cv_;     ///< waits for inflight==0 / readers
  CondVar finalize_cv_;
  /// Every running reader worker's handle. Once stopping_ is set no worker
  /// spawns or retires, so Stop() owns both lists.
  std::vector<std::thread> workers_ LDPJS_GUARDED_BY(mu_);
  /// Handles of workers that exited while the server ran, joined outside
  /// mu_ by the next worker to return to accept(), or by Stop().
  std::vector<std::thread> retired_workers_ LDPJS_GUARDED_BY(mu_);
  /// Workers in accept() (or backing off to retry it).
  size_t accepting_workers_ LDPJS_GUARDED_BY(mu_) = 0;
  uint64_t workers_spawned_ LDPJS_GUARDED_BY(mu_) = 0;  ///< backoff seeds
  /// Live connections only, each owned by the worker that reads it: when
  /// its session ends and its in-flight frames are absorbed, the worker
  /// unregisters it and folds its counters into departed_, so server
  /// memory does not grow with the total number of clients ever served.
  std::vector<Connection*> connections_ LDPJS_GUARDED_BY(mu_);
  /// Final per-conn snapshots, newest last. Bounded: once it exceeds
  /// kMaxDepartedRows the oldest rows are folded into departed_folded_ —
  /// a reconnect storm grows counters, never memory.
  std::deque<ConnectionMetrics> departed_ LDPJS_GUARDED_BY(mu_);
  /// Accumulator of folded rows / rows folded so far.
  ConnectionMetrics departed_folded_ LDPJS_GUARDED_BY(mu_);
  uint64_t connections_folded_ LDPJS_GUARDED_BY(mu_) = 0;
  std::map<uint32_t, RegionState> regions_ LDPJS_GUARDED_BY(mu_);
  /// Reports of every EPOCH_PUSH reserved so far, merged or merging.
  uint64_t pushed_reports_ LDPJS_GUARDED_BY(mu_) = 0;
  bool started_ LDPJS_GUARDED_BY(mu_) = false;
  bool stopping_ LDPJS_GUARDED_BY(mu_) = false;
  bool stopped_ LDPJS_GUARDED_BY(mu_) = false;
  /// Finalize barrier state: anonymous FINALIZEs count
  /// every time, region-tagged ones once per region — a region retrying a
  /// FINALIZE whose ack was lost cannot end a multi-region collection
  /// early. The effective count is anonymous + |regions|.
  size_t anonymous_finalizes_ LDPJS_GUARDED_BY(mu_) = 0;
  std::set<uint32_t> finalized_regions_ LDPJS_GUARDED_BY(mu_);
  bool finalized_ LDPJS_GUARDED_BY(mu_) = false;
  /// RCU-published lifetime view (see CurrentPublishedView).
  ViewPublisher publisher_;
  /// Query counters: answered frames, rejected (corrupt/invalid), and
  /// per-kind served/rejected rows. Lock-free — queries never touch mu_.
  /// Slot 6 of the rejected array is "unknown": the kind never decoded.
  std::atomic<uint64_t> query_frames_{0};
  std::atomic<uint64_t> queries_rejected_{0};
  std::atomic<uint64_t> query_kind_served_[6] = {};
  std::atomic<uint64_t> query_kind_rejected_[7] = {};
  /// Pending trace slots (tiny critical sections; only sampled frames and
  /// publish/cut paths ever touch them). publish: claimed by PublishView()
  /// — serve-tier ingest-to-queryable. cut: claimed by CutEpochSnapshot()
  /// — handed to the regional shipper via TakeCutTrace().
  Mutex obs_mu_;
  TraceContext pending_publish_trace_ LDPJS_GUARDED_BY(obs_mu_);
  TraceContext pending_cut_trace_ LDPJS_GUARDED_BY(obs_mu_);
  TraceContext last_cut_trace_ LDPJS_GUARDED_BY(obs_mu_);
  MetricsRegistry registry_;
  /// Cached registry instruments (stable pointers into registry_; per-shard
  /// ones live on the lanes). epoch_observer_hist_ is registered only when
  /// an epoch_observer is set.
  ObsHistogram* ingest_to_queryable_hist_ = nullptr;
  ObsHistogram* query_latency_hist_ = nullptr;
  ObsHistogram* query_error_latency_hist_ = nullptr;
  ObsHistogram* query_kind_latency_[6] = {};
  ObsGauge* view_last_publish_gauge_ = nullptr;
  ObsHistogram* epoch_observer_hist_ = nullptr;
  /// Fleet state. Both are internally synchronized; `mutable` because
  /// StatsJson() — a const read — evaluates local health and must record
  /// the transition it observes (the read is when a state change becomes
  /// visible, so that is when the event exists).
  mutable FleetStore fleet_;
  mutable EventLog events_;
  mutable std::atomic<uint8_t> local_health_state_{0};
  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> handshakes_rejected_{0};
  std::atomic<uint64_t> accept_failures_{0};      ///< transient, retried
  std::atomic<uint64_t> accept_fatal_{0};         ///< listener dead
  std::atomic<uint64_t> idle_reaped_{0};          ///< hung clients cut
  std::atomic<uint64_t> accept_backoff_micros_{0};
};

}  // namespace ldpjs

#endif  // LDPJS_NET_FRAME_SERVER_H_
