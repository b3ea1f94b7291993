#include "net/frame_server.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <optional>
#include <thread>

#include "common/backoff.h"
#include "common/fault_injector.h"
#include "obs/stats_export.h"
#include "service/query_engine.h"

namespace ldpjs {

namespace {

/// A DATA frame of at most this many reports is absorbed on its
/// connection's reader instead of handed to a pump. Break-even, measured on
/// a 4-vCPU AMD EPYC at k=18, m=1024: AggregatorShard::IngestFrame takes
/// 0.39-0.42 us for 64 reports, 0.9-1.0 us for 128, 2.4-2.6 us for 256,
/// 3.9 us for 512 and 34-43 us for 4096 (6-10 ns per report), while one
/// pump handoff costs the reader 1.4-1.5 us when the pump is awake and
/// 3.4-3.6 us when it has to be woken. Up to about 256 reports, absorbing
/// is no dearer than handing off; above it the handoff wins, and it lets a
/// connection's bulk frames use every shard's core.
constexpr size_t kInlineAbsorbMaxReports = 256;
/// The largest inline DATA payload: a 9-byte LJSB envelope header ("LJSB"
/// magic, version, u32 count) plus the packed reports. Decided from the
/// frame's length alone; a payload whose count disagrees with its length is
/// corrupt, and either path rejects it.
constexpr size_t kInlineAbsorbMaxPayload =
    9 + kInlineAbsorbMaxReports * kWireReportBytes;

/// Bound on retained departed-connection metrics rows; older rows fold
/// into one accumulator so totals stay exact under reconnect storms.
constexpr size_t kMaxDepartedRows = 64;

/// SO_SNDTIMEO on accepted sockets: a client that requests a reply
/// (SNAPSHOT, QUERY, ...) but stops reading can stall a server-side write
/// for at most this long before the write fails and the connection is cut.
constexpr int kSendTimeoutSeconds = 30;

/// EPOCH_PUSH refuses a snapshot that would take the reports pushed to this
/// server past 2^62. Its shards then count at most 2^62 pushed reports plus
/// what DATA frames absorb, which cannot reach another 2^62 in any server's
/// lifetime, so no shard or merged view passes kMaxSketchReports and no lane
/// overflows.
constexpr uint64_t kMaxPushedReports = uint64_t{1} << 62;

}  // namespace

FrameServer::FrameServer(const SketchParams& params, double epsilon,
                         const FrameServerOptions& options)
    : params_(params),
      epsilon_(epsilon),
      options_(options),
      max_session_payload_(
          std::max({kMaxIngestFramePayload, EpochPushPayloadBound(params) + 64,
                    kMaxQueryFramePayload + 64})),
      aggregator_(params, epsilon,
                  options.num_shards == 0 ? 1 : options.num_shards) {
  LDPJS_CHECK(options_.queue_capacity >= 1);
  lanes_.reserve(aggregator_.num_shards());
  for (size_t s = 0; s < aggregator_.num_shards(); ++s) {
    auto lane = std::make_unique<ShardLane>();
    const std::string prefix = "shard" + std::to_string(s);
    lane->queue_wait_hist = registry_.GetHistogram(prefix + "_queue_wait_ns");
    lane->absorb_hist = registry_.GetHistogram(prefix + "_absorb_ns");
    lanes_.push_back(std::move(lane));
  }
  ingest_to_queryable_hist_ = registry_.GetHistogram("ingest_to_queryable_ns");
  query_latency_hist_ = registry_.GetHistogram("query_latency_ns");
  query_error_latency_hist_ = registry_.GetHistogram("query_error_latency_ns");
  static constexpr const char* kKindNames[6] = {
      "join_size", "frequency",   "frequent_items",
      "multiway",  "range_count", "predicate_join"};
  for (size_t i = 0; i < 6; ++i) {
    query_kind_latency_[i] =
        registry_.GetHistogram(std::string("query_") + kKindNames[i] +
                               "_latency_ns");
  }
  view_last_publish_gauge_ = registry_.GetGauge("view_last_publish_unix_ns");
  if (options_.epoch_observer) {
    epoch_observer_hist_ = registry_.GetHistogram("epoch_observer_ns");
  }
}

FrameServer::~FrameServer() {
  bool need_stop;
  {
    // The destructor races nothing by contract, but started_/stopped_ are
    // mu_-guarded state — read them like everyone else.
    MutexLock lock(mu_);
    need_stop = started_ && !stopped_;
  }
  if (need_stop) Stop();
}

Status FrameServer::Start() {
  auto listener = Socket::ListenTcp(options_.port);
  if (!listener.ok()) return listener.status();
  listener_ = std::move(*listener);
  port_ = listener_.local_port();
  {
    MutexLock lock(mu_);
    LDPJS_CHECK(!started_);
    started_ = true;
  }
  // Initial empty publication: CurrentPublishedView() is never null once
  // the server is up, so query paths have no "not yet published" branch.
  PublishView();
  for (size_t s = 0; s < lanes_.size(); ++s) {
    lanes_[s]->pump = std::thread(&FrameServer::PumpLoop, this, s);
  }
  MutexLock lock(mu_);
  SpawnWorker();
  return Status::OK();
}

void FrameServer::SpawnWorker() {
  ++accepting_workers_;
  // Under mu_: the handle is in workers_ before the worker can take mu_ to
  // retire it.
  workers_.emplace_back(&FrameServer::ReaderWorker, this, ++workers_spawned_);
}

void FrameServer::RetireWorker() {
  const auto self = std::find_if(
      workers_.begin(), workers_.end(), [](const std::thread& worker) {
        return worker.get_id() == std::this_thread::get_id();
      });
  retired_workers_.push_back(std::move(*self));
  workers_.erase(self);
}

void FrameServer::ReaderWorker(uint64_t backoff_seed) {
  // Jittered backoff between failed accepts: aborted handshakes, buffer
  // pressure or a full fd table back the worker off without spinning and
  // without parking it on a fixed interval.
  Backoff backoff(BackoffOptions{
      .base_micros = 1000, .cap_micros = 200000, .seed = backoff_seed});
  for (;;) {
    Result<Socket> accepted = listener_.Accept();
    if (!accepted.ok()) {
      const bool listener_dead =
          accepted.status().code() == StatusCode::kInternal;
      {
        MutexLock lock(mu_);
        if (stopping_) return;  // Stop() joins this worker
        if (listener_dead) {
          // The listener is closed or no longer listening: every retry
          // would fail the same way, so this worker stops accepting.
          accept_fatal_.fetch_add(1, std::memory_order_relaxed);
          --accepting_workers_;
          RetireWorker();
          return;
        }
      }
      accept_failures_.fetch_add(1, std::memory_order_relaxed);
      const uint64_t slept_before = backoff.total_micros();
      backoff.SleepNext();
      accept_backoff_micros_.fetch_add(backoff.total_micros() - slept_before,
                                       std::memory_order_relaxed);
      continue;
    }
    backoff.Reset();  // a successful accept ends the incident
    Connection conn;
    conn.socket = std::move(*accepted);
    conn.socket.SetSendTimeout(kSendTimeoutSeconds);
    if (options_.idle_timeout_seconds > 0) {
      conn.socket.SetRecvTimeout(options_.idle_timeout_seconds);
    }
    {
      // Checked with the registration, so once Stop() has set stopping_
      // and shut down every registered socket no connection joins them: a
      // late one is closed unread.
      MutexLock lock(mu_);
      if (stopping_) return;
      conn.id = connections_accepted_.fetch_add(1, std::memory_order_relaxed);
      connections_.push_back(&conn);
      if (--accepting_workers_ == 0) SpawnWorker();
    }
    ReaderLoop(&conn);
    std::vector<std::thread> retired;
    {
      MutexLock lock(mu_);
      if (stopping_) return;
      if (accepting_workers_ >= kMaxIdleWorkers) {
        RetireWorker();
        return;
      }
      ++accepting_workers_;
      retired.swap(retired_workers_);
    }
    for (std::thread& worker : retired) worker.join();
  }
}

bool FrameServer::HelloMatches(const SessionHello& hello) const {
  // A session's reports land in these lanes, so the client's sketch must be
  // Mergeable with the server's: the casts map every u32 to a distinct int.
  const SketchParams theirs{static_cast<int>(hello.k),
                            static_cast<int>(hello.m), hello.seed};
  return Mergeable(theirs, hello.epsilon, params_, epsilon_);
}

bool FrameServer::Reply(Connection& conn, NetFrameType type,
                        std::span<const uint8_t> payload) {
  MutexLock g(conn.write_mu);
  if (WriteNetFrame(conn.socket, type, payload).ok()) return true;
  conn.socket.ShutdownBoth();
  return false;
}

void FrameServer::SendError(Connection& conn, const Status& status) {
  // Best effort: the peer may already be gone.
  MutexLock g(conn.write_mu);
  (void)WriteNetFrame(conn.socket, NetFrameType::kError,
                      EncodeErrorPayload(status));
}

void FrameServer::CloseWithError(Connection& conn, const Status& status) {
  SendError(conn, status);
  // Shut the socket down NOW: the peer reads EOF right after the ERROR, and
  // the reader (when a pump rejected the frame) wakes from recv and exits,
  // closing the fd — see the end of ReaderLoop for why the close matters.
  conn.socket.ShutdownBoth();
}

void FrameServer::RejectCorrupt(Connection& conn, const Status& status) {
  conn.corrupt_frames.fetch_add(1, std::memory_order_relaxed);
  CloseWithError(conn, status);
}

void FrameServer::WaitConnDrained(Connection* conn) {
  MutexLock lock(mu_);
  while (conn->data_inflight != 0) drain_cv_.Wait(mu_);
}

const FrameServer::FrameRoute* FrameServer::RouteFor(NetFrameType type) {
  // Indexed by frame type. TRACED never reaches the table (ReaderLoop
  // unwraps it first), and a type without a handler is not a request.
  static constexpr auto kRoutes = [] {
    std::array<FrameRoute, static_cast<size_t>(NetFrameType::kFleetStats) + 1>
        routes{};
    auto route = [&routes](NetFrameType t, FrameHandler handler,
                           bool ordered_after_data) {
      routes[static_cast<size_t>(t)] = {handler, ordered_after_data};
    };
    route(NetFrameType::kData, &FrameServer::HandleData, false);
    route(NetFrameType::kSnapshot, &FrameServer::HandleSnapshot, true);
    route(NetFrameType::kEpochPush, &FrameServer::HandleEpochPush, true);
    route(NetFrameType::kFinalize, &FrameServer::HandleFinalize, true);
    route(NetFrameType::kPing, &FrameServer::HandlePing, true);
    route(NetFrameType::kBye, &FrameServer::HandleBye, true);
    route(NetFrameType::kQuery, &FrameServer::HandleQuery, false);
    route(NetFrameType::kStatsRequest, &FrameServer::HandleStats, false);
    route(NetFrameType::kStatsPush, &FrameServer::HandleStatsPush, false);
    route(NetFrameType::kFleetStatsRequest, &FrameServer::HandleFleetStats,
          false);
    return routes;
  }();
  const size_t index = static_cast<size_t>(type);
  if (index >= kRoutes.size() || kRoutes[index].handler == nullptr) {
    return nullptr;
  }
  return &kRoutes[index];
}

bool FrameServer::OpenSession(Connection& conn, FrameReader& reader) {
  auto frame = reader.Next(kMaxIngestFramePayload);
  if (!frame.ok()) {
    if (frame.status().code() == StatusCode::kDeadlineExceeded) {
      // Connected but never spoke: the idle deadline reaps it.
      idle_reaped_.fetch_add(1, std::memory_order_relaxed);
      ObsEvent reap;
      reap.kind = "idle_reap";
      reap.cause = "connection silent before HELLO";
      events_.Record(std::move(reap));
      conn.socket.ShutdownBoth();
    } else if (frame.status().code() != StatusCode::kNotFound) {
      RejectCorrupt(conn, frame.status());
    }  // else a clean close before HELLO: a port probe, not an error.
    return false;
  }
  if (frame->type != NetFrameType::kHello) {
    RejectCorrupt(conn, Status::Corruption("expected HELLO"));
    return false;
  }
  conn.bytes_received.fetch_add(
      kNetFrameHeaderBytes + frame->payload().size(),
      std::memory_order_relaxed);
  auto hello = DecodeHello(frame->payload());
  if (!hello.ok() && hello.status().code() != StatusCode::kFailedPrecondition) {
    RejectCorrupt(conn, hello.status());
    return false;
  }
  if (!hello.ok() || !HelloMatches(*hello)) {
    // Another protocol version or other sketch params: a well-formed peer
    // of some other session, refused and counted as such.
    handshakes_rejected_.fetch_add(1, std::memory_order_relaxed);
    CloseWithError(conn, !hello.ok()
                             ? hello.status()
                             : Status::FailedPrecondition(
                                   "session params mismatch: server sketch "
                                   "is k=" + std::to_string(params_.k) +
                                   " m=" + std::to_string(params_.m)));
    return false;
  }
  SessionHelloOk ok;
  if (hello->has_region) {
    // The epoch sync a (re)connecting regional shipper runs on: the first
    // epoch this server has NOT applied for that region. A region it has
    // never heard from reads as 0 — the region keeps its own numbering.
    // Read-only: a HELLO must not create a region row.
    MutexLock lock(mu_);
    auto it = regions_.find(hello->region_id);
    if (it != regions_.end()) ok.region_next_epoch = it->second.next_epoch;
  }
  return Reply(conn, NetFrameType::kHelloOk, EncodeHelloOk(ok));
}

void FrameServer::ReaderLoop(Connection* conn) {
  FrameReader reader(conn->socket);
  bool session_open = OpenSession(*conn, reader);
  while (session_open) {
    auto read = reader.Next(max_session_payload_);
    if (!read.ok()) {
      if (read.status().code() == StatusCode::kDeadlineExceeded) {
        // The peer went silent past the idle deadline: reap the
        // connection so a hung client cannot pin a thread and fd forever.
        // Its already-queued frames still drain — reaping loses nothing.
        idle_reaped_.fetch_add(1, std::memory_order_relaxed);
        ObsEvent reap;
        reap.kind = "idle_reap";
        reap.cause = "session idle past deadline";
        events_.Record(std::move(reap));
        CloseWithError(*conn, read.status());
      } else if (read.status().code() != StatusCode::kNotFound) {
        RejectCorrupt(*conn, read.status());
      }
      break;
    }
    InboundFrame frame;
    frame.type = read->type;
    frame.wire = std::move(*read);
    if (frame.type == NetFrameType::kTraced) {
      // Unwrap here so every handler sees exactly the inner frame it would
      // have seen bare — the trace context rides alongside, it never
      // changes the bytes handled. DecodeTraced owns the rule of which
      // inner types may be traced.
      auto traced = DecodeTraced(frame.wire.payload());
      if (!traced.ok()) {
        RejectCorrupt(*conn, traced.status());
        break;
      }
      frame.type = traced->inner_type;
      frame.offset = kTracedHeaderBytes;
      frame.trace.trace_id = traced->trace_id;
      frame.trace.origin_ns = traced->origin_ns;
    }
    const FrameRoute* route = RouteFor(frame.type);
    if (route == nullptr) {
      RejectCorrupt(*conn, Status::Corruption(
                               "unexpected client frame type " +
                               std::to_string(static_cast<int>(frame.type))));
      break;
    }
    conn->frames_received.fetch_add(1, std::memory_order_relaxed);
    conn->bytes_received.fetch_add(
        kNetFrameHeaderBytes + frame.wire.payload().size(),
        std::memory_order_relaxed);
    if (route->ordered_after_data) WaitConnDrained(conn);
    session_open = (this->*route->handler)(*conn, frame);
  }

  {
    MutexLock lock(mu_);
    // Close the fd at once: a peer blocked mid-send on a full receive
    // window never gets the reset shutdown() promises — Linux sends it only
    // when more bytes arrive — so it stays parked until its own send
    // timeout; close() resets it at once. Waiting out the in-flight DATA
    // first means no pump can still reply on the fd or touch `conn`, and
    // closing under mu_ means no Stop()/DisconnectClients() shutdown can
    // hit a reused fd.
    while (conn->data_inflight != 0) drain_cv_.Wait(mu_);
    conn->socket.Close();
    // The counters are final now. Snapshot them into departed_ in the
    // critical section that removes the live entry, so a concurrent
    // metrics() sees the connection exactly once and totals stay monotone.
    std::erase(connections_, conn);
    ConnectionMetrics final_row = SnapshotConnection(*conn);
    final_row.active = false;
    departed_.push_back(final_row);
    // Bound the departed rows: under a reconnect storm (millions of
    // short-lived sessions) the oldest rows fold into one accumulator, so
    // metrics memory is O(kMaxDepartedRows) while every total stays exact
    // and monotone.
    while (departed_.size() > kMaxDepartedRows) {
      const ConnectionMetrics& old = departed_.front();
      departed_folded_.frames_received += old.frames_received;
      departed_folded_.bytes_received += old.bytes_received;
      departed_folded_.reports_ingested += old.reports_ingested;
      departed_folded_.corrupt_frames_rejected += old.corrupt_frames_rejected;
      departed_.pop_front();
      ++connections_folded_;
    }
  }
  drain_cv_.NotifyAll();
}

bool FrameServer::HandleData(Connection& conn, InboundFrame& frame) {
  // Shard-affine routing: connection-local round-robin spreads a single
  // heavy sender across every shard; any routing is bit-identical.
  const size_t shard = conn.next_shard;
  conn.next_shard = (conn.next_shard + 1) % lanes_.size();
  if (frame.payload().size() <= kInlineAbsorbMaxPayload) {
    // Run to completion: absorbing a small frame here costs less than
    // handing it to the pump, and it is in the lanes before the reader
    // reads on, so it never counts in data_inflight.
    return AbsorbData(conn, shard, frame.payload(), frame.trace,
                      /*enqueue_ns=*/0, ObsEnabled() ? NowNanos() : 0);
  }
  ShardLane& lane = *lanes_[shard];
  {
    MutexLock lock(mu_);
    // Park until the shard's pump makes space. During a stopping drain the
    // frame is admitted regardless so the reader can reach the client's
    // close — memory stays bounded at capacity + 1 per shard.
    while (lane.queue.size() >= options_.queue_capacity && !stopping_) {
      space_cv_.Wait(mu_);
    }
    ++conn.data_inflight;
    PumpItem item;
    item.conn = &conn;
    item.payload = frame.wire.TakePayload();
    item.payload_offset = frame.offset;
    item.trace = frame.trace;
    if (ObsEnabled()) item.enqueue_ns = NowNanos();
    lane.queue.push_back(std::move(item));
    // Writers are serialized by mu_, so load-then-store cannot lose an
    // update; the atomic exists for the lock-free metrics read.
    const uint64_t depth = lane.queue.size();
    if (depth > lane.queue_high_water.load(std::memory_order_relaxed)) {
      lane.queue_high_water.store(depth, std::memory_order_relaxed);
    }
  }
  lane.work_cv.NotifyOne();
  return true;
}

bool FrameServer::HandleSnapshot(Connection& conn, InboundFrame& /*frame*/) {
  // Raw-lane snapshot of everything ingested so far (multi-epoch
  // streaming: snapshots merge bit-exactly across epochs).
  return Reply(conn, NetFrameType::kSnapshotData,
               MergeShardsLocked().Serialize());
}

bool FrameServer::HandleFinalize(Connection& conn, InboundFrame& frame) {
  const std::span<const uint8_t> payload = frame.payload();
  if (payload.size() != 0 && payload.size() != 4) {
    // Only 0 (anonymous) or 4 (u32 region tag) are well-formed. A
    // truncated/garbage tag must never fall through to the barrier below —
    // counting it (as anything) could end a multi-region collection early.
    RejectCorrupt(conn, Status::Corruption("malformed FINALIZE payload"));
    return false;
  }
  // The finalizing client's frames are all drained (the route is ordered
  // after DATA): publish them so queries arriving after the collection
  // ends see the complete view.
  PublishView();
  const bool replied = Reply(conn, NetFrameType::kFinalizeOk, {});
  {
    MutexLock lock(mu_);
    if (payload.size() == 4) {
      // Region-tagged: idempotent — a retried forward after a lost
      // FINALIZE_OK counts the region once, never twice.
      uint32_t region = 0;
      for (int i = 0; i < 4; ++i) {
        region |= static_cast<uint32_t>(payload[i]) << (8 * i);
      }
      finalized_regions_.insert(region);
    } else {
      ++anonymous_finalizes_;
    }
  }
  finalize_cv_.NotifyAll();
  return replied;
}

bool FrameServer::HandlePing(Connection& conn, InboundFrame& /*frame*/) {
  // The drain barrier before this handler is the whole point: PING_OK
  // promises "everything you sent is in the lanes" without shipping them
  // back. Republish before acking, so "ping, then query" reads your own
  // writes from the published view.
  PublishView();
  return Reply(conn, NetFrameType::kPingOk, {});
}

bool FrameServer::HandleBye(Connection& conn, InboundFrame& /*frame*/) {
  (void)Reply(conn, NetFrameType::kByeOk, {});
  return false;  // the client is done sending
}

bool FrameServer::HandleEpochPush(Connection& conn, InboundFrame& frame) {
  const TraceContext& trace = frame.trace;
  const uint64_t merge_start_ns =
      (ObsEnabled() && trace.active()) ? NowNanos() : 0;
  auto push = DecodeEpochPush(frame.payload());
  if (!push.ok()) {
    RejectCorrupt(conn, push.status());
    return false;
  }
  // An empty sketch is the idle-region heartbeat: it advances the
  // region's epoch clock (dedup + high-water + ack) without merging a
  // lane, so a region with no traffic cannot freeze the windowed view's
  // aligned frontier for everyone else.
  const bool heartbeat = push->raw_sketch.empty();
  // Decode + validate the pushed sketch before reserving the epoch, so a
  // corrupt push never consumes an epoch number and never needs a
  // reservation rollback — and the decoded sketch is shared by the shard
  // merge and the windowed-view epoch store without a second deserialize.
  std::optional<LdpJoinSketchServer> snapshot;
  if (!heartbeat) {
    auto decoded = aggregator_.DecodeCompatibleSketch(push->raw_sketch);
    if (!decoded.ok()) {
      RejectCorrupt(conn, decoded.status());
      return false;
    }
    snapshot.emplace(std::move(*decoded));
  }
  const uint64_t reports = heartbeat ? 0 : snapshot->total_reports();
  EpochPushAck ack;
  bool fresh = false;
  bool over_bound = false;
  {
    MutexLock lock(mu_);
    RegionState& region = regions_[push->region_id];
    region.metrics.region_id = push->region_id;
    if (push->epoch < region.next_epoch) {
      // Already reserved. If the original push is still merging on a dead
      // connection's reader thread, wait it out: a kDuplicate ack must
      // mean "applied" — the shipper will ship the NEXT epoch on reading
      // it, and the windowed view's observer relies on seeing a region's
      // epochs in order.
      while (region.inflight.count(push->epoch) != 0) drain_cv_.Wait(mu_);
      ++region.metrics.duplicates_ignored;
      ack.code = EpochPushAckCode::kDuplicate;
    } else if (reports > kMaxPushedReports - pushed_reports_) {
      over_bound = true;  // refused before it reserves an epoch
    } else {
      // Reserve the epoch under mu_, merge outside it: a concurrent retry
      // of the same (region, epoch) blocks above until this merge
      // completes, while the k·m-lane merge holds only the target shard's
      // lock — a large snapshot never stalls every reader and pump on the
      // global mutex.
      region.next_epoch = push->epoch + 1;
      region.inflight.insert(push->epoch);
      pushed_reports_ += reports;
      fresh = true;
    }
  }
  if (over_bound) {
    RejectCorrupt(conn, Status::FailedPrecondition(
                            "pushed reports would exceed " +
                            std::to_string(kMaxPushedReports)));
    return false;
  }
  if (fresh) {
    if (!heartbeat) {
      const size_t shard =
          push_shard_.fetch_add(1, std::memory_order_relaxed) % lanes_.size();
      MutexLock agg(lanes_[shard]->agg_mu);
      aggregator_.MergeRawSketch(shard, *snapshot);
    }
    {
      MutexLock lock(mu_);
      RegionState& region = regions_[push->region_id];
      if (heartbeat) {
        ++region.metrics.empty_epochs;
      } else {
        ++region.metrics.epochs_applied;
        region.metrics.reports_merged += snapshot->total_reports();
        region.metrics.snapshot_bytes += push->raw_sketch.size();
      }
      region.metrics.next_epoch = region.next_epoch;
    }
    if (options_.epoch_observer) {
      // After the lanes, before the ack: once the region reads
      // EPOCH_PUSH_OK, windowed views already contain the epoch. The
      // observer may steal the snapshot — it is dead after this call.
      const uint64_t observer_start_ns = ObsEnabled() ? NowNanos() : 0;
      options_.epoch_observer(push->region_id, push->epoch,
                              heartbeat ? nullptr : &*snapshot);
      if (observer_start_ns != 0) {
        const uint64_t now = NowNanos();
        epoch_observer_hist_->Record(
            now > observer_start_ns ? now - observer_start_ns : 0);
      }
    }
    if (ObsEnabled() && trace.active()) {
      TraceLog::Global().Record(trace.trace_id, "central_merge",
                                merge_start_ns, NowNanos());
      // Park the propagated context for the PublishView below to claim: the
      // recorded ingest-to-queryable latency then spans the full circuit,
      // client encode → regional absorb → epoch cut → ship → central merge
      // → published (queryable) view.
      NoteAbsorbedTrace(trace);
    }
    // Same before-the-ack rule for the lifetime view: once the region
    // reads EPOCH_PUSH_OK, queries serve a view containing the epoch.
    PublishView();
    {
      MutexLock lock(mu_);
      regions_[push->region_id].inflight.erase(push->epoch);
    }
    drain_cv_.NotifyAll();
  }
  {
    MutexLock lock(mu_);
    ack.next_epoch = regions_[push->region_id].next_epoch;
  }
  return Reply(conn, NetFrameType::kEpochPushOk, EncodeEpochPushAck(ack));
}

void FrameServer::PumpLoop(size_t shard) {
  ShardLane& lane = *lanes_[shard];
  for (;;) {
    PumpItem item;
    {
      MutexLock lock(mu_);
      // Sleep until there is an item to pump, or — during shutdown, once
      // every connection is gone (no producer remains) — the queue is dry.
      while (lane.queue.empty() && !(stopping_ && connections_.empty())) {
        lane.work_cv.Wait(mu_);
      }
      if (lane.queue.empty()) return;  // fully drained
      item = std::move(lane.queue.front());
      lane.queue.pop_front();
    }
    space_cv_.NotifyAll();
    // enqueue_ns is 0 when obs was off at admission: then nothing is timed.
    (void)AbsorbData(*item.conn, shard,
                     std::span<const uint8_t>(item.payload)
                         .subspan(item.payload_offset),
                     item.trace, item.enqueue_ns,
                     item.enqueue_ns != 0 ? NowNanos() : 0);
    {
      MutexLock lock(mu_);
      --item.conn->data_inflight;
    }
    drain_cv_.NotifyAll();
  }
}

bool FrameServer::AbsorbData(Connection& conn, size_t shard,
                             std::span<const uint8_t> payload,
                             const TraceContext& trace, uint64_t enqueue_ns,
                             uint64_t start_ns) {
  ShardLane& lane = *lanes_[shard];
  Status status;
  uint64_t delta = 0;
  {
    MutexLock agg(lane.agg_mu);
    const uint64_t before = aggregator_.shard(shard).reports_ingested();
    status = aggregator_.IngestFrameToShard(shard, payload);
    delta = aggregator_.shard(shard).reports_ingested() - before;
  }
  if (!status.ok()) {
    // A rejected frame left every lane untouched (shard contract); count
    // it, tell the client, and cut the connection — a client producing
    // corrupt envelopes cannot be trusted with the session.
    RejectCorrupt(conn, status);
    return false;
  }
  conn.reports_ingested.fetch_add(delta, std::memory_order_relaxed);
  lane.frames.fetch_add(1, std::memory_order_relaxed);
  lane.reports.fetch_add(delta, std::memory_order_relaxed);
  // Clock reads only when observability is on; when off, start_ns stays 0
  // and the branch below is not taken.
  if (start_ns != 0) {
    const uint64_t done_ns = NowNanos();
    if (enqueue_ns != 0) {
      lane.queue_wait_hist->Record(
          start_ns > enqueue_ns ? start_ns - enqueue_ns : 0);
    }
    lane.absorb_hist->Record(done_ns > start_ns ? done_ns - start_ns : 0);
    if (trace.active()) {
      if (enqueue_ns != 0) {
        TraceLog::Global().Record(trace.trace_id, "server_queue", enqueue_ns,
                                  start_ns);
      }
      TraceLog::Global().Record(trace.trace_id, "shard_absorb", start_ns,
                                done_ns);
      NoteAbsorbedTrace(trace);
    }
  }
  return true;
}

void FrameServer::NoteAbsorbedTrace(const TraceContext& trace) {
  MutexLock lock(obs_mu_);
  // Keep the oldest unclaimed origin in each slot, so the latency claimed
  // at the next publish/cut is the conservative one for the interval.
  if (!pending_publish_trace_.active() ||
      trace.origin_ns < pending_publish_trace_.origin_ns) {
    pending_publish_trace_ = trace;
  }
  if (!pending_cut_trace_.active() ||
      trace.origin_ns < pending_cut_trace_.origin_ns) {
    pending_cut_trace_ = trace;
  }
}

void FrameServer::WaitForFinalizeRequests(size_t count) {
  MutexLock lock(mu_);
  while (anonymous_finalizes_ + finalized_regions_.size() < count) {
    finalize_cv_.Wait(mu_);
  }
}

LdpJoinSketchServer FrameServer::MergeShardsLocked() const {
  // Dynamic lock set — one agg_mu per lane, all held across the merge —
  // which is why the declaration opts out of the static analysis.
  for (const auto& lane : lanes_) lane->agg_mu.Lock();
  LdpJoinSketchServer merged = aggregator_.MergeShards();
  for (const auto& lane : lanes_) lane->agg_mu.Unlock();
  return merged;
}

ShardedAggregator::EpochCut FrameServer::CutAllShards() {
  // Same dynamic-lock-set opt-out as MergeShardsLocked.
  for (const auto& lane : lanes_) lane->agg_mu.Lock();
  ShardedAggregator::EpochCut cut = aggregator_.CutEpoch();
  for (const auto& lane : lanes_) lane->agg_mu.Unlock();
  return cut;
}

ShardedAggregator::EpochCut FrameServer::CutEpochSnapshot() {
  {
    MutexLock lock(mu_);
    LDPJS_CHECK(!finalized_);
  }
  const uint64_t cut_start_ns = ObsEnabled() ? NowNanos() : 0;
  ShardedAggregator::EpochCut cut = CutAllShards();
  TraceContext claimed;
  {
    // Claim the oldest traced frame absorbed since the last cut: it is in
    // this cut's snapshot now, and TakeCutTrace() hands it to the shipper.
    MutexLock lock(obs_mu_);
    last_cut_trace_ = pending_cut_trace_;
    pending_cut_trace_ = TraceContext{};
    claimed = last_cut_trace_;
  }
  if (cut_start_ns != 0 && claimed.active()) {
    TraceLog::Global().Record(claimed.trace_id, "epoch_cut", cut_start_ns,
                              NowNanos());
  }
  return cut;
}

TraceContext FrameServer::TakeCutTrace() {
  MutexLock lock(obs_mu_);
  TraceContext trace = last_cut_trace_;
  last_cut_trace_ = TraceContext{};
  return trace;
}

void FrameServer::PublishView() {
  const uint64_t publish_start_ns = ObsEnabled() ? NowNanos() : 0;
  LdpJoinSketchServer merged = MergeShardsLocked();
  merged.Finalize();
  // The lifetime view has no window frontier: aligned=false, epoch=0.
  publisher_.Publish(std::move(merged), /*aligned=*/false, /*epoch=*/0);
  if (publish_start_ns == 0) return;
  const uint64_t now = NowNanos();
  view_last_publish_gauge_->Set(now);
  TraceContext claimed;
  {
    MutexLock lock(obs_mu_);
    claimed = pending_publish_trace_;
    pending_publish_trace_ = TraceContext{};
  }
  if (claimed.active()) {
    // The claimed frame's reports just became queryable: the distance from
    // its client-side origin to this publish IS the ingest-to-queryable
    // latency (origin-preserving TRACED EPOCH_PUSH makes the same reading
    // span client→central on the federated path).
    ingest_to_queryable_hist_->Record(
        now > claimed.origin_ns ? now - claimed.origin_ns : 0);
    TraceLog::Global().Record(claimed.trace_id, "view_publish",
                              publish_start_ns, now);
  }
}

void FrameServer::RecordQueryOutcome(size_t kind_index, uint64_t start_ns,
                                     bool rejected) {
  if (start_ns == 0) return;  // obs was off when the query arrived
  const uint64_t now = NowNanos();
  const uint64_t elapsed = now > start_ns ? now - start_ns : 0;
  if (rejected) {
    query_error_latency_hist_->Record(elapsed);
    return;
  }
  query_latency_hist_->Record(elapsed);
  if (kind_index < 6) query_kind_latency_[kind_index]->Record(elapsed);
}

bool FrameServer::HandleQuery(Connection& conn, InboundFrame& frame) {
  const uint64_t start_ns = ObsEnabled() ? NowNanos() : 0;
  auto request = DecodeQueryRequest(frame.payload());
  if (!request.ok()) {
    // Undecodable bytes: protocol violation — cut the connection like any
    // other corrupt frame. The kind never decoded, so the reject lands on
    // the "unknown" attribution row.
    queries_rejected_.fetch_add(1, std::memory_order_relaxed);
    query_kind_rejected_[6].fetch_add(1, std::memory_order_relaxed);
    RecordQueryOutcome(6, start_ns, /*rejected=*/true);
    RejectCorrupt(conn, request.status());
    return false;
  }
  const size_t kind_index = static_cast<size_t>(request->kind);
  const std::shared_ptr<const PublishedView> view =
      options_.query_view_source ? options_.query_view_source()
                                 : publisher_.Current();
  auto response = AnswerQuery(*view, *request);
  if (!response.ok()) {
    // Semantically invalid (mismatched probe shape, oversized domain...):
    // answer with the error and keep the session — the next query may be
    // well-formed.
    queries_rejected_.fetch_add(1, std::memory_order_relaxed);
    query_kind_rejected_[kind_index].fetch_add(1, std::memory_order_relaxed);
    RecordQueryOutcome(kind_index, start_ns, /*rejected=*/true);
    SendError(conn, response.status());
    return true;
  }
  query_frames_.fetch_add(1, std::memory_order_relaxed);
  query_kind_served_[kind_index].fetch_add(1, std::memory_order_relaxed);
  RecordQueryOutcome(kind_index, start_ns, /*rejected=*/false);
  if (start_ns != 0 && frame.trace.active()) {
    TraceLog::Global().Record(frame.trace.trace_id, "query_serve", start_ns,
                              NowNanos());
  }
  return Reply(conn, NetFrameType::kQueryOk, EncodeQueryResponse(*response));
}

bool FrameServer::HandleStats(Connection& conn, InboundFrame& /*frame*/) {
  const std::string json = StatsJson();
  return Reply(conn, NetFrameType::kStats,
               std::span<const uint8_t>(
                   reinterpret_cast<const uint8_t*>(json.data()), json.size()));
}

bool FrameServer::HandleStatsPush(Connection& conn, InboundFrame& frame) {
  auto snapshot = DecodeFleetSnapshot(frame.payload());
  if (!snapshot.ok()) {
    RejectCorrupt(conn, snapshot.status());
    return false;
  }
  const uint32_t region_id = snapshot->region_id;
  const FleetStore::ApplyResult result =
      fleet_.Apply(std::move(*snapshot), NowNanos(), options_.health);
  if (result.region_changed) {
    ObsEvent event;
    event.kind = "health_transition";
    event.region_id = region_id;
    event.from = HealthStateName(result.previous.state);
    event.to = HealthStateName(result.current.state);
    event.cause = result.current.cause;
    events_.Record(std::move(event));
  }
  if (result.cluster_changed) {
    ObsEvent event;
    event.kind = "health_transition";
    event.region_id = region_id;
    event.from = HealthStateName(result.cluster_previous.state);
    event.to = HealthStateName(result.cluster_current.state);
    event.cause = "cluster: " + result.cluster_current.cause;
    events_.Record(std::move(event));
  }
  return Reply(conn, NetFrameType::kStatsPushOk, {});
}

bool FrameServer::HandleFleetStats(Connection& conn, InboundFrame& /*frame*/) {
  return Reply(conn, NetFrameType::kFleetStats,
               EncodeFleetView(CurrentFleetView()));
}

FleetView FrameServer::CurrentFleetView() const {
  return fleet_.View(NowNanos(), options_.health);
}

std::string FrameServer::StatsJson() const {
  const NetMetrics m = options_.stats_metrics_source
                           ? options_.stats_metrics_source()
                           : metrics();
  const MetricsRegistry::Snapshot snapshot = registry_.TakeSnapshot();
  // This server's own verdict, from the same numbers the JSON carries. The
  // scrape is where a state change becomes observable, so the transition
  // event is recorded here — idempotent for unchanged states.
  const HealthVerdict local =
      EvaluateHealth(SignalsFromMetrics(m, snapshot), options_.health);
  const uint8_t previous = local_health_state_.exchange(
      static_cast<uint8_t>(local.state), std::memory_order_relaxed);
  if (previous != static_cast<uint8_t>(local.state)) {
    ObsEvent event;
    event.kind = "health_transition";
    event.from = HealthStateName(static_cast<HealthState>(previous));
    event.to = HealthStateName(local.state);
    event.cause = local.cause;
    events_.Record(std::move(event));
  }
  std::string extra = "\"health\":";
  extra += HealthVerdictToJson(local);
  extra += ",\"fleet\":";
  extra += FleetViewToJson(CurrentFleetView());
  extra += ",\"events\":";
  extra += events_.ToJsonArray();
  return StatsToJson(m, snapshot, extra);
}

void FrameServer::DisconnectClients() {
  MutexLock lock(mu_);
  for (Connection* conn : connections_) conn->socket.ShutdownBoth();
}

void FrameServer::Stop() {
  {
    MutexLock lock(mu_);
    if (!started_ || stopped_) return;
    // From here on no worker registers a connection, spawns or retires:
    // each checks stopping_ in the critical section where it would.
    stopping_ = true;
    // Disconnect whoever is still attached: readers blocked in recv see
    // EOF and exit, so Stop cannot hang on an idle or silent client. A
    // client that completed Finish() has already been fully ingested; any
    // frames the stragglers queued are still drained by the pumps below.
    for (Connection* conn : connections_) conn->socket.ShutdownBoth();
  }
  space_cv_.NotifyAll();
  drain_cv_.NotifyAll();
  listener_.ShutdownBoth();  // wakes every worker blocked in accept()
  // The connections just shut down are the last ones: wait until their
  // readers are done, so no producer can enqueue behind a pump's back.
  {
    MutexLock lock(mu_);
    while (!connections_.empty()) drain_cv_.Wait(mu_);
  }
  // Pumps drain their queues dry, then exit.
  for (auto& lane : lanes_) lane->work_cv.NotifyAll();
  for (auto& lane : lanes_) lane->pump.join();
  std::vector<std::thread> workers;
  std::vector<std::thread> retired;
  {
    MutexLock lock(mu_);
    workers.swap(workers_);
    retired.swap(retired_workers_);
  }
  for (std::thread& worker : workers) worker.join();
  for (std::thread& worker : retired) worker.join();
  listener_.Close();
  {
    MutexLock lock(mu_);
    stopped_ = true;
  }
}

LdpJoinSketchServer FrameServer::Finalize() {
  {
    MutexLock lock(mu_);
    LDPJS_CHECK(stopped_);     // queues are drained exactly when stopped
    LDPJS_CHECK(!finalized_);  // the global debias+transform happens once
    finalized_ = true;
  }
  return aggregator_.Finalize();
}

ConnectionMetrics FrameServer::SnapshotConnection(
    const Connection& conn) const {
  ConnectionMetrics c;
  c.id = conn.id;
  c.active = true;  // a departing connection's row is flipped by its reader
  c.frames_received = conn.frames_received.load(std::memory_order_relaxed);
  c.bytes_received = conn.bytes_received.load(std::memory_order_relaxed);
  c.reports_ingested = conn.reports_ingested.load(std::memory_order_relaxed);
  c.corrupt_frames_rejected =
      conn.corrupt_frames.load(std::memory_order_relaxed);
  return c;
}

NetMetrics FrameServer::metrics() const {
  NetMetrics m;
  MutexLock lock(mu_);
  m.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  m.handshakes_rejected = handshakes_rejected_.load(std::memory_order_relaxed);
  m.accept_failures = accept_failures_.load(std::memory_order_relaxed);
  m.accept_fatal = accept_fatal_.load(std::memory_order_relaxed);
  m.idle_reaped = idle_reaped_.load(std::memory_order_relaxed);
  m.connections_folded = connections_folded_;
  m.retries_attempted = m.accept_failures;  // server-side retries = accepts
  m.backoff_millis =
      accept_backoff_micros_.load(std::memory_order_relaxed) / 1000;
  if (const FaultInjector* injector = FaultInjector::Active()) {
    m.faults_injected = injector->total_injected();
  }
  m.query_frames = query_frames_.load(std::memory_order_relaxed);
  m.queries_rejected = queries_rejected_.load(std::memory_order_relaxed);
  m.views_published = publisher_.publications();
  static constexpr const char* kQueryKindNames[6] = {
      "join_size", "frequency",   "frequent_items",
      "multiway",  "range_count", "predicate_join"};
  for (size_t i = 0; i < 6; ++i) {
    const uint64_t served =
        query_kind_served_[i].load(std::memory_order_relaxed);
    if (served > 0) {
      m.query_kinds.push_back(QueryKindMetrics{kQueryKindNames[i], served});
    }
  }
  // Rejects attributable to a kind; slot 6 collects the ones whose kind
  // never decoded (corrupt payload).
  for (size_t i = 0; i < 7; ++i) {
    const uint64_t rejected =
        query_kind_rejected_[i].load(std::memory_order_relaxed);
    if (rejected > 0) {
      m.query_rejected_kinds.push_back(QueryKindMetrics{
          i < 6 ? kQueryKindNames[i] : "unknown", rejected});
    }
  }
  m.connections.assign(departed_.begin(), departed_.end());
  for (const Connection* conn : connections_) {
    m.connections.push_back(SnapshotConnection(*conn));
  }
  // Totals start from the folded accumulator so they cover every
  // connection ever served, not just the retained rows.
  m.frames_received = departed_folded_.frames_received;
  m.bytes_received = departed_folded_.bytes_received;
  m.reports_ingested = departed_folded_.reports_ingested;
  m.corrupt_frames_rejected = departed_folded_.corrupt_frames_rejected;
  for (const ConnectionMetrics& c : m.connections) {
    m.connections_active += c.active ? 1 : 0;
    m.frames_received += c.frames_received;
    m.bytes_received += c.bytes_received;
    m.reports_ingested += c.reports_ingested;
    m.corrupt_frames_rejected += c.corrupt_frames_rejected;
  }
  for (const auto& lane : lanes_) {
    ShardMetrics shard;
    shard.frames = lane->frames.load(std::memory_order_relaxed);
    shard.reports = lane->reports.load(std::memory_order_relaxed);
    shard.queue_high_water =
        lane->queue_high_water.load(std::memory_order_relaxed);
    m.queue_high_water = std::max(m.queue_high_water, shard.queue_high_water);
    m.shards.push_back(shard);
  }
  for (const auto& [id, region] : regions_) {
    m.regions.push_back(region.metrics);
    m.epochs_applied += region.metrics.epochs_applied;
    m.epoch_duplicates_ignored += region.metrics.duplicates_ignored;
  }
  return m;
}

}  // namespace ldpjs
