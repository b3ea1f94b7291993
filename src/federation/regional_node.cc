#include "federation/regional_node.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <utility>

#include "common/random.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ldpjs {

namespace {

/// Per-region jitter stream: two regions with identical options must not
/// sleep in lockstep against a recovering central.
BackoffOptions RegionBackoff(const BackoffOptions& base, uint32_t region_id) {
  BackoffOptions options = base;
  options.seed = Mix64(base.seed ^ (0x5E6100AALL + region_id));
  return options;
}

}  // namespace

RegionalNode::RegionalNode(const SketchParams& params, double epsilon,
                           const RegionalNodeOptions& options)
    : params_(params),
      epsilon_(epsilon),
      options_(options),
      server_(params, epsilon, [&, this] {
        FrameServerOptions server_options = options.server;
        // A STATS scrape of the regional ingest port reports this node's
        // augmented metrics() — ship retries, backoff, spool traffic — not
        // just the bare server counters. Safe to capture `this`: the
        // source is only invoked by a running server, after construction.
        server_options.stats_metrics_source = [this] { return metrics(); };
        return server_options;
      }()) {
  LDPJS_CHECK(options_.max_ship_attempts >= 1);
  const std::string region = std::to_string(options_.region_id);
  ship_rtt_hist_ = MetricsRegistry::Default().GetHistogram(
      "region" + region + "_ship_rtt_ns");
  spool_replay_hist_ = MetricsRegistry::Default().GetHistogram(
      "region" + region + "_spool_replay_ns");
  // Epoch numbers start at 0 for every incarnation and sync with the
  // central's per-region high-water on each (re)connect (AdoptCentralEpoch)
  // — deterministic and collision-free by construction, where the previous
  // wall-clock seeding silently lost data on a same-tick restart or a
  // backwards clock step, and destroyed cross-region epoch alignment (each
  // region's numbers started at an arbitrary timestamp).
}

RegionalNode::~RegionalNode() {
  // Best-effort teardown: never blocks on an unreachable central. Data not
  // shipped yet is lost with the process — call FlushAndStop for the
  // guaranteed flush.
  if (scheduler_) scheduler_->Stop();
  server_.Stop();
}

Status RegionalNode::Start() {
  if (!options_.spool_dir.empty()) {
    // Recover before anything ships: epochs a crashed predecessor cut but
    // never got acked re-enter the pending queue with their attempted
    // flags intact, and our numbering resumes above them. The first
    // (re)connect's AdoptCentralEpoch then reconciles with the central —
    // attempted epochs retry under their frozen numbers (the dedup
    // resolves merged-but-unacked to exactly-once), un-attempted ones
    // renumber safely.
    MutexLock lock(ship_mu_);
    const uint64_t replay_start_ns = ObsEnabled() ? NowNanos() : 0;
    std::vector<SpoolEntry> recovered;
    LDPJS_RETURN_IF_ERROR(
        spool_.Open(options_.spool_dir, options_.region_id, &recovered));
    for (SpoolEntry& entry : recovered) {
      next_epoch_ = std::max(next_epoch_, entry.epoch + 1);
      // The recovered trace context (kTrace record) rides the replayed
      // push, so crash recovery is visible in the latency series instead
      // of silently dropping the sample.
      pending_.push_back(PendingSnapshot{
          entry.epoch, std::move(entry.raw_sketch), entry.attempted,
          TraceContext{entry.trace_id, entry.origin_ns}});
    }
    if (replay_start_ns != 0) {
      const uint64_t now = NowNanos();
      spool_replay_hist_->Record(now > replay_start_ns
                                     ? now - replay_start_ns
                                     : 0);
    }
    if (!recovered.empty()) {
      ObsEvent event;
      event.kind = "spool_replay";
      event.region_id = options_.region_id;
      event.cause = std::to_string(recovered.size()) +
                    " pending epochs rebuilt from spool";
      server_.events().Record(std::move(event));
    }
  }
  LDPJS_RETURN_IF_ERROR(server_.Start());
  if (options_.epoch_millis > 0) {
    scheduler_ = std::make_unique<EpochScheduler>(
        std::chrono::milliseconds(options_.epoch_millis), [this](uint64_t) {
          // A failed ship keeps its snapshots pending; the next tick (or
          // the final flush) resumes them, so a tick never loses data.
          (void)CutAndShip();
        });
    scheduler_->Start();
  }
  return Status::OK();
}

Status RegionalNode::CutAndShip() {
  MutexLock lock(ship_mu_);
  if (flushed_) {
    return Status::FailedPrecondition("region already flushed");
  }
  ShardedAggregator::EpochCut cut = server_.CutEpochSnapshot();
  // Claimed exactly once per cut: the oldest sampled trace absorbed into
  // this snapshot rides its EPOCH_PUSH upstream, origin intact.
  const TraceContext cut_trace = server_.TakeCutTrace();
  const uint64_t epoch = next_epoch_++;
  if (cut.reports > 0) {
    pending_.push_back(PendingSnapshot{epoch, std::move(cut.raw_sketch),
                                       /*attempted=*/false, cut_trace});
    // Write-ahead: the snapshot is durable before the only other copy (the
    // queue entry) exists — a crash anywhere after this line replays it.
    SpoolAppendLocked(pending_.back());
  } else if (!pending_.empty() && pending_.back().raw_sketch.empty() &&
             !pending_.back().attempted) {
    // Consecutive idle cuts coalesce into one heartbeat carrying the
    // newest epoch number — an idle spell costs one 12-byte push, not one
    // per tick.
    pending_.back().epoch = epoch;
  } else {
    // Empty-epoch heartbeat (zero sketch bytes): nothing to merge, but
    // the central must still see this region's epoch clock advance or an
    // idle region would freeze the windowed view's aligned frontier — and
    // stale pending snapshots would pile up at every active region.
    pending_.push_back(
        PendingSnapshot{epoch, {}, /*attempted=*/false, TraceContext{}});
  }
  return ShipPendingLocked();
}

Status RegionalNode::ShipPendingLocked() {
  int attempts = 0;
  Backoff backoff_state(RegionBackoff(options_.ship_backoff,
                                      options_.region_id));
  auto backoff = [&](const Status& status) -> Status {
    ++ship_retries_;
    if (++attempts >= options_.max_ship_attempts) {
      return Status::Unavailable(
          "central unreachable after " + std::to_string(attempts) +
          " ship attempts (" + std::to_string(pending_.size()) +
          " snapshots pending, none lost): " + status.ToString());
    }
    const uint64_t before = backoff_state.total_micros();
    backoff_state.SleepNext();
    ship_backoff_micros_ += backoff_state.total_micros() - before;
    return Status::OK();
  };
  while (!pending_.empty()) {
    if (!upstream_) {
      FrameSender::Options sender_options;
      sender_options.announce_region = true;
      sender_options.region_id = options_.region_id;
      sender_options.recv_timeout_seconds =
          options_.upstream_recv_timeout_seconds;
      sender_options.fault_site = options_.upstream_fault_site;
      auto sender =
          FrameSender::Connect(options_.central_host, options_.central_port,
                               params_, epsilon_, sender_options);
      if (!sender.ok()) {
        LDPJS_RETURN_IF_ERROR(backoff(sender.status()));
        continue;
      }
      upstream_.emplace(std::move(*sender));
      if (had_upstream_) {
        ObsEvent event;
        event.kind = "reconnect";
        event.region_id = options_.region_id;
        event.cause = "upstream session re-established to central";
        server_.events().Record(std::move(event));
      }
      had_upstream_ = true;
      // The HELLO_OK carried the central's next-expected epoch for this
      // region — the restart/collision sync.
      AdoptCentralEpoch(upstream_->region_next_epoch());
    }
    PendingSnapshot& snap = pending_.front();
    // From here the snapshot's number is frozen: the push may merge even
    // if we never see the ack, and only retrying the same (region, epoch)
    // resolves that ambiguity to exactly-once. The frozen number must hit
    // the spool BEFORE the wire — a crash between the push and the ack
    // must replay the SAME epoch, never renumber a possibly-merged one.
    if (!snap.attempted) {
      SpoolMarkAttemptedLocked(snap);
      snap.attempted = true;
    }
    const uint64_t ship_start_ns = ObsEnabled() ? NowNanos() : 0;
    auto ack = upstream_->PushEpochSnapshotTraced(
        options_.region_id, snap.epoch, snap.raw_sketch, snap.trace);
    if (!ack.ok()) {
      // Outcome unknown (the connection may have died after the central
      // merged but before we read the ack): reconnect and push the same
      // (region, epoch) again — the central's dedup makes it exactly-once.
      upstream_.reset();
      LDPJS_RETURN_IF_ERROR(backoff(ack.status()));
      continue;
    }
    ++epochs_shipped_;
    if (ship_start_ns != 0) {
      const uint64_t now = NowNanos();
      const uint64_t rtt = now > ship_start_ns ? now - ship_start_ns : 0;
      ship_rtt_hist_->Record(rtt);
      if (snap.trace.active()) {
        TraceLog::Global().Record(snap.trace.trace_id, "regional_ship",
                                  ship_start_ns, now);
      }
    }
    if (ack->code == EpochPushAckCode::kDuplicate) {
      ++duplicate_acks_;  // a retry resolved to exactly-once
    }
    // Track the central's high-water as it advances, so future cuts are
    // numbered above everything it has applied even mid-session.
    next_epoch_ = std::max(next_epoch_, ack->next_epoch);
    snapshot_bytes_shipped_ += snap.raw_sketch.size();
    SpoolMarkShippedLocked(snap);
    pending_.pop_front();
  }
  MaybePushStatsLocked(/*force=*/false);
  return Status::OK();
}

FleetSnapshot RegionalNode::BuildStatsSnapshotLocked() const {
  FleetSnapshot snap;
  snap.region_id = options_.region_id;
  snap.captured_unix_ns = NowNanos();
  snap.stats = MetricsRegistry::Default().TakeSnapshot();
  // The synthetic net_* series: the central's health evaluator
  // (SignalsFromSnapshot) reads exactly these names, so a pushed snapshot
  // carries its own health inputs instead of the central re-scraping.
  const NetMetrics m = server_.metrics();
  snap.stats.counters.emplace_back("net_frames_received", m.frames_received);
  snap.stats.counters.emplace_back("net_frames_shed", m.frames_shed);
  snap.stats.counters.emplace_back("net_corrupt_frames_rejected",
                                   m.corrupt_frames_rejected);
  snap.stats.counters.emplace_back("net_reports_ingested",
                                   m.reports_ingested);
  snap.stats.gauges.emplace_back("net_frontier_epoch", next_epoch_);
  snap.stats.gauges.emplace_back("net_pending_epochs", pending_.size());
  return snap;
}

void RegionalNode::MaybePushStatsLocked(bool force) {
  if (!options_.push_stats || !upstream_) return;
  const uint64_t now = NowNanos();
  const uint64_t period_ns =
      static_cast<uint64_t>(options_.stats_push_period_ms) * 1000000ull;
  if (!force && last_stats_push_ns_ != 0 &&
      now - last_stats_push_ns_ < period_ns) {
    return;
  }
  const Status pushed = upstream_->PushStats(BuildStatsSnapshotLocked());
  if (pushed.ok()) {
    last_stats_push_ns_ = now;
    ++stats_pushes_;
  } else {
    // The session's state is ambiguous after a failed exchange; drop it so
    // the next ship reconnects. Data is untouched — a lost stats push just
    // means the central's row for this region ages until the next one.
    ++stats_push_failures_;
    upstream_.reset();
  }
}

void RegionalNode::SpoolAppendLocked(const PendingSnapshot& snap) {
  if (!spool_.is_open() || snap.raw_sketch.empty()) return;
  if (!spool_.AppendSnapshot(snap.epoch, snap.raw_sketch).ok()) {
    ++spool_errors_;  // durability degraded; keep shipping from memory
  } else if (snap.trace.active() &&
             !spool_
                  .RecordTrace(snap.epoch, snap.trace.trace_id,
                               snap.trace.origin_ns)
                  .ok()) {
    ++spool_errors_;
  }
}

void RegionalNode::SpoolMarkAttemptedLocked(const PendingSnapshot& snap) {
  if (!spool_.is_open() || snap.raw_sketch.empty()) return;
  if (!spool_.MarkAttempted(snap.epoch).ok()) ++spool_errors_;
}

void RegionalNode::SpoolMarkShippedLocked(const PendingSnapshot& snap) {
  if (!spool_.is_open() || snap.raw_sketch.empty()) return;
  if (!spool_.MarkShipped(snap.epoch).ok()) ++spool_errors_;
}

void RegionalNode::AdoptCentralEpoch(uint64_t central_next_epoch) {
  // Renumber pending snapshots the central would otherwise silently dedup
  // away: anything un-attempted and numbered below its next-expected epoch
  // moves up (in order, preserving gaps above the floor). Attempted
  // snapshots keep their number — their push may already have merged, and
  // renumbering them would turn the dedup's exactly-once into
  // double-counting.
  uint64_t floor = central_next_epoch;
  for (PendingSnapshot& snap : pending_) {
    if (snap.attempted) {
      floor = std::max(floor, snap.epoch + 1);
      continue;
    }
    if (snap.epoch < floor) {
      if (spool_.is_open() && !snap.raw_sketch.empty() &&
          !spool_.RecordRenumber(snap.epoch, floor).ok()) {
        ++spool_errors_;
      }
      snap.epoch = floor;
      ++epochs_renumbered_;
    }
    floor = snap.epoch + 1;
  }
  next_epoch_ = std::max(next_epoch_, floor);
}

Status RegionalNode::FlushAndStop() {
  // The scheduler's tick takes ship_mu_, so stop it before locking.
  if (scheduler_) scheduler_->Stop();
  // Stop drains every queued frame into the lanes, so the final cut below
  // holds everything any client pushed to this region.
  server_.Stop();
  MutexLock lock(ship_mu_);
  if (flushed_) return Status::OK();
  ShardedAggregator::EpochCut cut = server_.CutEpochSnapshot();
  const TraceContext cut_trace = server_.TakeCutTrace();
  const uint64_t epoch = next_epoch_++;
  if (cut.reports > 0) {
    pending_.push_back(PendingSnapshot{epoch, std::move(cut.raw_sketch),
                                       /*attempted=*/false, cut_trace});
    SpoolAppendLocked(pending_.back());
  }
  // A failed ship leaves flushed_ false with the snapshots still pending —
  // FlushAndStop can be called again once the central is reachable.
  LDPJS_RETURN_IF_ERROR(ShipPendingLocked());
  // Final stats push while the session is still up: the central's fleet
  // view sees this region's terminal counters, not a mid-run snapshot.
  MaybePushStatsLocked(/*force=*/true);
  flushed_ = true;
  if (options_.forward_finalize) {
    // Retried at-least-once, counted exactly-once: the FINALIZE carries
    // this region's id and the central counts each region a single time,
    // so a retry after a lost FINALIZE_OK can never end a multi-region
    // collection early. (The data barrier is the acked EPOCH_PUSHes
    // above; this is the coordination barrier.)
    int attempts = 0;
    Backoff backoff_state(RegionBackoff(options_.ship_backoff,
                                        options_.region_id));
    auto backoff = [&] {
      const uint64_t before = backoff_state.total_micros();
      backoff_state.SleepNext();
      ship_backoff_micros_ += backoff_state.total_micros() - before;
      ++ship_retries_;
    };
    for (;;) {
      if (!upstream_) {
        FrameSender::Options sender_options;
        sender_options.recv_timeout_seconds =
            options_.upstream_recv_timeout_seconds;
        sender_options.fault_site = options_.upstream_fault_site;
        auto sender = FrameSender::Connect(options_.central_host,
                                           options_.central_port, params_,
                                           epsilon_, sender_options);
        if (!sender.ok()) {
          if (++attempts >= options_.max_ship_attempts) {
            return sender.status();
          }
          backoff();
          continue;
        }
        upstream_.emplace(std::move(*sender));
      }
      const Status finalized =
          upstream_->RequestFinalizeAsRegion(options_.region_id);
      upstream_.reset();
      if (finalized.ok()) break;
      if (++attempts >= options_.max_ship_attempts) return finalized;
      backoff();
    }
  } else if (upstream_) {
    (void)upstream_->Finish();  // best-effort BYE; the pushes are acked
    upstream_.reset();
  }
  return Status::OK();
}

NetMetrics RegionalNode::metrics() const {
  NetMetrics m = server_.metrics();
  MutexLock lock(ship_mu_);
  m.retries_attempted += ship_retries_;
  m.backoff_millis += ship_backoff_micros_ / 1000;
  m.spool_bytes_written = spool_.bytes_written();
  m.spool_bytes_resumed = spool_.bytes_resumed();
  m.spool_epochs_resumed = spool_.epochs_resumed();
  return m;
}

uint64_t RegionalNode::epochs_shipped() const {
  MutexLock lock(ship_mu_);
  return epochs_shipped_;
}

uint64_t RegionalNode::snapshot_bytes_shipped() const {
  MutexLock lock(ship_mu_);
  return snapshot_bytes_shipped_;
}

uint64_t RegionalNode::ship_retries() const {
  MutexLock lock(ship_mu_);
  return ship_retries_;
}

uint64_t RegionalNode::duplicate_acks() const {
  MutexLock lock(ship_mu_);
  return duplicate_acks_;
}

size_t RegionalNode::pending_snapshots() const {
  MutexLock lock(ship_mu_);
  return pending_.size();
}

uint64_t RegionalNode::epochs_renumbered() const {
  MutexLock lock(ship_mu_);
  return epochs_renumbered_;
}

uint64_t RegionalNode::next_epoch() const {
  MutexLock lock(ship_mu_);
  return next_epoch_;
}

uint64_t RegionalNode::spool_epochs_resumed() const {
  MutexLock lock(ship_mu_);
  return spool_.epochs_resumed();
}

uint64_t RegionalNode::spool_errors() const {
  MutexLock lock(ship_mu_);
  return spool_errors_;
}

uint64_t RegionalNode::stats_pushes() const {
  MutexLock lock(ship_mu_);
  return stats_pushes_;
}

uint64_t RegionalNode::stats_push_failures() const {
  MutexLock lock(ship_mu_);
  return stats_push_failures_;
}

}  // namespace ldpjs
