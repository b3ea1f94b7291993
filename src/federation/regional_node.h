// RegionalNode: one regional tier of the federated aggregation topology.
//
//   clients ──LJSP/DATA──▶ RegionalNode(FrameServer, N shards)
//                               │  epoch tick (every epoch_millis):
//                               │    cut raw-lane snapshot → lanes reset
//                               ▼
//                          FrameSender ──LJSP/EPOCH_PUSH──▶ central
//
// Ticks come from the node's own clock thread when epoch_millis > 0, or
// from explicit CutAndShip() calls. Either way they are serialized: a tick
// that runs long (a ship retrying against a dead central) delays the next
// one instead of overlapping it, so there is never more than one cut in
// flight per region.
//
// Each epoch tick cuts the region's raw integer lanes (serialize + reset,
// see FrameServer::CutEpochSnapshot) and ships the snapshot upstream over
// the LJSP session protocol with retry/resume: a failed ship (central
// restarting, connection cut mid-push) reconnects and re-pushes the same
// (region, epoch); the central dedups on that key, so a push that was
// merged but not acked cannot double-count. A snapshot that exhausts its
// attempt budget stays in the pending queue and resumes on the next tick
// or the final flush — an unreachable central delays data, it never loses
// or duplicates it. That is what makes the federated estimate bit-identical
// to single-node ingestion of the union of all client streams.
//
// Empty epochs (no reports since the last cut) ship as 12-byte heartbeats
// instead of k·m zero lanes — consecutive idle cuts coalesce into one —
// so the central still sees this region's epoch clock advance (the
// windowed view's aligned frontier would otherwise freeze on an idle
// region) without spending snapshot-sized uplink to say nothing. The
// terminal flush skips its empty cut entirely: after it the region is
// done, and advancing its clock past its data would only push the
// aligned frontier into an epoch that cannot exist.
#ifndef LDPJS_FEDERATION_REGIONAL_NODE_H_
#define LDPJS_FEDERATION_REGIONAL_NODE_H_

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/backoff.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "federation/snapshot_spool.h"
#include "net/frame_sender.h"
#include "net/frame_server.h"

namespace ldpjs {

struct RegionalNodeOptions {
  uint32_t region_id = 0;
  std::string central_host = "127.0.0.1";
  uint16_t central_port = 0;
  /// Region-facing ingest server (port, shards, queue).
  FrameServerOptions server;
  /// Epoch period of the node's clock thread; 0 = no clock, cut only on
  /// explicit CutAndShip() calls (deterministic mode for tests and
  /// report-count-driven drivers).
  int epoch_millis = 0;
  /// Ship retry budget per CutAndShip call, across reconnects. Exhaustion
  /// returns Unavailable but keeps the snapshots pending for next time.
  int max_ship_attempts = 8;
  /// Jittered exponential backoff between ship attempts (replaces the old
  /// fixed ship_retry_millis interval: N regions retrying a recovering
  /// central on a fixed interval arrive as one synchronized herd).
  BackoffOptions ship_backoff{.base_micros = 2000, .cap_micros = 500000};
  /// Durable spool directory. Empty (default) = in-memory pending queue
  /// only. Non-empty: every data-bearing epoch cut is persisted (fsynced)
  /// to <spool_dir>/region-<id>.spool before shipping, and Start()
  /// rebuilds the pending queue from the spool after a crash — see
  /// SnapshotSpool for the exactly-once story.
  std::string spool_dir;
  /// SO_RCVTIMEO for upstream sessions: caps how long a ship can wait on a
  /// hung central for any ack before failing over to reconnect+retry.
  /// 0 disables (a healthy central acks promptly; chaos runs arm this).
  int upstream_recv_timeout_seconds = 0;
  /// Fault-injection site label for upstream sessions (chaos runs), e.g.
  /// "region0.up". Empty disables.
  std::string upstream_fault_site;
  /// Forward a client's FINALIZE upstream during FlushAndStop — the CLI
  /// deployment's signal that this region's collection is complete.
  bool forward_finalize = false;
  /// Ship this node's full stats snapshot (counters, gauges, raw histogram
  /// buckets) to the central as STATS_PUSH after ship cycles, at most once
  /// per stats_push_period_ms (plus a final push at flush). A failed push
  /// is counted, never fatal: telemetry must not interfere with data
  /// shipping.
  bool push_stats = true;
  int stats_push_period_ms = 1000;
};

class RegionalNode {
 public:
  RegionalNode(const SketchParams& params, double epsilon,
               const RegionalNodeOptions& options);
  ~RegionalNode();

  RegionalNode(const RegionalNode&) = delete;
  RegionalNode& operator=(const RegionalNode&) = delete;

  /// Starts the ingest server and, if epoch_millis > 0, the clock thread.
  /// With spool_dir set, first opens/recovers the durable spool: pending
  /// epochs a crashed predecessor never shipped re-enter the queue (and
  /// next_epoch_ resumes above them), so the following ships lose nothing.
  Status Start();

  /// Region-facing ingest port (valid after Start).
  uint16_t port() const { return server_.port(); }

  /// One epoch: cut the lanes, queue the snapshot, ship everything pending
  /// in epoch order. Returns Unavailable if the central stayed unreachable
  /// for the attempt budget — the data is retained and re-shipped on the
  /// next call. Serialized with the clock's ticks.
  Status CutAndShip();

  /// Stops the clock and the ingest server (draining every queued
  /// frame), cuts the final epoch, and ships everything still pending —
  /// after this returns OK, every report any client pushed to this region
  /// is merged into the central lanes exactly once. Idempotent.
  Status FlushAndStop();

  const FrameServer& server() const { return server_; }
  FrameServer& server_mutable() { return server_; }

  /// The ingest server's NetMetrics augmented with this node's robustness
  /// counters: ship retries, cumulative ship backoff, and spool traffic.
  NetMetrics metrics() const;

  uint64_t epochs_shipped() const;
  uint64_t snapshot_bytes_shipped() const;
  uint64_t ship_retries() const;
  /// Pushes the central resolved as already-applied (a retry whose
  /// original did land — the exactly-once path taken).
  uint64_t duplicate_acks() const;
  size_t pending_snapshots() const;
  /// Pending snapshots renumbered by a connect-time epoch sync (a restart
  /// that would otherwise have collided with the previous incarnation).
  uint64_t epochs_renumbered() const;
  /// The next epoch number a cut will take (tests observe the sync).
  uint64_t next_epoch() const;
  /// Pending epochs rebuilt from the durable spool at Start().
  uint64_t spool_epochs_resumed() const;
  /// Spool append/sync failures (shipping continued from memory).
  uint64_t spool_errors() const;
  /// STATS_PUSH frames acked by the central / attempts that failed.
  uint64_t stats_pushes() const;
  uint64_t stats_push_failures() const;

 private:
  struct PendingSnapshot {
    uint64_t epoch;
    std::vector<uint8_t> raw_sketch;
    /// A push for this snapshot was written to some upstream connection.
    /// Its number is then frozen: the outcome may be ambiguous (merged but
    /// unacked), and only a retry of the SAME (region, epoch) lets the
    /// central's dedup resolve it to exactly-once. Un-attempted snapshots
    /// are safely renumbered by the connect-time epoch sync.
    bool attempted = false;
    /// Oldest sampled trace absorbed into this cut (claimed from the ingest
    /// server at cut time). Rides the EPOCH_PUSH as a TRACED envelope with
    /// the client origin preserved, so the central's view publish measures
    /// true client→central ingest-to-queryable latency. Spooled alongside
    /// the epoch (kTrace record), so even a crash-replayed epoch ships
    /// traced with the original origin.
    TraceContext trace;
  };

  /// The clock thread: CutAndShip every epoch_millis until StopTicks.
  void TickLoop();
  /// Stops and joins the clock thread; no tick runs after it returns.
  /// Idempotent. Must not be called with ship_mu_ held — a tick takes it.
  void StopTicks() LDPJS_EXCLUDES(ship_mu_);

  /// Ships every pending snapshot in epoch order; stops at the first
  /// snapshot whose attempt budget runs out.
  Status ShipPendingLocked() LDPJS_REQUIRES(ship_mu_);

  /// Connect-time epoch sync: folds the central's next-expected epoch for
  /// this region (from the HELLO_OK) into our numbering — un-attempted
  /// pending snapshots below it are renumbered upwards and next_epoch_
  /// adopts max(local, central). This is what makes epoch numbers survive
  /// restarts: a fresh incarnation starts at 0, syncs on first connect,
  /// and can never collide with (and be silently deduped against) an
  /// epoch its predecessor already shipped.
  void AdoptCentralEpoch(uint64_t central_next_epoch)
      LDPJS_REQUIRES(ship_mu_);

  /// Write-ahead helpers around the spool: no-ops when the spool is off or
  /// the snapshot is a heartbeat; a disk failure counts spool_errors_ and
  /// shipping continues from memory (durability degrades, data does not
  /// stop flowing).
  void SpoolAppendLocked(const PendingSnapshot& snap)
      LDPJS_REQUIRES(ship_mu_);
  void SpoolMarkAttemptedLocked(const PendingSnapshot& snap)
      LDPJS_REQUIRES(ship_mu_);
  void SpoolMarkShippedLocked(const PendingSnapshot& snap)
      LDPJS_REQUIRES(ship_mu_);

  /// This node's stats as a fleet snapshot: its server's registry (which
  /// also holds this node's ship and spool series) plus the synthetic
  /// `net_*` series the central's health evaluator reads
  /// (SignalsFromSnapshot) — frame/shed/corrupt counters, the frontier
  /// epoch, and the pending-queue depth.
  FleetSnapshot BuildStatsSnapshotLocked() const LDPJS_REQUIRES(ship_mu_);
  /// Pushes the snapshot upstream when there is a session, push_stats is
  /// on, and the period elapsed (or `force`). A failure drops the upstream
  /// session (its state is ambiguous) and counts stats_push_failures_ —
  /// data shipping reconnects and is unaffected.
  void MaybePushStatsLocked(bool force) LDPJS_REQUIRES(ship_mu_);

  SketchParams params_;
  double epsilon_;
  RegionalNodeOptions options_;
  FrameServer server_;
  /// Ship round-trip distribution (connect excluded): push written → ack
  /// decoded. Registered in server_'s registry at construction; recording
  /// is wait-free (see ObsHistogram).
  ObsHistogram* ship_rtt_hist_;
  /// Start()-time spool recovery duration (one sample per recovery).
  ObsHistogram* spool_replay_hist_;
  /// Wakes the clock thread early, for StopTicks.
  Mutex tick_mu_;
  CondVar tick_cv_;
  bool stop_ticks_ LDPJS_GUARDED_BY(tick_mu_) = false;
  /// Open iff options_.spool_dir non-empty.
  SnapshotSpool spool_ LDPJS_GUARDED_BY(ship_mu_);

  /// Serializes cut+ship: clock ticks, manual CutAndShip calls, and the
  /// final flush never interleave, so epochs are numbered and shipped in
  /// order (the central's dedup high-water relies on that).
  mutable Mutex ship_mu_;
  std::optional<FrameSender> upstream_ LDPJS_GUARDED_BY(ship_mu_);
  std::deque<PendingSnapshot> pending_ LDPJS_GUARDED_BY(ship_mu_);
  /// Incarnation-local monotonic epoch sequence, starting at 0 and synced
  /// with the central's per-region high-water on every (re)connect (see
  /// AdoptCentralEpoch). Earlier versions seeded this from the wall clock,
  /// which silently LOST data when a restart landed in the same clock tick
  /// or the clock stepped backwards — the central's dedup discarded the
  /// new incarnation's colliding epochs as already applied.
  uint64_t next_epoch_ LDPJS_GUARDED_BY(ship_mu_) = 0;
  uint64_t epochs_shipped_ LDPJS_GUARDED_BY(ship_mu_) = 0;
  uint64_t snapshot_bytes_shipped_ LDPJS_GUARDED_BY(ship_mu_) = 0;
  uint64_t ship_retries_ LDPJS_GUARDED_BY(ship_mu_) = 0;
  uint64_t duplicate_acks_ LDPJS_GUARDED_BY(ship_mu_) = 0;
  uint64_t epochs_renumbered_ LDPJS_GUARDED_BY(ship_mu_) = 0;
  /// Cumulative, across ship incidents.
  uint64_t ship_backoff_micros_ LDPJS_GUARDED_BY(ship_mu_) = 0;
  uint64_t spool_errors_ LDPJS_GUARDED_BY(ship_mu_) = 0;
  uint64_t stats_pushes_ LDPJS_GUARDED_BY(ship_mu_) = 0;
  uint64_t stats_push_failures_ LDPJS_GUARDED_BY(ship_mu_) = 0;
  uint64_t last_stats_push_ns_ LDPJS_GUARDED_BY(ship_mu_) = 0;
  /// True once any upstream session existed — the next successful connect
  /// is then a reconnect worth an event-log entry.
  bool had_upstream_ LDPJS_GUARDED_BY(ship_mu_) = false;
  bool flushed_ LDPJS_GUARDED_BY(ship_mu_) = false;
  /// The clock thread (epoch_millis > 0). Declared last: its ticks use
  /// every member above.
  std::thread tick_thread_;
};

}  // namespace ldpjs

#endif  // LDPJS_FEDERATION_REGIONAL_NODE_H_
