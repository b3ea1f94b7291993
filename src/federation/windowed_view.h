// WindowedView: sliding-window join-size estimation on the central tier of
// the federated topology, with cross-region epoch alignment and an
// incrementally cached finalized view.
//
// The central's full-history published view answers "the join size over
// everything ever ingested" and re-merges every shard at every publish. This
// class answers "the join size over the last W epochs" — and does it
// incrementally, exploiting the same linearity that makes the whole
// topology exact: raw int64 lanes can be *subtracted* as exactly as they
// are merged (LdpJoinSketchServer::SubtractRaw), so sliding the window is
// an O(lanes) update per epoch boundary, never a recompute.
//
// Cross-region alignment: each applied (region, epoch) snapshot is recorded
// here; per region the view tracks a high-water epoch, and the *aligned
// frontier* E is the minimum high-water over regions — the newest epoch
// every region has shipped. The window is the epoch interval (E-W, E].
// Estimates are answered only at the frontier, so a lagging or partitioned
// region can never be silently missing from the window: its absence holds
// E (and therefore the window) back instead of skewing the estimate.
// Until `expected_regions` distinct regions have pushed at least one
// epoch, there is no frontier and the window is empty.
//
// Accumulator maintenance rules:
//   - a fresh snapshot at epoch e <= E (the laggard region catching the
//     frontier up) merges into the accumulator;
//   - a snapshot at epoch e > E is retained as pending and merges when E
//     reaches it;
//   - when E advances, epochs now outside (E-W, E] are subtracted from the
//     accumulator and their stored snapshots freed;
//   - duplicates never reach this class — the central's (region, epoch)
//     dedup calls the observer exactly once per applied snapshot.
//
// Read side (RCU publication): whenever an applied epoch changes the
// accumulator or moves the frontier, the WRITER finalizes a copy and
// publishes it as an immutable PublishedView through an atomic
// shared_ptr swap. Readers call Published() — one atomic load, no copy,
// and no lock shared with the ingest/observer path — and estimate against
// a snapshot that can never change underneath them. This replaces the old
// copy-on-read cache, which copied the whole k·m sketch under mu_ on
// EVERY call even when clean and serialized readers against writers.
//
// Memory: one accumulator plus the stored snapshots — at most W in-window
// epochs per region, plus whatever a region has pushed ahead of the
// frontier (bounded in practice by the cut cadence spread between regions) —
// plus the published snapshot (readers may briefly keep predecessors alive).
#ifndef LDPJS_FEDERATION_WINDOWED_VIEW_H_
#define LDPJS_FEDERATION_WINDOWED_VIEW_H_

#include <cstdint>
#include <map>
#include <memory>

#include "common/thread_annotations.h"
#include "core/ldp_join_sketch.h"
#include "service/published_view.h"

namespace ldpjs {

class WindowedView {
 public:
  /// `window_epochs` >= 1 is W, the number of trailing aligned epochs an
  /// estimate covers (pass a value larger than any run's epoch count for
  /// "all"). `expected_regions` >= 1 gates the frontier: no estimate until
  /// that many distinct regions have pushed.
  WindowedView(const SketchParams& params, double epsilon,
               uint64_t window_epochs, size_t expected_regions);

  WindowedView(const WindowedView&) = delete;
  WindowedView& operator=(const WindowedView&) = delete;

  /// Records one freshly applied (region, epoch) snapshot and slides the
  /// window. Called by the central's epoch observer — exactly once per
  /// (region, epoch), possibly concurrently across regions, in epoch order
  /// within a region (the shipper sends in order and the server's
  /// duplicate acks wait out in-flight merges). The snapshot is consumed
  /// (moved into the epoch store — the caller discards it anyway, so the
  /// k·m lanes are not copied on the ack-latency-critical push path);
  /// nullptr is an empty-epoch heartbeat: the region's high-water (and
  /// possibly the frontier) advances with nothing stored or merged.
  void OnEpochApplied(uint32_t region_id, uint64_t epoch,
                      LdpJoinSketchServer* snapshot);

  /// The latest published immutable window view — one atomic load, no
  /// locks shared with OnEpochApplied, never null (an empty view is
  /// published at construction). THE steady-state read path: estimate
  /// directly against Published()->sketch.
  std::shared_ptr<const PublishedView> Published() const {
    return publisher_.Current();
  }

  /// Raw-lane copy of the window accumulator (un-finalized; tests merge /
  /// compare it).
  LdpJoinSketchServer RawWindow() const;

  /// The non-incremental reference: re-merges the stored in-window
  /// snapshots from scratch. Bit-identical to RawWindow() by construction —
  /// the invariant the incremental add/subtract path is tested against.
  LdpJoinSketchServer RecomputeRaw() const;

  /// True once `expected_regions` distinct regions have pushed.
  bool aligned() const;
  /// The aligned frontier E (valid only when aligned()).
  uint64_t frontier() const;
  uint64_t window_epochs() const { return window_; }
  /// Reports currently inside the window accumulator.
  uint64_t window_reports() const;
  /// Snapshots currently merged into the accumulator.
  uint64_t epochs_in_window() const;
  /// Snapshots subtracted back out after sliding past the window.
  uint64_t epochs_expired() const;
  /// Snapshots ahead of the frontier, waiting for alignment.
  uint64_t epochs_pending() const;

 private:
  struct StoredEpoch {
    LdpJoinSketchServer sketch;
    bool added = false;  ///< currently merged into the accumulator
  };
  struct RegionWindow {
    uint64_t high_water = 0;  ///< newest epoch this region has pushed
    std::map<uint64_t, StoredEpoch> epochs;
  };

  /// Recomputes the frontier and reconciles the accumulator with the
  /// window (E-W, E]: merge what entered, subtract what expired, free what
  /// slid past. Sets dirty_ when the accumulator changed.
  void AdvanceLocked() LDPJS_REQUIRES(mu_);

  /// Finalizes a copy of the accumulator and swaps it into the publisher
  /// (writer side only — readers never come here).
  void PublishLocked() LDPJS_REQUIRES(mu_);

  const uint64_t window_;
  const size_t expected_regions_;

  mutable Mutex mu_;
  std::map<uint32_t, RegionWindow> regions_ LDPJS_GUARDED_BY(mu_);
  /// Raw lanes over the window, incremental.
  LdpJoinSketchServer acc_ LDPJS_GUARDED_BY(mu_);
  bool has_frontier_ LDPJS_GUARDED_BY(mu_) = false;
  uint64_t frontier_ LDPJS_GUARDED_BY(mu_) = 0;
  uint64_t in_window_ LDPJS_GUARDED_BY(mu_) = 0;
  uint64_t expired_ LDPJS_GUARDED_BY(mu_) = 0;
  /// Accumulator changed since the last publish.
  bool dirty_ LDPJS_GUARDED_BY(mu_) = false;
  /// Last published (aligned, frontier) — republish when either moves even
  /// if the accumulator did not (e.g. heartbeat-only frontier advance).
  bool pub_aligned_ LDPJS_GUARDED_BY(mu_) = false;
  uint64_t pub_frontier_ LDPJS_GUARDED_BY(mu_) = 0;
  ViewPublisher publisher_;
};

}  // namespace ldpjs

#endif  // LDPJS_FEDERATION_WINDOWED_VIEW_H_
