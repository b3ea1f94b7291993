// CentralNode: the top of the federated aggregation topology. A FrameServer
// whose traffic is EPOCH_PUSH snapshots from RegionalNodes (it accepts
// direct DATA sessions too — the tiers speak one protocol), with the
// central-specific conveniences on top: wait-for-N-regions finalize
// coordination, and — when `window_epochs` is set — a WindowedView
// answering sliding-window estimates over the last W cross-region-aligned
// epochs from an incrementally cached accumulator.
//
// Exactness: every regional snapshot is raw int64 lanes and every merge is
// integer addition, so after all regions flush, Finalize() yields the
// sketch a single node absorbing every client's report directly would
// produce, bit for bit — for any region count, epoch schedule, shard count
// per tier, and any mid-epoch disconnect/retry (the (region, epoch) dedup
// makes retried pushes exactly-once). The same linearity runs backwards:
// the windowed view subtracts expired epoch lanes exactly, so the windowed
// estimate equals a single node ingesting only the window's reports.
#ifndef LDPJS_FEDERATION_CENTRAL_NODE_H_
#define LDPJS_FEDERATION_CENTRAL_NODE_H_

#include <cstdint>
#include <memory>

#include "common/status.h"
#include "core/ldp_join_sketch.h"
#include "federation/windowed_view.h"
#include "net/frame_server.h"

namespace ldpjs {

struct CentralNodeOptions {
  /// Listening port, shard count, queue depth, backpressure policy.
  FrameServerOptions server;
  /// How many FINALIZE requests end the collection — one per region when
  /// regions forward their clients' FINALIZE upstream.
  size_t finalize_after = 1;
  /// 0 = no windowed view (full-history estimates only). W >= 1 maintains
  /// a WindowedView over the last W aligned epochs, fed by every applied
  /// EPOCH_PUSH. Pass a W larger than any run's epoch count for
  /// "all epochs, incrementally cached".
  uint64_t window_epochs = 0;
  /// How many distinct regions the windowed view's aligned frontier waits
  /// for before answering (and gates advancement on, forever after). 0 =
  /// use finalize_after — right whenever the FINALIZE quorum is one
  /// forwarded FINALIZE per region. Set it explicitly when the quorum
  /// differs from the region count (e.g. a single coordinator forwards
  /// the FINALIZE for everyone): too low and early regions' windows
  /// answer before the rest have shipped; too high and the frontier never
  /// aligns at all.
  size_t window_expected_regions = 0;
};

class CentralNode {
 public:
  CentralNode(const SketchParams& params, double epsilon,
              const CentralNodeOptions& options);

  Status Start() { return server_.Start(); }
  uint16_t port() const { return server_.port(); }

  /// Blocks until `finalize_after` FINALIZE frames have arrived (each
  /// region sends one as its flush completes).
  void WaitForRegions() { server_.WaitForFinalizeRequests(finalize_after_); }

  /// The latest RCU-published immutable sliding-window view over the last
  /// `window_epochs` aligned epochs — one atomic load, no copy, no lock
  /// shared with ingest. This is also what QUERY frames are answered from
  /// on a windowed central. Requires windowed().
  std::shared_ptr<const PublishedView> WindowedPublishedView() const {
    LDPJS_CHECK(window_ != nullptr);
    return window_->Published();
  }

  bool windowed() const { return window_ != nullptr; }
  /// The sliding-window state (frontier, pending/expired counters);
  /// nullptr when window_epochs was 0.
  const WindowedView* window() const { return window_.get(); }

  void Stop() { server_.Stop(); }

  /// Final merged + finalized sketch; once, after Stop().
  LdpJoinSketchServer Finalize() { return server_.Finalize(); }

  NetMetrics metrics() const { return server_.metrics(); }
  const FrameServer& server() const { return server_; }
  FrameServer& server_mutable() { return server_; }

  /// The fleet view assembled from regions' STATS_PUSH snapshots: per-region
  /// last snapshots with health verdicts, exact merged cluster histograms,
  /// and the cluster roll-up. Same object FLEET_STATS serves on the wire.
  FleetView CurrentFleetView() const { return server_.CurrentFleetView(); }
  /// Structured operational event log (health transitions, reconnects,
  /// spool replays, reaps).
  const EventLog& events() const { return server_.events(); }

 private:
  /// Installs the windowed view as the server's epoch observer (no-op when
  /// windowing is off).
  static FrameServerOptions WithEpochObserver(FrameServerOptions options,
                                              WindowedView* window);

  std::unique_ptr<WindowedView> window_;  ///< before server_: observer target
  FrameServer server_;
  size_t finalize_after_;
};

}  // namespace ldpjs

#endif  // LDPJS_FEDERATION_CENTRAL_NODE_H_
