// Fleet stats: the wire shape and central-side store behind LJSP
// STATS_PUSH / FLEET_STATS.
//
// A FleetSnapshot is one region's registry snapshot — counters, gauges,
// and histograms with their RAW log2 bucket arrays. Percentiles are never
// shipped: buckets merge losslessly by elementwise addition
// (MergeHistogram), so the central's merged cluster histogram is
// bit-identical to one histogram fed the union of every region's records,
// while merged percentiles would be statistically meaningless. The
// FleetStore keeps each region's last snapshot, evaluates its health on
// arrival (transitions are the caller's to log), and renders the merged
// FleetView the FLEET_STATS frame, the stats JSON "fleet" section, and
// `ldpjs_cli top` all read.
#ifndef LDPJS_OBS_FLEET_STATS_H_
#define LDPJS_OBS_FLEET_STATS_H_

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/thread_annotations.h"
#include "common/serialize.h"
#include "common/status.h"
#include "obs/health.h"
#include "obs/metrics.h"

namespace ldpjs {

/// One region's pushed stats snapshot.
struct FleetSnapshot {
  uint32_t region_id = 0;
  /// Wall clock at capture, stamped by the pushing region.
  uint64_t captured_unix_ns = 0;
  MetricsRegistry::Snapshot stats;
};

/// STATS_PUSH payload codec. Decode rejects trailing bytes, oversized
/// series counts, and oversized names, so a hostile push can never make
/// the central allocate unboundedly.
std::vector<uint8_t> EncodeFleetSnapshot(const FleetSnapshot& snapshot);
Result<FleetSnapshot> DecodeFleetSnapshot(std::span<const uint8_t> payload);

/// Merges `from` into `into`: counters and gauges summed by name,
/// histograms merged by MergeHistogram; series present on one side only
/// are kept as-is. Output series are sorted by name (deterministic
/// regardless of arrival order).
void MergeSnapshotInto(MetricsRegistry::Snapshot& into,
                       const MetricsRegistry::Snapshot& from);

/// One region's row in the fleet view.
struct FleetRegionView {
  FleetSnapshot snapshot;
  /// Nanoseconds between the push arriving and the view being rendered.
  uint64_t age_ns = 0;
  HealthVerdict health;
};

/// The central's merged pane of glass: every region's last snapshot plus
/// the exactly-merged cluster series and the health roll-up.
struct FleetView {
  uint64_t rendered_unix_ns = 0;
  HealthVerdict cluster;
  /// Exact merge of every region's snapshot (counters/gauges summed,
  /// histogram buckets added).
  MetricsRegistry::Snapshot merged;
  std::vector<FleetRegionView> regions;  ///< sorted by region_id
};

/// FLEET_STATS payload codec (same hostile-input guarantees as above).
std::vector<uint8_t> EncodeFleetView(const FleetView& view);
Result<FleetView> DecodeFleetView(std::span<const uint8_t> payload);

/// The fleet view as one JSON object — the `stats --cluster` output and
/// the "fleet" section of the central's stats JSON come from this one
/// serializer, so they cannot drift apart in shape.
std::string FleetViewToJson(const FleetView& view);

/// Convenience reads for dashboard rows (ldpjs_cli top): first histogram
/// with this exact name / name suffix (empty snapshot when absent), and a
/// named gauge (0 when absent).
HistogramSnapshot FleetHistogramByName(const MetricsRegistry::Snapshot& snap,
                                       std::string_view name);
HistogramSnapshot FleetHistogramBySuffix(const MetricsRegistry::Snapshot& snap,
                                         std::string_view suffix);
uint64_t FleetGaugeByName(const MetricsRegistry::Snapshot& snap,
                          std::string_view name);

/// Per-region last-snapshot store with health-transition detection.
/// Thread-safe; the central's reader threads Apply() concurrently with
/// stats scrapes rendering View().
class FleetStore {
 public:
  struct ApplyResult {
    /// True when this push changed the region's health state (including
    /// the first push, when the previous state is synthesized as OK so a
    /// region arriving unhealthy still logs a transition).
    bool region_changed = false;
    HealthVerdict previous;
    HealthVerdict current;
    /// Same for the cluster roll-up.
    bool cluster_changed = false;
    HealthVerdict cluster_previous;
    HealthVerdict cluster_current;
  };

  /// Stores `snapshot` as its region's latest and re-evaluates region +
  /// cluster health as of `now_ns`.
  ApplyResult Apply(FleetSnapshot snapshot, uint64_t now_ns,
                    const HealthOptions& options);

  /// Renders the merged view as of `now_ns`.
  FleetView View(uint64_t now_ns, const HealthOptions& options) const;

  size_t region_count() const;

 private:
  struct Entry {
    FleetSnapshot snapshot;
    uint64_t received_ns = 0;
    HealthState last_state = HealthState::kOk;
  };

  /// Builds the view from `regions` (mu_ must be held by the caller).
  FleetView ViewLocked(uint64_t now_ns, const HealthOptions& options) const
      LDPJS_REQUIRES(mu_);

  mutable Mutex mu_;
  std::map<uint32_t, Entry> regions_ LDPJS_GUARDED_BY(mu_);
  HealthState cluster_state_ LDPJS_GUARDED_BY(mu_) = HealthState::kOk;
};

}  // namespace ldpjs

#endif  // LDPJS_OBS_FLEET_STATS_H_
