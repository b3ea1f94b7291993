// The stats serializer: the STATS frame, the SIGUSR1 dump and the periodic
// JSONL exporter all emit FrameServer::StatsJson(), which renders through
// StatsToJson, so the schema cannot drift into per-caller dialects. A
// registry snapshot is written as JSON by AppendSnapshotJson alone — the
// "obs" section here and every snapshot in the fleet view (fleet_stats.h).
//
// Output shape:
//   - every pre-existing NetMetrics key, unchanged in name and type, at the
//     top level (totals, then query_kinds / connections / shards / regions);
//   - derived top-level doubles "ingest_to_queryable_p50_ms" and
//     "ingest_to_queryable_p99_ms" (0.0 while the series is empty, so
//     consumers can always parse them);
//   - "query_rejected_kinds": {kind: count} — per-kind reject attribution;
//   - "obs": {enabled, counters, gauges, histograms, view_staleness_ms}
//     where each histogram carries count/sum/mean/p50/p90/p99/p999.
#ifndef LDPJS_OBS_STATS_EXPORT_H_
#define LDPJS_OBS_STATS_EXPORT_H_

#include <string>
#include <string_view>

#include "net/net_metrics.h"
#include "obs/metrics.h"

namespace ldpjs {

/// Renders a NetMetrics snapshot and one snapshot of the node's registry as
/// one JSON object.
///
/// `extra_sections`, when non-empty, is spliced verbatim before the closing
/// brace (the caller supplies `"key":value[,...]` without a leading comma).
/// The fleet sections — "health", "fleet", "events" — arrive this way so
/// this serializer does not depend on the server layer, and so they land
/// AFTER every frozen legacy key (the schema-freeze tests pin the prefix).
std::string StatsToJson(const NetMetrics& metrics,
                        const MetricsRegistry::Snapshot& registry,
                        std::string_view extra_sections = {});

/// Appends `"counters":{...},"gauges":{...},"histograms":{...}` for one
/// registry snapshot, series names JSON-escaped, each histogram as
/// {"count","sum","mean" (%.6g),"p50","p90","p99","p999"}.
void AppendSnapshotJson(std::string& out,
                        const MetricsRegistry::Snapshot& snapshot);

}  // namespace ldpjs

#endif  // LDPJS_OBS_STATS_EXPORT_H_
