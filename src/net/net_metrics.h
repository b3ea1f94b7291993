// The typed counter snapshot of the TCP front end. FrameServer::metrics()
// returns a consistent one; it is rendered as JSON only together with the
// node's registry snapshot, by StatsToJson (obs/stats_export.h), behind
// FrameServer::StatsJson(). Its fields are plain struct members, not
// registry instruments, because the benchmark ledger reads them by name
// and the stats JSON pins their keys.
#ifndef LDPJS_NET_NET_METRICS_H_
#define LDPJS_NET_NET_METRICS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace ldpjs {

/// Per-connection counters (one row per connection ever accepted).
struct ConnectionMetrics {
  uint64_t id = 0;
  bool active = false;                   ///< reader thread still running
  uint64_t frames_received = 0;          ///< well-formed transport frames
  uint64_t bytes_received = 0;           ///< transport bytes (header+payload)
  uint64_t reports_ingested = 0;         ///< reports absorbed into lanes
  uint64_t corrupt_frames_rejected = 0;  ///< transport- or envelope-level
};

/// Per-shard counters. With multi-pump ingest each shard owns a queue and a
/// pump, so queue depth is a per-shard property now, not per-connection.
struct ShardMetrics {
  uint64_t frames = 0;
  uint64_t reports = 0;
  uint64_t queue_high_water = 0;  ///< max ingest-queue depth seen
};

/// Per-region counters on a central aggregator (one row per region_id that
/// has ever pushed an epoch snapshot upstream).
struct RegionMetrics {
  uint32_t region_id = 0;
  uint64_t epochs_applied = 0;     ///< snapshots merged into the lanes
  uint64_t empty_epochs = 0;       ///< heartbeat pushes (nothing merged)
  uint64_t duplicates_ignored = 0; ///< retried pushes deduped on (r, epoch)
  uint64_t reports_merged = 0;     ///< reports inside the applied snapshots
  uint64_t snapshot_bytes = 0;     ///< serialized sketch bytes applied
  uint64_t next_epoch = 0;         ///< first epoch not yet applied
};

/// Per-query-kind served counters (one row per QueryKind the server has
/// answered at least once).
struct QueryKindMetrics {
  std::string kind;     ///< "join_size", "frequency", ...
  uint64_t served = 0;  ///< QUERY_OK replies of this kind
};

struct NetMetrics {
  uint64_t connections_accepted = 0;
  uint64_t connections_active = 0;
  uint64_t handshakes_rejected = 0;  ///< HELLO with mismatched params
  // Totals over all connections (sum of the rows below). The totals stay
  // monotone even when old departed-connection rows are folded away (see
  // connections_folded).
  uint64_t frames_received = 0;
  uint64_t bytes_received = 0;
  uint64_t reports_ingested = 0;
  uint64_t corrupt_frames_rejected = 0;
  uint64_t queue_high_water = 0;  ///< max over shards
  // Federation totals (sum of the region rows).
  uint64_t epochs_applied = 0;
  uint64_t epoch_duplicates_ignored = 0;
  // Robustness counters.
  uint64_t accept_failures = 0;     ///< transient accept errors (retried)
  uint64_t accept_fatal = 0;        ///< fatal accept errors (acceptor stops)
  uint64_t idle_reaped = 0;         ///< connections closed by idle deadline
  uint64_t connections_folded = 0;  ///< departed rows folded into totals
  uint64_t retries_attempted = 0;   ///< wire retries (accepts + ships)
  uint64_t backoff_millis = 0;      ///< cumulative time slept in backoff
  uint64_t faults_injected = 0;     ///< injected faults observed (chaos runs)
  uint64_t spool_bytes_written = 0; ///< durable spool appends
  uint64_t spool_bytes_resumed = 0; ///< spool bytes replayed at restart
  uint64_t spool_epochs_resumed = 0;///< pending epochs rebuilt from spool
  // Read-side serving tier (LJSP QUERY).
  uint64_t query_frames = 0;       ///< queries answered with QUERY_OK
  uint64_t queries_rejected = 0;   ///< corrupt/invalid queries
  uint64_t views_published = 0;    ///< RCU view publications so far
  std::vector<QueryKindMetrics> query_kinds;  ///< served count per kind
  /// Rejected count per kind (rows only for kinds rejected at least once;
  /// rejects whose kind never decoded land on the "unknown" row), so
  /// queries_rejected is attributable instead of one opaque aggregate.
  std::vector<QueryKindMetrics> query_rejected_kinds;
  std::vector<ConnectionMetrics> connections;
  std::vector<ShardMetrics> shards;
  std::vector<RegionMetrics> regions;
};

}  // namespace ldpjs

#endif  // LDPJS_NET_NET_METRICS_H_
