// Rule-driven health evaluation over stats snapshots — local or fleet.
//
// Health is a pure function of signals a snapshot already carries (no new
// instrumentation): the ingest-to-queryable p99 against its SLO target,
// cross-region frontier lag, spool/pending-queue growth, the corrupt
// frame rate, and the staleness of a region's last stats push. Each rule
// maps to OK / DEGRADED / CRITICAL independently; the verdict is the worst
// rule with the breached rules named in `cause`, so an operator (or the CI
// smoke job) can read WHY a state tripped without correlating dashboards.
//
// The same evaluator runs in three places: a process's own stats JSON
// ("health" section), the central's per-region verdicts as STATS_PUSH
// snapshots arrive (transitions land in the event log), and the cluster
// roll-up over the merged fleet view.
#ifndef LDPJS_OBS_HEALTH_H_
#define LDPJS_OBS_HEALTH_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "net/net_metrics.h"
#include "obs/metrics.h"

namespace ldpjs {

enum class HealthState : uint8_t {
  kOk = 0,
  kDegraded = 1,
  kCritical = 2,
};

/// "OK" / "DEGRADED" / "CRITICAL".
std::string_view HealthStateName(HealthState state);

/// Thresholds the rules compare against. Every rule degrades at its
/// threshold and goes critical at `critical_multiplier` times it, so one
/// knob scales the alarm band without re-tuning each rule.
struct HealthOptions {
  /// Ingest-to-queryable p99 SLO target, in milliseconds.
  double i2q_p99_target_ms = 250.0;
  /// DEGRADED threshold × this = CRITICAL threshold, for every rule.
  double critical_multiplier = 4.0;
  /// Epochs a region's frontier may trail the fleet's most advanced one.
  uint64_t frontier_lag_epochs = 8;
  /// Unshipped (pending/spooled) epochs before the backlog is a signal.
  uint64_t spool_depth_epochs = 16;
  /// Corrupt frames as a fraction of frames received.
  double corrupt_rate = 0.01;
  /// Nanoseconds since a region's last stats push before it counts as
  /// silent (0 disables the staleness rule — local snapshots have no push).
  uint64_t stale_after_ns = 60ull * 1000 * 1000 * 1000;
};

/// The extracted inputs the rules run over. Extraction (from NetMetrics,
/// a registry snapshot, or a pushed fleet snapshot) is separated from
/// evaluation so the rules are trivially unit-testable.
struct HealthSignals {
  double i2q_p99_ms = 0.0;
  bool has_i2q = false;  ///< false while the SLO series is empty
  uint64_t frontier_lag = 0;
  uint64_t spool_depth = 0;
  uint64_t frames = 0;
  uint64_t corrupt = 0;
  uint64_t age_ns = 0;  ///< since the last stats push (0 for local)
};

struct HealthVerdict {
  HealthState state = HealthState::kOk;
  /// Empty for OK; otherwise the breached rules, semicolon-joined, each
  /// with the observed value and its threshold.
  std::string cause;
};

HealthVerdict EvaluateHealth(const HealthSignals& signals,
                             const HealthOptions& options);

/// Signals for this node: corrupt/frame counts from its NetMetrics,
/// the i2q p99 from its registry snapshot. Frontier lag and push staleness
/// are fleet-relative concepts and stay zero here.
HealthSignals SignalsFromMetrics(const NetMetrics& metrics,
                                 const MetricsRegistry::Snapshot& snapshot);

/// Signals for a pushed region snapshot: everything is read from the
/// snapshot's own series — the `net_*` counters/gauges a RegionalNode
/// appends when pushing (see regional_node.cc) plus the i2q histogram.
/// `frontier_max` is the most advanced `net_frontier_epoch` across the
/// fleet (lag is measured against it); `age_ns` is time since the push.
HealthSignals SignalsFromSnapshot(const MetricsRegistry::Snapshot& snapshot,
                                  uint64_t frontier_max, uint64_t age_ns);

/// {"state":"OK","cause":""}
std::string HealthVerdictToJson(const HealthVerdict& verdict);

}  // namespace ldpjs

#endif  // LDPJS_OBS_HEALTH_H_
