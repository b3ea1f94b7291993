#include "obs/health.h"

#include <cstdio>

namespace ldpjs {

namespace {

/// One rule: observed vs threshold, DEGRADED at 1x, CRITICAL at
/// `critical_multiplier`x. Appends its description to `cause` when breached
/// and folds its level into `worst`.
void ApplyRule(double observed, double threshold, double critical_multiplier,
               const char* name, const char* unit, HealthState* worst,
               std::string* cause) {
  if (threshold <= 0.0 || observed < threshold) return;
  const bool critical = observed >= threshold * critical_multiplier;
  const HealthState level =
      critical ? HealthState::kCritical : HealthState::kDegraded;
  if (static_cast<uint8_t>(level) > static_cast<uint8_t>(*worst)) {
    *worst = level;
  }
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s %.6g%s >= %.6g%s", name, observed, unit,
                threshold, unit);
  if (!cause->empty()) *cause += "; ";
  *cause += buf;
}

/// The ingest-to-queryable SLO signal, read the same way from a local or
/// a pushed snapshot.
void ReadI2q(const MetricsRegistry::Snapshot& snapshot,
             HealthSignals* signals) {
  const HistogramSnapshot i2q =
      SeriesValue(snapshot.histograms, "ingest_to_queryable_ns");
  if (i2q.count == 0) return;
  signals->has_i2q = true;
  signals->i2q_p99_ms = static_cast<double>(i2q.Percentile(0.99)) / 1e6;
}

}  // namespace

std::string_view HealthStateName(HealthState state) {
  switch (state) {
    case HealthState::kOk:
      return "OK";
    case HealthState::kDegraded:
      return "DEGRADED";
    case HealthState::kCritical:
      return "CRITICAL";
  }
  return "OK";
}

HealthVerdict EvaluateHealth(const HealthSignals& signals,
                             const HealthOptions& options) {
  HealthVerdict verdict;
  if (signals.has_i2q) {
    ApplyRule(signals.i2q_p99_ms, options.i2q_p99_target_ms,
              options.critical_multiplier, "i2q_p99", "ms", &verdict.state,
              &verdict.cause);
  }
  ApplyRule(static_cast<double>(signals.frontier_lag),
            static_cast<double>(options.frontier_lag_epochs),
            options.critical_multiplier, "frontier_lag", " epochs",
            &verdict.state, &verdict.cause);
  ApplyRule(static_cast<double>(signals.spool_depth),
            static_cast<double>(options.spool_depth_epochs),
            options.critical_multiplier, "spool_depth", " epochs",
            &verdict.state, &verdict.cause);
  if (signals.frames > 0) {
    ApplyRule(static_cast<double>(signals.corrupt) /
                  static_cast<double>(signals.frames),
              options.corrupt_rate, options.critical_multiplier,
              "corrupt_rate", "", &verdict.state, &verdict.cause);
  }
  if (options.stale_after_ns > 0) {
    ApplyRule(static_cast<double>(signals.age_ns) / 1e9,
              static_cast<double>(options.stale_after_ns) / 1e9,
              options.critical_multiplier, "stats_push_age", "s",
              &verdict.state, &verdict.cause);
  }
  return verdict;
}

HealthSignals SignalsFromMetrics(const NetMetrics& metrics,
                                 const MetricsRegistry::Snapshot& snapshot) {
  HealthSignals signals;
  signals.frames = metrics.frames_received;
  signals.corrupt = metrics.corrupt_frames_rejected;
  ReadI2q(snapshot, &signals);
  return signals;
}

HealthSignals SignalsFromSnapshot(const MetricsRegistry::Snapshot& snapshot,
                                  uint64_t frontier_max, uint64_t age_ns) {
  HealthSignals signals;
  signals.frames = SeriesValue(snapshot.counters, "net_frames_received");
  signals.corrupt =
      SeriesValue(snapshot.counters, "net_corrupt_frames_rejected");
  signals.spool_depth = SeriesValue(snapshot.gauges, "net_pending_epochs");
  const uint64_t frontier =
      SeriesValue(snapshot.gauges, "net_frontier_epoch");
  signals.frontier_lag = frontier_max > frontier ? frontier_max - frontier : 0;
  signals.age_ns = age_ns;
  ReadI2q(snapshot, &signals);
  return signals;
}

std::string HealthVerdictToJson(const HealthVerdict& verdict) {
  std::string out = "{\"state\":\"";
  out += HealthStateName(verdict.state);
  out += "\",\"cause\":\"";
  // The causes are built from fixed rule names and %g numbers — no JSON
  // metacharacters — but escape defensively anyway.
  for (char c : verdict.cause) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += "\"}";
  return out;
}

}  // namespace ldpjs
