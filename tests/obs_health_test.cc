// The health evaluator and the event log: rule thresholds (DEGRADED at 1x,
// CRITICAL at critical_multiplier x), worst-rule-wins with every breached
// rule named in the cause, signal extraction from pushed snapshots, and the
// event ring's bound/drop accounting and JSONL shape.
#include <algorithm>
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "obs/events.h"
#include "obs/health.h"
#include "obs/metrics.h"

namespace ldpjs {
namespace {

TEST(ObsHealthTest, HealthySignalsAreOkWithEmptyCause) {
  HealthSignals signals;
  signals.i2q_p99_ms = 10.0;
  signals.has_i2q = true;
  signals.frames = 1000;
  const HealthVerdict verdict = EvaluateHealth(signals, HealthOptions{});
  EXPECT_EQ(verdict.state, HealthState::kOk);
  EXPECT_TRUE(verdict.cause.empty());
}

TEST(ObsHealthTest, I2qSloDegradesThenGoesCriticalAtMultiplier) {
  HealthOptions options;
  options.i2q_p99_target_ms = 100.0;
  options.critical_multiplier = 4.0;
  HealthSignals signals;
  signals.has_i2q = true;

  signals.i2q_p99_ms = 99.0;
  EXPECT_EQ(EvaluateHealth(signals, options).state, HealthState::kOk);

  signals.i2q_p99_ms = 150.0;  // past target, under 4x
  HealthVerdict verdict = EvaluateHealth(signals, options);
  EXPECT_EQ(verdict.state, HealthState::kDegraded);
  EXPECT_NE(verdict.cause.find("i2q"), std::string::npos) << verdict.cause;

  signals.i2q_p99_ms = 500.0;  // past 4x target
  verdict = EvaluateHealth(signals, options);
  EXPECT_EQ(verdict.state, HealthState::kCritical);
  EXPECT_NE(verdict.cause.find("i2q"), std::string::npos) << verdict.cause;

  // An empty i2q series never trips the SLO rule, whatever the stale value.
  signals.has_i2q = false;
  EXPECT_EQ(EvaluateHealth(signals, options).state, HealthState::kOk);
}

TEST(ObsHealthTest, WorstRuleWinsAndAllBreachedRulesAreNamed) {
  HealthOptions options;
  options.i2q_p99_target_ms = 100.0;
  options.frontier_lag_epochs = 8;
  HealthSignals signals;
  signals.has_i2q = true;
  signals.i2q_p99_ms = 150.0;             // DEGRADED
  signals.frontier_lag = 100;             // CRITICAL (past 8 * 4)
  const HealthVerdict verdict = EvaluateHealth(signals, options);
  EXPECT_EQ(verdict.state, HealthState::kCritical);
  EXPECT_NE(verdict.cause.find("i2q"), std::string::npos) << verdict.cause;
  EXPECT_NE(verdict.cause.find("frontier_lag"), std::string::npos)
      << verdict.cause;
}

TEST(ObsHealthTest, CorruptRateNeedsTrafficToTrip) {
  HealthOptions options;
  options.corrupt_rate = 0.01;
  HealthSignals signals;
  // Zero frames: no rate is computable, the rule must not divide by zero
  // or trip on a silent server.
  signals.corrupt = 5;
  EXPECT_EQ(EvaluateHealth(signals, options).state, HealthState::kOk);
  // 2% corrupt over real traffic: degraded.
  signals.frames = 250;
  HealthVerdict verdict = EvaluateHealth(signals, options);
  EXPECT_EQ(verdict.state, HealthState::kDegraded);
  EXPECT_NE(verdict.cause.find("corrupt_rate"), std::string::npos)
      << verdict.cause;
  // 5%: past 4 x 1%, critical.
  signals.frames = 100;
  verdict = EvaluateHealth(signals, options);
  EXPECT_EQ(verdict.state, HealthState::kCritical);
}

TEST(ObsHealthTest, StaleStatsPushTripsOnlyWhenArmed) {
  HealthOptions options;
  options.stale_after_ns = 1000;
  HealthSignals signals;
  signals.age_ns = 5000;
  EXPECT_EQ(EvaluateHealth(signals, options).state, HealthState::kCritical);
  options.stale_after_ns = 0;  // local snapshots have no push to age
  EXPECT_EQ(EvaluateHealth(signals, options).state, HealthState::kOk);
}

TEST(ObsHealthTest, SignalsFromSnapshotReadsTheSyntheticNetSeries) {
  MetricsRegistry registry;
  registry.GetHistogram("ingest_to_queryable_ns")->Record(2000000);  // ~2ms
  MetricsRegistry::Snapshot snapshot = registry.TakeSnapshot();
  snapshot.counters.emplace_back("net_frames_received", 200);
  snapshot.counters.emplace_back("net_corrupt_frames_rejected", 1);
  snapshot.gauges.emplace_back("net_frontier_epoch", 5);
  snapshot.gauges.emplace_back("net_pending_epochs", 7);

  const HealthSignals signals = SignalsFromSnapshot(snapshot, 12, 42);
  EXPECT_TRUE(signals.has_i2q);
  // 2ms lands in the (2^20, 2^21] bucket; p99 reads its upper bound.
  EXPECT_NEAR(signals.i2q_p99_ms, 2.097, 0.01);
  EXPECT_EQ(signals.frames, 200u);
  EXPECT_EQ(signals.corrupt, 1u);
  EXPECT_EQ(signals.frontier_lag, 7u);  // 12 - 5
  EXPECT_EQ(signals.spool_depth, 7u);
  EXPECT_EQ(signals.age_ns, 42u);
}

TEST(ObsHealthTest, VerdictJsonShape) {
  HealthVerdict verdict;
  EXPECT_EQ(HealthVerdictToJson(verdict), "{\"state\":\"OK\",\"cause\":\"\"}");
  verdict.state = HealthState::kDegraded;
  verdict.cause = "i2q p99 300 ms >= 250 ms";
  const std::string json = HealthVerdictToJson(verdict);
  EXPECT_NE(json.find("\"state\":\"DEGRADED\""), std::string::npos) << json;
  EXPECT_NE(json.find("i2q p99 300 ms"), std::string::npos) << json;
}

TEST(ObsEventsTest, RingBoundDropAccountingAndJsonl) {
  EventLog log;
  ObsEvent event;
  event.kind = "health_transition";
  event.region_id = 3;
  event.from = "OK";
  event.to = "DEGRADED";
  event.cause = "i2q p99 breached";
  log.Record(event);
  EXPECT_EQ(log.size(), 1u);
  const std::vector<ObsEvent> events = log.Collect();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_GT(events[0].unix_ns, 0u);  // stamped by Record
  EXPECT_EQ(events[0].kind, "health_transition");

  // Flood past capacity: the ring keeps the newest kCapacity and counts
  // the scrolled-off ones, so a consumer can tell quiet from wrapped.
  for (size_t i = 0; i < EventLog::kCapacity + 10; ++i) {
    ObsEvent flood;
    flood.kind = "flood";
    flood.cause = std::to_string(i);
    log.Record(std::move(flood));
  }
  EXPECT_EQ(log.size(), EventLog::kCapacity);
  EXPECT_EQ(log.total_recorded(), EventLog::kCapacity + 11);
  EXPECT_EQ(log.dropped(), 11u);
  EXPECT_EQ(log.Collect().back().cause,
            std::to_string(EventLog::kCapacity + 9));

  // One JSON object per line, oldest first; the array form wraps the same
  // objects.
  const std::string jsonl = log.ToJsonl();
  EXPECT_EQ(static_cast<size_t>(
                std::count(jsonl.begin(), jsonl.end(), '\n')),
            EventLog::kCapacity);
  EXPECT_EQ(log.ToJsonArray().front(), '[');
}

TEST(ObsEventsTest, JsonEscapesAndControlBytesStayOneLine) {
  ObsEvent event;
  event.kind = "reconnect";
  event.cause = "peer said \"busy\"\nretrying\tlater";
  const std::string json = EventToJson(event);
  // Quotes and backslashes escape; control bytes (newline, tab) must not
  // survive verbatim or a JSONL consumer's line framing breaks.
  EXPECT_NE(json.find("\\\"busy\\\""), std::string::npos) << json;
  EXPECT_EQ(json.find('\n'), std::string::npos) << json;
  EXPECT_EQ(json.find('\t'), std::string::npos) << json;
}

}  // namespace
}  // namespace ldpjs
