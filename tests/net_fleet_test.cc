// Fleet observability: the STATS_PUSH / FLEET_STATS frames and the
// central's fleet store. Pins:
//   1. Codec round-trips with hostile-input rejection (trailing bytes).
//   2. Over a live session, pushed region snapshots land in the fleet view
//      and the merged cluster histograms equal a single registry fed the
//      UNION of both regions' records — bucket arrays, counts, sums — not
//      an average of percentiles.
//   3. Health transitions (OK → DEGRADED on an i2q SLO burn) land in the
//      event log with the breached rule as the cause, and in the stats
//      JSON's new trailing sections.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/ldp_join_sketch.h"
#include "net/frame_sender.h"
#include "net/frame_server.h"
#include "net/protocol.h"
#include "obs/fleet_stats.h"
#include "obs/health.h"
#include "obs/metrics.h"

namespace ldpjs {
namespace {

SketchParams TestParams() {
  SketchParams params;
  params.k = 6;
  params.m = 256;
  params.seed = 21;
  return params;
}

constexpr double kEpsilon = 2.0;

/// A snapshot with its own registry series plus the synthetic net_* series
/// a RegionalNode appends — enough for the health rules and the merge.
FleetSnapshot MakeRegionSnapshot(uint32_t region_id, uint64_t frontier,
                                 const std::vector<uint64_t>& i2q_records) {
  MetricsRegistry registry;
  ObsHistogram* i2q = registry.GetHistogram("ingest_to_queryable_ns");
  for (const uint64_t v : i2q_records) i2q->Record(v);
  registry.GetCounter("reports")->Add(100 * (region_id + 1));

  FleetSnapshot snap;
  snap.region_id = region_id;
  snap.captured_unix_ns = NowNanos();
  snap.stats = registry.TakeSnapshot();
  snap.stats.counters.emplace_back("net_frames_received", 50);
  snap.stats.counters.emplace_back("net_frames_shed", 0);
  snap.stats.counters.emplace_back("net_corrupt_frames_rejected", 0);
  snap.stats.counters.emplace_back("net_reports_ingested",
                                   100 * (region_id + 1));
  snap.stats.gauges.emplace_back("net_frontier_epoch", frontier);
  snap.stats.gauges.emplace_back("net_pending_epochs", 0);
  return snap;
}

TEST(NetFleetTest, SnapshotCodecRoundTripsAndRejectsTrailingBytes) {
  const FleetSnapshot original = MakeRegionSnapshot(7, 12, {1000, 2000000});
  std::vector<uint8_t> encoded = EncodeFleetSnapshot(original);
  auto decoded = DecodeFleetSnapshot(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->region_id, 7u);
  EXPECT_EQ(decoded->captured_unix_ns, original.captured_unix_ns);
  EXPECT_EQ(decoded->stats.counters, original.stats.counters);
  EXPECT_EQ(decoded->stats.gauges, original.stats.gauges);
  ASSERT_EQ(decoded->stats.histograms.size(),
            original.stats.histograms.size());
  for (size_t h = 0; h < original.stats.histograms.size(); ++h) {
    EXPECT_EQ(decoded->stats.histograms[h].first,
              original.stats.histograms[h].first);
    const HistogramSnapshot& got = decoded->stats.histograms[h].second;
    const HistogramSnapshot& want = original.stats.histograms[h].second;
    EXPECT_EQ(got.count, want.count);  // re-derived from the buckets
    EXPECT_EQ(got.sum, want.sum);
    for (size_t i = 0; i < HistogramSnapshot::kBuckets; ++i) {
      EXPECT_EQ(got.buckets[i], want.buckets[i]) << "bucket " << i;
    }
  }

  encoded.push_back(0x00);
  auto trailing = DecodeFleetSnapshot(encoded);
  EXPECT_FALSE(trailing.ok());
  EXPECT_EQ(trailing.status().code(), StatusCode::kCorruption);
  EXPECT_FALSE(DecodeFleetSnapshot({}).ok());
}

TEST(NetFleetTest, FleetViewCodecRoundTripsAndRejectsTrailingBytes) {
  FleetStore store;
  const HealthOptions health;
  store.Apply(MakeRegionSnapshot(0, 5, {1000}), NowNanos(), health);
  store.Apply(MakeRegionSnapshot(1, 6, {2000}), NowNanos(), health);
  const FleetView original = store.View(NowNanos(), health);
  ASSERT_EQ(original.regions.size(), 2u);

  std::vector<uint8_t> encoded = EncodeFleetView(original);
  auto decoded = DecodeFleetView(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->rendered_unix_ns, original.rendered_unix_ns);
  EXPECT_EQ(decoded->cluster.state, original.cluster.state);
  ASSERT_EQ(decoded->regions.size(), 2u);
  EXPECT_EQ(decoded->regions[0].snapshot.region_id, 0u);
  EXPECT_EQ(decoded->regions[1].snapshot.region_id, 1u);
  EXPECT_EQ(decoded->regions[1].age_ns, original.regions[1].age_ns);
  EXPECT_EQ(decoded->merged.counters, original.merged.counters);
  // The same serializer renders both the wire view and the JSON section.
  EXPECT_EQ(FleetViewToJson(*decoded), FleetViewToJson(original));

  encoded.push_back(0x00);
  EXPECT_FALSE(DecodeFleetView(encoded).ok());
}

// The tentpole pin: after two regions push, the central's merged cluster
// histogram must be bit-equal to one histogram fed the union of both
// regions' records — true cluster percentiles from raw buckets.
TEST(NetFleetTest, LivePushesMergeExactlyToUnionOfRecords) {
  const SketchParams params = TestParams();
  FrameServer server(params, kEpsilon, FrameServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  const std::vector<uint64_t> records_a = {1000, 1000, 50000, 1 << 22};
  // Largest record stays under the default 250ms SLO even after rounding
  // up to its bucket's upper bound (2^27 − 1 ns ≈ 134ms), so health stays
  // OK and this test pins only the merge.
  const std::vector<uint64_t> records_b = {2000, 800000, 800000, 1ull << 26};

  auto sender_a =
      FrameSender::Connect("127.0.0.1", server.port(), params, kEpsilon);
  ASSERT_TRUE(sender_a.ok());
  ASSERT_TRUE(
      sender_a->PushStats(MakeRegionSnapshot(0, 10, records_a)).ok());
  auto sender_b =
      FrameSender::Connect("127.0.0.1", server.port(), params, kEpsilon);
  ASSERT_TRUE(sender_b.ok());
  ASSERT_TRUE(
      sender_b->PushStats(MakeRegionSnapshot(1, 11, records_b)).ok());

  auto view = sender_a->FleetStats();
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  ASSERT_EQ(view->regions.size(), 2u);
  EXPECT_EQ(view->regions[0].snapshot.region_id, 0u);
  EXPECT_EQ(view->regions[1].snapshot.region_id, 1u);
  EXPECT_EQ(view->cluster.state, HealthState::kOk) << view->cluster.cause;

  ObsHistogram unioned;
  for (const uint64_t v : records_a) unioned.Record(v);
  for (const uint64_t v : records_b) unioned.Record(v);
  const HistogramSnapshot expected = unioned.Snapshot();
  const HistogramSnapshot merged =
      FleetHistogramByName(view->merged, "ingest_to_queryable_ns");
  EXPECT_EQ(merged.count, expected.count);
  EXPECT_EQ(merged.sum, expected.sum);
  for (size_t i = 0; i < HistogramSnapshot::kBuckets; ++i) {
    EXPECT_EQ(merged.buckets[i], expected.buckets[i]) << "bucket " << i;
  }
  EXPECT_EQ(merged.Percentile(0.50), expected.Percentile(0.50));
  EXPECT_EQ(merged.Percentile(0.99), expected.Percentile(0.99));

  // Counters summed across regions; a repush REPLACES region 0's snapshot
  // (last-snapshot store), it does not double-merge.
  uint64_t reports = 0;
  for (const auto& [name, value] : view->merged.counters) {
    if (name == "net_reports_ingested") reports = value;
  }
  EXPECT_EQ(reports, 300u);
  ASSERT_TRUE(
      sender_a->PushStats(MakeRegionSnapshot(0, 12, records_a)).ok());
  auto again = sender_a->FleetStats();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->regions.size(), 2u);
  const HistogramSnapshot remerged =
      FleetHistogramByName(again->merged, "ingest_to_queryable_ns");
  EXPECT_EQ(remerged.count, expected.count);

  ASSERT_TRUE(sender_a->Finish().ok());
  ASSERT_TRUE(sender_b->Finish().ok());
  server.Stop();
}

// An i2q p99 past the SLO target must flip the pushed region (and the
// cluster roll-up) to DEGRADED, and the transition must land in the event
// log with the breached rule named.
TEST(NetFleetTest, SloBurnTransitionsToDegradedAndLogsTheCause) {
  const SketchParams params = TestParams();
  FrameServerOptions options;
  // Target 1.5ms with a 2ms record → p99 ≈ 2.1ms: past 1x, under the 4x
  // critical multiplier — deterministically DEGRADED.
  options.health.i2q_p99_target_ms = 1.5;
  FrameServer server(params, kEpsilon, options);
  ASSERT_TRUE(server.Start().ok());

  auto sender =
      FrameSender::Connect("127.0.0.1", server.port(), params, kEpsilon);
  ASSERT_TRUE(sender.ok());
  ASSERT_TRUE(sender->PushStats(MakeRegionSnapshot(4, 3, {2000000})).ok());

  auto view = sender->FleetStats();
  ASSERT_TRUE(view.ok());
  ASSERT_EQ(view->regions.size(), 1u);
  EXPECT_EQ(view->regions[0].health.state, HealthState::kDegraded);
  EXPECT_NE(view->regions[0].health.cause.find("i2q"), std::string::npos)
      << view->regions[0].health.cause;
  EXPECT_EQ(view->cluster.state, HealthState::kDegraded);

  // The first push arrived unhealthy: that is itself a transition (the
  // store synthesizes OK as the prior state), recorded for the region and
  // the cluster.
  bool region_logged = false, cluster_logged = false;
  for (const ObsEvent& event : server.events().Collect()) {
    if (event.kind != "health_transition") continue;
    if (event.region_id == 4 && event.from == "OK" &&
        event.to == "DEGRADED" &&
        event.cause.find("i2q") != std::string::npos) {
      region_logged = true;
    }
    if (event.cause.find("cluster:") != std::string::npos &&
        event.to == "DEGRADED") {
      cluster_logged = true;
    }
  }
  EXPECT_TRUE(region_logged);
  EXPECT_TRUE(cluster_logged);

  // The stats JSON grew the new trailing sections without disturbing the
  // frozen prefix (net_stats_test pins the prefix; here pin presence).
  const std::string json = server.StatsJson();
  EXPECT_NE(json.find("\"health\":{\"state\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"fleet\":{\"rendered_unix_ns\":"),
            std::string::npos);
  EXPECT_NE(json.find("\"region_count\":1"), std::string::npos);
  EXPECT_NE(json.find("\"age_ms\":"), std::string::npos);
  // Merged histograms render the full quantile ladder.
  EXPECT_NE(json.find("\"p50\":"), std::string::npos);
  EXPECT_NE(json.find("\"p90\":"), std::string::npos);
  EXPECT_NE(json.find("\"p99\":"), std::string::npos);
  EXPECT_NE(json.find("\"p999\":"), std::string::npos);
  EXPECT_NE(json.find("\"events\":["), std::string::npos);
  EXPECT_NE(json.find("health_transition"), std::string::npos);

  ASSERT_TRUE(sender->Finish().ok());
  server.Stop();
}

}  // namespace
}  // namespace ldpjs
