// The stats surface: one serializer behind NetMetricsToJson, the SIGUSR1
// dump, the JSONL exporter, and the LJSP STATS frame. The acceptance
// bar has three parts:
//   1. Schema compatibility — every NetMetrics JSON key that existed
//      before the observability layer still appears, by exact name, so
//      dashboards scraping the SIGUSR1 dump survive the upgrade.
//   2. The STATS frame round-trips the same JSON over a live session,
//      including the derived ingest-to-queryable SLO keys and the obs
//      registry section.
//   3. Per-kind query rejections surface as their own rows.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/ldp_join_sketch.h"
#include "net/frame_sender.h"
#include "net/frame_server.h"
#include "net/net_metrics.h"
#include "net/protocol.h"
#include "obs/metrics.h"
#include "obs/stats_export.h"

namespace ldpjs {
namespace {

SketchParams TestParams(int k = 6, int m = 256, uint64_t seed = 21) {
  SketchParams params;
  params.k = k;
  params.m = m;
  params.seed = seed;
  return params;
}

/// Every top-level key the pre-observability NetMetricsToJson emitted.
/// Renaming or dropping any of these breaks deployed scrapers — the list
/// is frozen; additions are fine.
const char* const kLegacyKeys[] = {
    "connections_accepted", "connections_active", "handshakes_rejected",
    "frames_received", "bytes_received", "reports_ingested",
    "corrupt_frames_rejected", "frames_shed", "queue_high_water",
    "epochs_applied", "epoch_duplicates_ignored", "accept_failures",
    "accept_fatal", "idle_reaped", "connections_folded",
    "retries_attempted", "backoff_millis", "faults_injected",
    "spool_bytes_written", "spool_bytes_resumed", "spool_epochs_resumed",
    "query_frames", "queries_rejected", "views_published", "query_kinds",
    "connections", "shards", "regions",
};

void ExpectHasKey(const std::string& json, const std::string& key) {
  EXPECT_NE(json.find("\"" + key + "\":"), std::string::npos)
      << "missing key " << key << " in " << json;
}

TEST(NetStatsTest, LegacyJsonKeysUnchanged) {
  const std::string json = NetMetricsToJson(NetMetrics{});
  for (const char* key : kLegacyKeys) ExpectHasKey(json, key);
}

TEST(NetStatsTest, RegistrySerializationAddsObsSection) {
  MetricsRegistry registry;
  registry.GetCounter("widgets")->Add(3);
  registry.GetGauge("view_last_publish_unix_ns")->Set(NowNanos());
  registry.GetHistogram("ingest_to_queryable_ns")->Record(2000000);
  const std::string json = StatsToJson(NetMetrics{}, &registry);
  for (const char* key : kLegacyKeys) ExpectHasKey(json, key);
  ExpectHasKey(json, "ingest_to_queryable_p50_ms");
  ExpectHasKey(json, "ingest_to_queryable_p99_ms");
  ExpectHasKey(json, "query_rejected_kinds");
  ExpectHasKey(json, "obs");
  ExpectHasKey(json, "enabled");
  ExpectHasKey(json, "widgets");
  ExpectHasKey(json, "view_staleness_ms");
  // 2ms recorded → p99 reads its bucket's upper bound ((2^21 − 1) ns =
  // 2.09715 ms), serialized in milliseconds.
  EXPECT_NE(json.find("\"ingest_to_queryable_p99_ms\":2.09715"),
            std::string::npos)
      << json;
  // An EMPTY registry still emits the SLO keys, as finite numbers.
  MetricsRegistry empty;
  const std::string bare = StatsToJson(NetMetrics{}, &empty);
  EXPECT_NE(bare.find("\"ingest_to_queryable_p99_ms\":0"),
            std::string::npos)
      << bare;
}

TEST(NetStatsTest, StatsFrameRoundTripsOverLiveSession) {
  const SketchParams params = TestParams();
  const double epsilon = 2.0;
  FrameServerOptions options;
  options.num_shards = 2;
  FrameServer server(params, epsilon, options);
  ASSERT_TRUE(server.Start().ok());

  auto sender =
      FrameSender::Connect("127.0.0.1", server.port(), params, epsilon);
  ASSERT_TRUE(sender.ok()) << sender.status().ToString();

  // Some ingest so the scrape reflects live counters.
  std::vector<uint64_t> values(300);
  for (size_t i = 0; i < values.size(); ++i) values[i] = i % 50;
  std::vector<LdpReport> reports(values.size());
  Xoshiro256 rng(5);
  LdpJoinSketchClient client(params, epsilon);
  client.PerturbBatch(values, reports, rng);
  ASSERT_TRUE(sender->SendReports(reports).ok());
  ASSERT_TRUE(sender->Ping().ok());

  auto json = sender->Stats();
  ASSERT_TRUE(json.ok()) << json.status().ToString();
  for (const char* key : kLegacyKeys) ExpectHasKey(*json, key);
  ExpectHasKey(*json, "ingest_to_queryable_p50_ms");
  ExpectHasKey(*json, "ingest_to_queryable_p99_ms");
  ExpectHasKey(*json, "obs");
  ExpectHasKey(*json, "histograms");
  ExpectHasKey(*json, "shard0_queue_wait_ns");
  ExpectHasKey(*json, "shard0_absorb_ns");
  EXPECT_NE(json->find("\"reports_ingested\":300"), std::string::npos)
      << *json;
  // The scrape must match what the server would dump on SIGUSR1 for the
  // frozen counter prefix (obs histograms keep moving between the two
  // serializations, so compare only up to the first derived key).
  const std::string local = server.StatsJson();
  const size_t frozen = json->find("\"ingest_to_queryable_p50_ms\"");
  ASSERT_NE(frozen, std::string::npos);
  EXPECT_EQ(json->substr(0, frozen), local.substr(0, frozen));

  ASSERT_TRUE(sender->Finish().ok());
  server.Stop();
}

TEST(NetStatsTest, PerKindRejectionsGetOwnRows) {
  const SketchParams params = TestParams();
  const double epsilon = 2.0;
  FrameServer server(params, epsilon, FrameServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  auto sender =
      FrameSender::Connect("127.0.0.1", server.port(), params, epsilon);
  ASSERT_TRUE(sender.ok());

  // A frequent-items scan over an unbounded domain is rejected (the
  // session survives), and the rejection lands on its kind's row.
  QueryRequest bad;
  bad.kind = QueryKind::kFrequentItems;
  bad.domain = 1ull << 40;
  EXPECT_FALSE(sender->Query(bad).ok());

  const NetMetrics m = server.metrics();
  EXPECT_EQ(m.queries_rejected, 1u);
  bool found = false;
  for (const QueryKindMetrics& row : m.query_rejected_kinds) {
    if (row.kind == "frequent_items") {
      found = true;
      EXPECT_EQ(row.served, 1u);
    }
  }
  EXPECT_TRUE(found) << "no frequent_items row in query_rejected_kinds";
  const std::string json = NetMetricsToJson(m);
  EXPECT_NE(json.find("\"query_rejected_kinds\":{\"frequent_items\":1}"),
            std::string::npos)
      << json;

  ASSERT_TRUE(sender->Finish().ok());
  server.Stop();
}

}  // namespace
}  // namespace ldpjs
