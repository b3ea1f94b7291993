// Sharded streaming aggregation service: for ANY shard count, ANY frame
// sizing, and ANY interleaving, the merged raw lanes — and therefore the
// finalized cells and join estimates — must be bit-identical to a single
// node absorbing the same reports. Not "close": identical to the last ulp.
#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "common/serialize.h"
#include "core/ldp_join_sketch.h"
#include "service/sharded_aggregator.h"

namespace ldpjs {
namespace {

SketchParams TestParams(int k, int m, uint64_t seed) {
  SketchParams params;
  params.k = k;
  params.m = m;
  params.seed = seed;
  return params;
}

std::vector<LdpReport> RandomReports(const LdpJoinSketchClient& client,
                                     size_t n, uint64_t domain,
                                     uint64_t seed) {
  std::vector<uint64_t> values(n);
  Xoshiro256 value_rng(seed);
  for (auto& v : values) v = value_rng.NextBounded(domain);
  std::vector<LdpReport> reports(n);
  Xoshiro256 perturb_rng(seed ^ 0xFACEULL);
  client.PerturbBatch(values, reports, perturb_rng);
  return reports;
}

/// Splits `reports` into wire frames of random sizes drawn from `rng`
/// (1 .. kMaxWireBatchReports reports each) and concatenates them into one
/// length-prefixed stream — a random batch interleaving.
std::vector<uint8_t> RandomStream(std::span<const LdpReport> reports,
                                  Xoshiro256& rng) {
  BinaryWriter stream;
  size_t pos = 0;
  while (pos < reports.size()) {
    const size_t want = 1 + rng.NextBounded(kMaxWireBatchReports);
    const size_t count = std::min(want, reports.size() - pos);
    BinaryWriter frame;
    EncodeReportBatch(reports.subspan(pos, count), frame);
    stream.PutFrame(frame.buffer());
    pos += count;
  }
  return stream.TakeBuffer();
}

void ExpectLanesEqual(const LdpJoinSketchServer& a,
                      const LdpJoinSketchServer& b) {
  ASSERT_EQ(a.total_reports(), b.total_reports());
  for (int j = 0; j < a.params().k; ++j) {
    for (int x = 0; x < a.params().m; ++x) {
      ASSERT_EQ(a.lane(j, x), b.lane(j, x)) << "lane (" << j << "," << x << ")";
    }
  }
}

TEST(ServiceShardPropertyTest, AnyShardCountMatchesSingleNodeBitExactly) {
  // Property sweep: shard counts {1,2,3,8,16} with a fresh random epsilon,
  // report set, and frame interleaving per count.
  Xoshiro256 meta_rng(20240717);
  for (size_t shards : {size_t{1}, size_t{2}, size_t{3}, size_t{8},
                        size_t{16}}) {
    const double epsilon = 0.5 + 5.5 * meta_rng.NextDouble();
    const SketchParams params = TestParams(5, 256, 31 + shards);
    LdpJoinSketchClient client(params, epsilon);
    const size_t n = 20000 + meta_rng.NextBounded(20000);
    const std::vector<LdpReport> reports =
        RandomReports(client, n, 997, meta_rng());

    LdpJoinSketchServer single(params, epsilon);
    for (size_t first = 0; first < n; first += kMaxWireBatchReports) {
      const size_t count = std::min(kMaxWireBatchReports, n - first);
      single.AbsorbBatch(std::span<const LdpReport>(&reports[first], count));
    }

    const std::vector<uint8_t> stream = RandomStream(reports, meta_rng);
    ShardedAggregator aggregator(params, epsilon, shards);
    const Status status = aggregator.IngestStream(stream);
    ASSERT_TRUE(status.ok()) << status.ToString();
    ASSERT_EQ(aggregator.num_shards(), shards);
    EXPECT_EQ(aggregator.reports_ingested(), n);

    ExpectLanesEqual(aggregator.MergeShards(), single);

    // Join estimates against an independent sketch agree to the last ulp.
    LdpJoinSketchServer other(params, epsilon);
    const std::vector<LdpReport> other_reports =
        RandomReports(client, 15000, 997, meta_rng());
    other.AbsorbBatch(other_reports);
    other.Finalize();
    LdpJoinSketchServer sharded_final = aggregator.Finalize();
    single.Finalize();
    EXPECT_EQ(sharded_final.JoinEstimate(other), single.JoinEstimate(other));
    EXPECT_EQ(sharded_final.FrequencyEstimate(13),
              single.FrequencyEstimate(13));
  }
}

TEST(ServiceShardPropertyTest, ReroutedInterleavingsAgreeWithEachOther) {
  // The same reports through two different interleavings and shard counts
  // must still merge to identical lanes — routing is never load-bearing.
  const SketchParams params = TestParams(4, 128, 9);
  const double epsilon = 2.0;
  LdpJoinSketchClient client(params, epsilon);
  const std::vector<LdpReport> reports = RandomReports(client, 30000, 501, 77);
  Xoshiro256 frame_rng_a(1), frame_rng_b(2);
  ShardedAggregator agg_a(params, epsilon, 3), agg_b(params, epsilon, 16);
  ASSERT_TRUE(agg_a.IngestStream(RandomStream(reports, frame_rng_a)).ok());
  ASSERT_TRUE(agg_b.IngestStream(RandomStream(reports, frame_rng_b)).ok());
  ExpectLanesEqual(agg_a.MergeShards(), agg_b.MergeShards());
}

TEST(ServiceShardTest, StreamingIngestFrameMatchesBulkIngestStream) {
  const SketchParams params = TestParams(4, 128, 5);
  const double epsilon = 1.5;
  LdpJoinSketchClient client(params, epsilon);
  const std::vector<LdpReport> reports = RandomReports(client, 25000, 300, 3);

  // Frame-at-a-time (round-robin) vs one bulk stream of the same frames.
  ShardedAggregator streaming(params, epsilon, 4), bulk(params, epsilon, 4);
  BinaryWriter stream;
  size_t pos = 0;
  Xoshiro256 rng(11);
  while (pos < reports.size()) {
    const size_t count = std::min(1 + rng.NextBounded(3000),
                                  reports.size() - pos);
    BinaryWriter frame;
    EncodeReportBatch(std::span<const LdpReport>(&reports[pos], count), frame);
    ASSERT_TRUE(streaming.IngestFrame(frame.buffer()).ok());
    stream.PutFrame(frame.buffer());
    pos += count;
  }
  ASSERT_TRUE(bulk.IngestStream(stream.buffer()).ok());
  EXPECT_EQ(streaming.frames_ingested(), bulk.frames_ingested());
  ExpectLanesEqual(streaming.MergeShards(), bulk.MergeShards());
}

TEST(ServiceShardTest, DefaultShardCountFollowsSharedPool) {
  const SketchParams params = TestParams(2, 64, 1);
  ShardedAggregator aggregator(params, 1.0, 0);
  EXPECT_GE(aggregator.num_shards(), 1u);
}

}  // namespace
}  // namespace ldpjs
