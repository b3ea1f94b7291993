// LdpJoinSketchServer::SubtractRaw — the sliding-window retract — and the
// service-layer merge plumbing beside it. The invariant: lanes are linear,
// so any interleaving of merges and subtracts leaves exactly the lanes of the
// surviving set, bit for bit. The fuzz-style sweep here also runs under
// the CI ASan/UBSan job (and the add/subtract arithmetic under UBSan
// catches any signed overflow misuse).
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/ldp_join_sketch.h"
#include "service/sharded_aggregator.h"

namespace ldpjs {
namespace {

SketchParams TestParams(int k = 5, int m = 128, uint64_t seed = 7) {
  SketchParams params;
  params.k = k;
  params.m = m;
  params.seed = seed;
  return params;
}

std::vector<LdpReport> MakeReports(const LdpJoinSketchClient& client,
                                   size_t n, uint64_t seed) {
  std::vector<uint64_t> values(n);
  for (size_t i = 0; i < n; ++i) values[i] = (i * 40503u + seed) % 500;
  std::vector<LdpReport> reports(n);
  Xoshiro256 rng(seed);
  client.PerturbBatch(values, reports, rng);
  return reports;
}

TEST(CoreSubtractTest, SubtractIsExactInverseOfMerge) {
  const SketchParams params = TestParams();
  const double epsilon = 2.0;
  LdpJoinSketchClient client(params, epsilon);

  LdpJoinSketchServer base(params, epsilon);
  base.AbsorbBatch(MakeReports(client, 4000, 1));
  const std::vector<uint8_t> before = base.Serialize();

  LdpJoinSketchServer delta(params, epsilon);
  delta.AbsorbBatch(MakeReports(client, 2500, 2));

  base.Merge(delta);
  EXPECT_EQ(base.total_reports(), 6500u);
  base.SubtractRaw(delta);
  EXPECT_EQ(base.Serialize(), before);  // lanes and count restored exactly
}

TEST(CoreSubtractTest, SubtractToEmptyMatchesFreshSketch) {
  const SketchParams params = TestParams();
  const double epsilon = 1.0;
  LdpJoinSketchClient client(params, epsilon);
  LdpJoinSketchServer sketch(params, epsilon);
  LdpJoinSketchServer delta(params, epsilon);
  delta.AbsorbBatch(MakeReports(client, 3000, 3));
  sketch.Merge(delta);
  sketch.SubtractRaw(delta);
  EXPECT_EQ(sketch.Serialize(), LdpJoinSketchServer(params, epsilon).Serialize());
}

// Fuzz-style sweep: random interleavings of epoch arrivals (merge) and
// expiries (subtract, oldest-first — the sliding-window order) must leave
// exactly the lanes of the directly-built surviving window. 40 rounds ×
// 12 operations with a fixed seed.
TEST(CoreSubtractTest, RandomAddSubtractInterleavingsMatchDirectBuild) {
  const SketchParams params = TestParams();
  const double epsilon = 2.0;
  LdpJoinSketchClient client(params, epsilon);
  Xoshiro256 rng(0xF00D);

  for (int round = 0; round < 40; ++round) {
    std::vector<std::vector<LdpReport>> epochs;   // payload per epoch
    std::vector<LdpJoinSketchServer> snapshots;   // raw sketch per epoch
    size_t oldest_live = 0;                        // expiry is oldest-first
    LdpJoinSketchServer incremental(params, epsilon);

    for (int op = 0; op < 12; ++op) {
      const bool can_expire = oldest_live < epochs.size();
      const bool expire = can_expire && rng.NextBounded(3) == 0;
      if (expire) {
        incremental.SubtractRaw(snapshots[oldest_live]);
        ++oldest_live;
      } else {
        const size_t n = 200 + rng.NextBounded(800);
        epochs.push_back(MakeReports(client, n, rng()));
        LdpJoinSketchServer snapshot(params, epsilon);
        snapshot.AbsorbBatch(epochs.back());
        incremental.Merge(snapshot);
        snapshots.push_back(std::move(snapshot));
      }

      // The incremental state must equal a from-scratch build of the live
      // window after EVERY operation, lanes bit-exact.
      LdpJoinSketchServer direct(params, epsilon);
      for (size_t e = oldest_live; e < epochs.size(); ++e) {
        direct.AbsorbBatch(epochs[e]);
      }
      ASSERT_EQ(incremental.Serialize(), direct.Serialize())
          << "round=" << round << " op=" << op;
    }
  }
}

// Service plumbing: decode-once + merge through the sharded aggregator
// keeps the merged lanes exact, and validation rejects what cannot merge.
TEST(CoreSubtractTest, ShardedAggregatorMergeRawSketch) {
  const SketchParams params = TestParams();
  const double epsilon = 2.0;
  LdpJoinSketchClient client(params, epsilon);

  LdpJoinSketchServer epoch_a(params, epsilon);
  epoch_a.AbsorbBatch(MakeReports(client, 3000, 10));
  LdpJoinSketchServer epoch_b(params, epsilon);
  epoch_b.AbsorbBatch(MakeReports(client, 2000, 11));

  ShardedAggregator aggregator(params, epsilon, 3);
  auto decoded_a = aggregator.DecodeCompatibleSketch(epoch_a.Serialize());
  ASSERT_TRUE(decoded_a.ok());
  auto decoded_b = aggregator.DecodeCompatibleSketch(epoch_b.Serialize());
  ASSERT_TRUE(decoded_b.ok());

  aggregator.MergeRawSketch(0, *decoded_a);
  aggregator.MergeRawSketch(2, *decoded_b);
  EXPECT_EQ(aggregator.reports_ingested(), 5000u);
  // One shape: the shards, each decoded push and each merge share the hash
  // tables the constructor built.
  const RowHashes* tables = aggregator.shard(0).sketch().row_hashes().data();
  EXPECT_EQ(aggregator.shard(2).sketch().row_hashes().data(), tables);
  EXPECT_EQ(decoded_a->row_hashes().data(), tables);
  EXPECT_EQ(aggregator.MergeShards().row_hashes().data(), tables);
  EXPECT_EQ(aggregator.Finalize().row_hashes().data(), tables);
  LdpJoinSketchServer both = epoch_a;
  both.Merge(epoch_b);
  EXPECT_EQ(aggregator.MergeShards().Serialize(), both.Serialize());

  // Validation still rejects garbage and mismatched shapes before any lane.
  const std::vector<uint8_t> garbage(32, 0xAB);
  EXPECT_FALSE(aggregator.DecodeCompatibleSketch(garbage).ok());
  // Trailing bytes after a well-formed sketch are corruption, not ignored.
  auto trailing = epoch_b.Serialize();
  trailing.push_back(0);
  EXPECT_EQ(aggregator.DecodeCompatibleSketch(trailing).status().code(),
            StatusCode::kCorruption);
  LdpJoinSketchServer wrong(TestParams(3, 64), epsilon);
  auto mismatch = aggregator.DecodeCompatibleSketch(wrong.Serialize());
  EXPECT_EQ(mismatch.status().code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace ldpjs
