// Batched ingestion pipeline: the batch APIs must be *identical* to the
// scalar paths (not just distributionally equal), integer-lane state must
// round-trip and merge bit-exactly, and the versioned wire format must
// reject pre-integer-lane buffers with a clear error instead of parsing
// garbage.
#include <cstring>
#include <unordered_set>

#include <gtest/gtest.h>

#include "core/fap.h"
#include "core/ldp_join_sketch.h"
#include "core/simulation.h"
#include "data/datasets.h"
#include "data/join.h"

namespace ldpjs {
namespace {

SketchParams TestParams(int k = 6, int m = 256, uint64_t seed = 77) {
  SketchParams params;
  params.k = k;
  params.m = m;
  params.seed = seed;
  return params;
}

std::vector<uint64_t> TestValues(size_t n, uint64_t domain) {
  std::vector<uint64_t> values(n);
  Xoshiro256 rng(123);
  for (auto& v : values) v = rng.NextBounded(domain);
  return values;
}

TEST(PerturbBatchTest, MatchesScalarPerturbSequence) {
  const SketchParams params = TestParams();
  LdpJoinSketchClient client(params, 2.0);
  const auto values = TestValues(5000, 97);
  std::vector<LdpReport> batch(values.size());
  Xoshiro256 rng_batch(9), rng_scalar(9);
  client.PerturbBatch(values, batch, rng_batch);
  for (size_t i = 0; i < values.size(); ++i) {
    const LdpReport scalar = client.Perturb(values[i], rng_scalar);
    ASSERT_EQ(batch[i].j, scalar.j) << "i=" << i;
    ASSERT_EQ(batch[i].l, scalar.l) << "i=" << i;
    ASSERT_EQ(batch[i].y, scalar.y) << "i=" << i;
  }
  // Both engines end in the same state: the next draw agrees.
  EXPECT_EQ(rng_batch(), rng_scalar());
}

TEST(PerturbBatchTest, FapBatchMatchesScalarSequence) {
  const SketchParams params = TestParams();
  const std::unordered_set<uint64_t> fi{1, 2, 3, 50};
  FapClient client(params, 2.0, FapMode::kLow, fi);
  const auto values = TestValues(5000, 97);  // mix of targets and non-targets
  std::vector<LdpReport> batch(values.size());
  Xoshiro256 rng_batch(11), rng_scalar(11);
  client.PerturbBatch(values, batch, rng_batch);
  for (size_t i = 0; i < values.size(); ++i) {
    const LdpReport scalar = client.Perturb(values[i], rng_scalar);
    ASSERT_EQ(batch[i].j, scalar.j) << "i=" << i;
    ASSERT_EQ(batch[i].l, scalar.l) << "i=" << i;
    ASSERT_EQ(batch[i].y, scalar.y) << "i=" << i;
  }
}

TEST(AbsorbBatchTest, MatchesScalarAbsorbExactly) {
  const SketchParams params = TestParams();
  LdpJoinSketchClient client(params, 2.0);
  const auto values = TestValues(20000, 150);
  std::vector<LdpReport> reports(values.size());
  Xoshiro256 rng(5);
  client.PerturbBatch(values, reports, rng);

  LdpJoinSketchServer scalar(params, 2.0), batch(params, 2.0);
  for (const LdpReport& r : reports) scalar.Absorb(r);
  batch.AbsorbBatch(reports);

  EXPECT_EQ(scalar.total_reports(), batch.total_reports());
  for (int j = 0; j < params.k; ++j) {
    for (int x = 0; x < params.m; ++x) {
      ASSERT_EQ(scalar.lane(j, x), batch.lane(j, x)) << j << "," << x;
    }
  }

  // Finalized queries agree bit for bit, and against a second sketch the
  // join estimates are identical, not merely close.
  LdpJoinSketchServer other(params, 2.0);
  Xoshiro256 rng_other(6);
  std::vector<LdpReport> other_reports(8000);
  const auto other_values = TestValues(8000, 150);
  client.PerturbBatch(other_values, other_reports, rng_other);
  other.AbsorbBatch(other_reports);

  scalar.Finalize();
  batch.Finalize();
  other.Finalize();
  for (int j = 0; j < params.k; ++j) {
    for (int x = 0; x < params.m; ++x) {
      ASSERT_EQ(scalar.cell(j, x), batch.cell(j, x));
    }
  }
  EXPECT_EQ(scalar.JoinEstimate(other), batch.JoinEstimate(other));
  EXPECT_EQ(scalar.FrequencyEstimate(42), batch.FrequencyEstimate(42));
}

TEST(AbsorbBatchTest, EmptyBatchIsANoOp) {
  LdpJoinSketchServer server(TestParams(), 1.0);
  server.AbsorbBatch({});
  EXPECT_EQ(server.total_reports(), 0u);
}

TEST(IntegerLaneTest, SerializeDeserializeMergeBitExact) {
  const SketchParams params = TestParams(4, 128);
  LdpJoinSketchClient client(params, 1.5);
  LdpJoinSketchServer part1(params, 1.5), part2(params, 1.5),
      direct(params, 1.5);
  Xoshiro256 rng(21);
  for (int i = 0; i < 10000; ++i) {
    const LdpReport r = client.Perturb(static_cast<uint64_t>(i % 63), rng);
    (i % 2 == 0 ? part1 : part2).Absorb(r);
    direct.Absorb(r);
  }

  // Raw-lane round trip is bit-exact.
  const auto bytes1 = part1.Serialize();
  auto restored1 = LdpJoinSketchServer::Deserialize(bytes1);
  ASSERT_TRUE(restored1.ok()) << restored1.status().ToString();
  EXPECT_FALSE(restored1->finalized());
  EXPECT_EQ(restored1->total_reports(), part1.total_reports());
  for (int j = 0; j < params.k; ++j) {
    for (int x = 0; x < params.m; ++x) {
      ASSERT_EQ(restored1->lane(j, x), part1.lane(j, x));
    }
  }
  // Re-serializing the restored sketch reproduces the same bytes.
  EXPECT_EQ(restored1->Serialize(), bytes1);

  // Merging deserialized shards equals absorbing everything directly —
  // integer lanes make distributed aggregation lossless.
  auto restored2 = LdpJoinSketchServer::Deserialize(part2.Serialize());
  ASSERT_TRUE(restored2.ok());
  restored1->Merge(*restored2);
  EXPECT_EQ(restored1->total_reports(), direct.total_reports());
  for (int j = 0; j < params.k; ++j) {
    for (int x = 0; x < params.m; ++x) {
      ASSERT_EQ(restored1->lane(j, x), direct.lane(j, x));
    }
  }
  restored1->Finalize();
  direct.Finalize();
  for (int j = 0; j < params.k; ++j) {
    for (int x = 0; x < params.m; ++x) {
      ASSERT_EQ(restored1->cell(j, x), direct.cell(j, x));
    }
  }
}

TEST(IntegerLaneTest, OldFormatDecodeFailsWithClearError) {
  // A v1 buffer: no magic, leads with k and carries double cells.
  BinaryWriter writer;
  writer.PutU32(3);    // k
  writer.PutU32(64);   // m
  writer.PutU64(5);    // seed
  writer.PutDouble(2.0);
  writer.PutU64(100);  // total
  writer.PutU8(0);     // finalized
  std::vector<double> cells(3 * 64, 0.0);
  writer.PutDoubleVector(cells);
  auto result = LdpJoinSketchServer::Deserialize(writer.buffer());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
  EXPECT_NE(result.status().message().find("magic"), std::string::npos)
      << result.status().ToString();
}

TEST(IntegerLaneTest, VersionMismatchRejected) {
  LdpJoinSketchServer server(TestParams(2, 64), 1.0);
  auto bytes = server.Serialize();
  bytes[4] = 99;  // version byte follows the 4-byte magic
  auto result = LdpJoinSketchServer::Deserialize(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("version"), std::string::npos);
}

TEST(ReportCodecTest, RejectsNonBinarySignByte) {
  BinaryWriter writer;
  writer.PutU8(2);  // not a valid ±1 encoding
  writer.PutU32(1);
  writer.PutU32(5);
  BinaryReader reader(writer.buffer());
  auto result = DecodeReport(reader);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
}

TEST(ReportCodecTest, StrictRoundTripBothSigns) {
  for (int8_t y : {int8_t{1}, int8_t{-1}}) {
    BinaryWriter writer;
    EncodeReport(LdpReport{y, 3, 9}, writer);
    BinaryReader reader(writer.buffer());
    auto decoded = DecodeReport(reader);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->y, y);
  }
}

TEST(ReportCodecDeathTest, EncodingNonUnitSignAborts) {
  BinaryWriter writer;
  EXPECT_DEATH(EncodeReport(LdpReport{0, 0, 0}, writer),
               "LDPJS_CHECK failed");
}

TEST(AbsorbBatchDeathTest, InvalidReportsAbortBeforeMutation) {
  LdpJoinSketchServer server(TestParams(2, 64), 1.0);
  const LdpReport bad_row{1, 7, 0};
  EXPECT_DEATH(server.AbsorbBatch(std::span<const LdpReport>(&bad_row, 1)),
               "LDPJS_CHECK failed");
  const LdpReport bad_sign{0, 0, 0};
  EXPECT_DEATH(server.AbsorbBatch(std::span<const LdpReport>(&bad_sign, 1)),
               "LDPJS_CHECK failed");
  EXPECT_DEATH(server.Absorb(bad_sign), "LDPJS_CHECK failed");
}

TEST(BlockStreamTest, PipelineBitIdenticalAcrossThreadCounts) {
  // Block-indexed RNG streams + integer-lane merge: the built sketch is
  // bit-identical for any thread count, not merely close.
  const SketchParams params = TestParams(6, 256);
  const JoinWorkload w = MakeZipfWorkload(1.4, 300, 30000, 23);
  SimulationOptions sim1;
  sim1.run_seed = 77;
  sim1.num_threads = 1;
  SimulationOptions sim4 = sim1;
  sim4.num_threads = 4;
  const LdpJoinSketchServer s1 =
      BuildLdpJoinSketch(w.table_a, params, 3.0, sim1);
  const LdpJoinSketchServer s4 =
      BuildLdpJoinSketch(w.table_a, params, 3.0, sim4);
  EXPECT_EQ(s1.total_reports(), s4.total_reports());
  for (int j = 0; j < params.k; ++j) {
    for (int x = 0; x < params.m; ++x) {
      ASSERT_EQ(s1.cell(j, x), s4.cell(j, x));
    }
  }
}

}  // namespace
}  // namespace ldpjs
