#include <cmath>

#include <gtest/gtest.h>

#include "common/hadamard.h"
#include "core/ldp_join_sketch.h"

namespace ldpjs {
namespace {

SketchParams SmallParams(int k = 8, int m = 64) {
  SketchParams params;
  params.k = k;
  params.m = m;
  params.seed = 11;
  return params;
}

TEST(LdpClientTest, ReportFieldsInRange) {
  const SketchParams params = SmallParams();
  LdpJoinSketchClient client(params, 2.0);
  Xoshiro256 rng(1);
  for (int i = 0; i < 10000; ++i) {
    const LdpReport r = client.Perturb(static_cast<uint64_t>(i), rng);
    EXPECT_LT(r.j, params.k);
    EXPECT_LT(r.l, static_cast<uint32_t>(params.m));
    EXPECT_TRUE(r.y == 1 || r.y == -1);
  }
}

TEST(LdpClientTest, FlipProbabilityFormula) {
  LdpJoinSketchClient client(SmallParams(), 3.0);
  EXPECT_NEAR(client.flip_probability(), 1.0 / (std::exp(3.0) + 1.0), 1e-12);
}

TEST(LdpClientTest, FastPathMatchesAlgorithmOneReference) {
  // The O(1) fast path must be *identical* to the literal Algorithm 1
  // pipeline, not just distributionally equal: same RNG state, same output.
  const SketchParams params = SmallParams(6, 128);
  LdpJoinSketchClient client(params, 1.5);
  for (uint64_t v = 0; v < 500; ++v) {
    Xoshiro256 rng_fast(1000 + v);
    Xoshiro256 rng_ref(1000 + v);
    const LdpReport fast = client.Perturb(v, rng_fast);
    const LdpReport ref = client.PerturbReference(v, rng_ref);
    ASSERT_EQ(fast.j, ref.j) << "v=" << v;
    ASSERT_EQ(fast.l, ref.l) << "v=" << v;
    ASSERT_EQ(fast.y, ref.y) << "v=" << v;
  }
}

TEST(LdpClientTest, NoFlipsAtHugeEpsilon) {
  const SketchParams params = SmallParams();
  LdpJoinSketchClient client(params, 50.0);
  Xoshiro256 rng(3);
  const auto& rows = client.row_hashes();
  for (int i = 0; i < 2000; ++i) {
    const uint64_t v = static_cast<uint64_t>(i);
    const LdpReport r = client.Perturb(v, rng);
    const int expected = rows[r.j].sign(v) *
                         HadamardEntry(rows[r.j].bucket(v), r.l);
    EXPECT_EQ(r.y, expected);
  }
}

TEST(LdpClientTest, RowAndCoordinateSamplingIsUniform) {
  const SketchParams params = SmallParams(4, 16);
  LdpJoinSketchClient client(params, 2.0);
  Xoshiro256 rng(5);
  std::vector<int> row_counts(4, 0), col_counts(16, 0);
  const int n = 64000;
  for (int i = 0; i < n; ++i) {
    const LdpReport r = client.Perturb(9, rng);
    ++row_counts[r.j];
    ++col_counts[r.l];
  }
  for (int j = 0; j < 4; ++j) {
    EXPECT_NEAR(row_counts[static_cast<size_t>(j)] / static_cast<double>(n), 0.25,
                0.01);
  }
  for (int l = 0; l < 16; ++l) {
    EXPECT_NEAR(col_counts[static_cast<size_t>(l)] / static_cast<double>(n),
                1.0 / 16, 0.005);
  }
}

TEST(LdpClientTest, SatisfiesEpsilonLdpClosedForm) {
  // Theorem 1. For any inputs d, d' and output (y, j, l):
  //   Pr[(y,j,l)|d] = (1/km) * (p if y == w_d(j,l) else 1-p),
  // so the worst-case ratio is p/(1-p) = e^ε exactly.
  const double eps = 1.2;
  const SketchParams params = SmallParams(5, 32);
  LdpJoinSketchClient client(params, eps);
  const auto& rows = client.row_hashes();
  const double p = 1.0 - client.flip_probability();
  double max_ratio = 0.0;
  for (uint64_t d = 0; d < 20; ++d) {
    for (uint64_t d2 = 0; d2 < 20; ++d2) {
      for (int j = 0; j < params.k; ++j) {
        for (int l = 0; l < params.m; ++l) {
          const int w1 = rows[static_cast<size_t>(j)].sign(d) *
                         HadamardEntry(rows[static_cast<size_t>(j)].bucket(d),
                                       static_cast<uint64_t>(l));
          const int w2 = rows[static_cast<size_t>(j)].sign(d2) *
                         HadamardEntry(rows[static_cast<size_t>(j)].bucket(d2),
                                       static_cast<uint64_t>(l));
          for (int y : {-1, 1}) {
            const double pr1 = (y == w1) ? p : 1.0 - p;
            const double pr2 = (y == w2) ? p : 1.0 - p;
            max_ratio = std::max(max_ratio, pr1 / pr2);
          }
        }
      }
    }
  }
  EXPECT_LE(max_ratio, std::exp(eps) * (1.0 + 1e-9));
}

TEST(LdpClientTest, OutputSignBalancedOverPerturbation) {
  // E[y] over the b-flip alone is w[l]/c_eps; averaged over l the Hadamard
  // row is balanced except the DC column, so the sign rate is near 1/2.
  LdpJoinSketchClient client(SmallParams(2, 256), 1.0);
  Xoshiro256 rng(7);
  int positives = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    positives += (client.Perturb(1234, rng).y == 1) ? 1 : 0;
  }
  EXPECT_NEAR(positives / static_cast<double>(n), 0.5, 0.02);
}

TEST(LdpClientDeathTest, InvalidParamsAbort) {
  SketchParams bad_m = SmallParams();
  bad_m.m = 100;  // not a power of two
  EXPECT_DEATH(LdpJoinSketchClient(bad_m, 1.0), "LDPJS_CHECK failed");
  EXPECT_DEATH(LdpJoinSketchClient(SmallParams(), 0.0), "LDPJS_CHECK failed");
  EXPECT_DEATH(LdpJoinSketchClient(SmallParams(), -1.0), "LDPJS_CHECK failed");
}

// A report names its row in a uint16_t, so a sketch with more rows would
// wrap draws onto row 0 and serialize a shape Deserialize refuses: every
// constructor refuses it instead.
TEST(LdpClientDeathTest, MoreRowsThanAReportCanNameAbort) {
  SketchParams params = SmallParams();
  params.k = kMaxSketchRows + 1;
  params.m = 2;
  EXPECT_DEATH(LdpJoinSketchClient(params, 1.0), "LDPJS_CHECK failed");
  EXPECT_DEATH(LdpJoinSketchServer(params, 1.0), "LDPJS_CHECK failed");
}

TEST(LdpReportTest, EncodeDecodeRoundTrip) {
  BinaryWriter writer;
  const LdpReport original{-1, 17, 1023};
  EncodeReport(original, writer);
  BinaryReader reader(writer.buffer());
  auto decoded = DecodeReport(reader);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->y, original.y);
  EXPECT_EQ(decoded->j, original.j);
  EXPECT_EQ(decoded->l, original.l);
}

TEST(LdpReportTest, DecodeTruncatedFails) {
  BinaryWriter writer;
  writer.PutU8(1);
  BinaryReader reader(writer.buffer());
  EXPECT_FALSE(DecodeReport(reader).ok());
}

// Property sweep: fast path == reference path across sketch shapes and
// privacy budgets.
class ClientEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<int, int, double>> {};

TEST_P(ClientEquivalenceTest, FastEqualsReference) {
  const auto [k, m, eps] = GetParam();
  SketchParams params;
  params.k = k;
  params.m = m;
  params.seed = 99;
  LdpJoinSketchClient client(params, eps);
  for (uint64_t v = 0; v < 64; ++v) {
    Xoshiro256 rng_fast(v * 31 + 1);
    Xoshiro256 rng_ref(v * 31 + 1);
    const LdpReport fast = client.Perturb(v, rng_fast);
    const LdpReport ref = client.PerturbReference(v, rng_ref);
    ASSERT_EQ(fast.j, ref.j);
    ASSERT_EQ(fast.l, ref.l);
    ASSERT_EQ(fast.y, ref.y);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ClientEquivalenceTest,
    ::testing::Combine(::testing::Values(1, 3, 18),
                       ::testing::Values(2, 64, 1024),
                       ::testing::Values(0.1, 1.0, 4.0, 10.0)));

}  // namespace
}  // namespace ldpjs
