#include "ldp/hcms.h"

#include <cmath>

#include <gtest/gtest.h>

#include "data/datasets.h"
#include "data/gaussian.h"

namespace ldpjs {
namespace {

HcmsParams SmallParams(double epsilon = 4.0) {
  HcmsParams params;
  params.epsilon = epsilon;
  params.k = 16;
  params.m = 256;
  params.seed = 3;
  return params;
}

TEST(HcmsClientTest, ReportFieldsInRange) {
  const HcmsParams params = SmallParams();
  HcmsClient client(params);
  Xoshiro256 rng(1);
  for (int i = 0; i < 10000; ++i) {
    const HcmsReport r = client.Perturb(static_cast<uint64_t>(i), rng);
    EXPECT_LT(r.j, params.k);
    EXPECT_LT(r.l, static_cast<uint32_t>(params.m));
    EXPECT_TRUE(r.y == 1 || r.y == -1);
  }
}

TEST(HcmsClientTest, NoFlipsAtHugeEpsilon) {
  // flip prob = 1/(e^eps+1) → 0, so y must equal the true Hadamard sample.
  HcmsParams params = SmallParams(/*epsilon=*/40.0);
  HcmsClient client(params);
  Xoshiro256 rng(2);
  int flips = 0;
  for (int i = 0; i < 1000; ++i) {
    // The Hadamard sample of a one-hot +1 vector has known magnitude 1;
    // with no perturbation the server-side estimate becomes exact in
    // expectation, indirectly verified by the frequency test below. Here we
    // only verify determinism of the sign at huge epsilon: repeated
    // perturbation of the same value with the same rng state matches.
    Xoshiro256 rng_a = rng;
    const HcmsReport a = client.Perturb(7, rng_a);
    Xoshiro256 rng_b = rng;
    const HcmsReport b = client.Perturb(7, rng_b);
    flips += (a.y != b.y) ? 1 : 0;
    rng();
  }
  EXPECT_EQ(flips, 0);
}

TEST(HcmsServerTest, FrequencyEstimateUnbiasedForHeavyItem) {
  const HcmsParams params = SmallParams();
  const uint64_t domain = 500;
  const JoinWorkload w = MakeZipfWorkload(1.5, domain, 150000, 5);
  const auto est = HcmsEstimateFrequencies(w.table_a, params, 17);
  const auto freq = w.table_a.Frequencies();
  for (uint64_t d = 0; d < 3; ++d) {
    EXPECT_NEAR(est[d] / static_cast<double>(freq[d]), 1.0, 0.15) << "d=" << d;
  }
}

TEST(HcmsServerTest, EstimatesSumNearTotal) {
  // Uniform data avoids heavy-item collision variance; the residual spread
  // is the per-cell LDP sampling noise.
  const HcmsParams params = SmallParams();
  const uint64_t domain = 100;
  const Column c = GenerateUniform(domain, 120000, 7);
  const auto est = HcmsEstimateFrequencies(c, params, 19);
  double sum = 0;
  for (double f : est) sum += f;
  EXPECT_NEAR(sum / 120000.0, 1.0, 0.1);
}

TEST(HcmsServerTest, MergeEqualsSequential) {
  const HcmsParams params = SmallParams();
  HcmsClient client(params);
  HcmsServer all(params), part1(params), part2(params);
  Xoshiro256 rng1(1), rng2(1);
  for (int i = 0; i < 2000; ++i) {
    const HcmsReport r = client.Perturb(static_cast<uint64_t>(i % 50), rng1);
    all.Absorb(r);
    const HcmsReport r2 = client.Perturb(static_cast<uint64_t>(i % 50), rng2);
    if (i % 2 == 0) {
      part1.Absorb(r2);
    } else {
      part2.Absorb(r2);
    }
  }
  part1.Merge(part2);
  all.Finalize();
  part1.Finalize();
  for (uint64_t d = 0; d < 50; ++d) {
    EXPECT_NEAR(all.EstimateFrequency(d), part1.EstimateFrequency(d), 1e-9);
  }
}

TEST(HcmsServerDeathTest, AbsorbAfterFinalizeAborts) {
  const HcmsParams params = SmallParams();
  HcmsServer server(params);
  server.Finalize();
  HcmsReport r{1, 0, 0};
  EXPECT_DEATH(server.Absorb(r), "LDPJS_CHECK failed");
}

TEST(HcmsServerDeathTest, EstimateBeforeFinalizeAborts) {
  const HcmsParams params = SmallParams();
  HcmsServer server(params);
  EXPECT_DEATH(server.EstimateFrequency(0), "LDPJS_CHECK failed");
}

TEST(HcmsDeathTest, NonPowerOfTwoMAborts) {
  HcmsParams params = SmallParams();
  params.m = 100;
  EXPECT_DEATH(HcmsClient{params}, "LDPJS_CHECK failed");
}

TEST(HcmsDeathTest, MoreRowsThanAReportCanNameAbort) {
  HcmsParams params = SmallParams();
  params.k = 65536;  // HcmsReport::j is a uint16_t
  params.m = 2;
  EXPECT_DEATH(HcmsClient{params}, "LDPJS_CHECK failed");
  EXPECT_DEATH(HcmsServer{params}, "LDPJS_CHECK failed");
}

TEST(HcmsDeathTest, EpsilonPastTheBoundAborts) {
  const HcmsParams params = SmallParams(800.0);  // past kMaxEpsilon
  EXPECT_DEATH(HcmsClient{params}, "LDPJS_CHECK failed");
  EXPECT_DEATH(HcmsServer{params}, "LDPJS_CHECK failed");
}

TEST(HcmsTest, ByteSizeMatchesShape) {
  const HcmsParams params = SmallParams();
  HcmsServer server(params);
  EXPECT_EQ(server.ByteSize(),
            static_cast<size_t>(params.k) * static_cast<size_t>(params.m) *
                sizeof(double));
}

}  // namespace
}  // namespace ldpjs
