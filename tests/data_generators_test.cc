#include <cmath>
#include <numeric>

#include <gtest/gtest.h>

#include "common/random.h"
#include "data/alias_sampler.h"
#include "data/datasets.h"
#include "data/gaussian.h"
#include "data/zipf.h"

namespace ldpjs {
namespace {

TEST(AliasSamplerTest, EmpiricalMatchesWeights) {
  AliasSampler sampler({1.0, 2.0, 3.0, 4.0});
  Xoshiro256 rng(11);
  std::vector<int> counts(4, 0);
  const int n = 200000;
  for (int i = 0; i < n; ++i) ++counts[sampler.Sample(rng)];
  for (size_t i = 0; i < 4; ++i) {
    const double expected = (static_cast<double>(i) + 1.0) / 10.0;
    EXPECT_NEAR(static_cast<double>(counts[i]) / n, expected, 0.01)
        << "index " << i;
  }
}

TEST(AliasSamplerTest, SingleBucketAlwaysZero) {
  AliasSampler sampler({5.0});
  Xoshiro256 rng(2);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(sampler.Sample(rng), 0u);
}

TEST(AliasSamplerTest, ZeroWeightNeverSampled) {
  AliasSampler sampler({1.0, 0.0, 1.0});
  Xoshiro256 rng(3);
  for (int i = 0; i < 10000; ++i) EXPECT_NE(sampler.Sample(rng), 1u);
}

TEST(AliasSamplerDeathTest, AllZeroWeightsAbort) {
  EXPECT_DEATH(AliasSampler({0.0, 0.0}), "LDPJS_CHECK failed");
}

TEST(AliasSamplerDeathTest, NegativeWeightAborts) {
  EXPECT_DEATH(AliasSampler({1.0, -1.0}), "LDPJS_CHECK failed");
}

TEST(ZipfTest, DeterministicForSeed) {
  ZipfParams params;
  params.domain = 1000;
  params.rows = 5000;
  params.seed = 7;
  const Column a = GenerateZipf(params);
  const Column b = GenerateZipf(params);
  EXPECT_EQ(a.values(), b.values());

  // Pinned draws: a change to the alias table build must keep every key
  // (h <- Mix64(h ^ v) over the column, from 0).
  params.alpha = 1.5;
  params.rows = 100000;
  const Column pinned = GenerateZipf(params);
  uint64_t h = 0;
  for (const uint64_t v : pinned.values()) h = Mix64(h ^ v);
  EXPECT_EQ(h, 0x2d21c9a6056d1f3fULL);
}

TEST(ZipfTest, ValuesWithinDomain) {
  ZipfParams params;
  params.domain = 100;
  params.rows = 10000;
  const Column c = GenerateZipf(params);
  EXPECT_EQ(c.size(), params.rows);
  for (uint64_t v : c.values()) EXPECT_LT(v, params.domain);
}

TEST(ZipfTest, RankOneIsMostFrequent) {
  ZipfParams params;
  params.alpha = 1.5;
  params.domain = 1000;
  params.rows = 100000;
  const Column c = GenerateZipf(params);
  const auto freq = c.Frequencies();
  for (uint64_t d = 1; d < 20; ++d) {
    EXPECT_GE(freq[0], freq[d]) << "rank " << d + 1;
  }
}

TEST(ZipfTest, FrequencyRatioMatchesAlpha) {
  // f(rank 1)/f(rank 2) ≈ 2^alpha.
  ZipfParams params;
  params.alpha = 2.0;
  params.domain = 10000;
  params.rows = 400000;
  params.seed = 13;
  const Column c = GenerateZipf(params);
  const auto freq = c.Frequencies();
  const double ratio =
      static_cast<double>(freq[0]) / static_cast<double>(freq[1]);
  EXPECT_NEAR(ratio, 4.0, 0.35);
}

TEST(ZipfTest, HigherAlphaFewerDistinct) {
  ZipfParams low;
  low.alpha = 1.1;
  low.domain = 50000;
  low.rows = 100000;
  ZipfParams high = low;
  high.alpha = 2.5;
  EXPECT_GT(GenerateZipf(low).CountDistinct(),
            GenerateZipf(high).CountDistinct());
}

TEST(GaussianTest, MomentsMatchParameters) {
  GaussianParams params;
  params.mu = 5000;
  params.sigma = 300;
  params.domain = 10000;
  params.rows = 200000;
  const Column c = GenerateGaussian(params);
  double sum = 0;
  for (uint64_t v : c.values()) sum += static_cast<double>(v);
  const double mean = sum / static_cast<double>(c.size());
  EXPECT_NEAR(mean, params.mu, 5.0);
  double var = 0;
  for (uint64_t v : c.values()) {
    var += (static_cast<double>(v) - mean) * (static_cast<double>(v) - mean);
  }
  var /= static_cast<double>(c.size());
  EXPECT_NEAR(std::sqrt(var), params.sigma, 10.0);
}

TEST(GaussianTest, ClampsToDomain) {
  GaussianParams params;
  params.mu = 0;  // half the mass would fall below 0 without clamping
  params.sigma = 50;
  params.domain = 100;
  params.rows = 10000;
  const Column c = GenerateGaussian(params);
  for (uint64_t v : c.values()) EXPECT_LT(v, params.domain);
}

TEST(UniformTest, CoversDomainEvenly) {
  const Column c = GenerateUniform(10, 100000, 3);
  const auto freq = c.Frequencies();
  for (uint64_t d = 0; d < 10; ++d) {
    EXPECT_NEAR(static_cast<double>(freq[d]), 10000.0, 600.0);
  }
}

TEST(DatasetsTest, AllSpecsMatchTableTwo) {
  const auto specs = AllDatasetSpecs();
  ASSERT_EQ(specs.size(), 6u);
  EXPECT_EQ(GetDatasetSpec(DatasetId::kMovieLens).domain, 83'239u);
  EXPECT_EQ(GetDatasetSpec(DatasetId::kMovieLens).paper_rows, 67'664'324u);
  EXPECT_EQ(GetDatasetSpec(DatasetId::kTpcds).domain, 18'000u);
  EXPECT_EQ(GetDatasetSpec(DatasetId::kTwitter).domain, 77'072u);
  EXPECT_EQ(GetDatasetSpec(DatasetId::kFacebook).domain, 4'039u);
  EXPECT_EQ(GetDatasetSpec(DatasetId::kGaussian).domain, 80'000u);
}

TEST(DatasetsTest, WorkloadHasTwoIndependentTables) {
  const JoinWorkload w = MakeWorkload(DatasetId::kFacebook, 20000, 5);
  EXPECT_EQ(w.table_a.size(), 20000u);
  EXPECT_EQ(w.table_b.size(), 20000u);
  EXPECT_EQ(w.table_a.domain(), w.table_b.domain());
  EXPECT_NE(w.table_a.values(), w.table_b.values());
}

TEST(DatasetsTest, WorkloadDeterministicInSeed) {
  const JoinWorkload w1 = MakeWorkload(DatasetId::kTpcds, 5000, 9);
  const JoinWorkload w2 = MakeWorkload(DatasetId::kTpcds, 5000, 9);
  const JoinWorkload w3 = MakeWorkload(DatasetId::kTpcds, 5000, 10);
  EXPECT_EQ(w1.table_a.values(), w2.table_a.values());
  EXPECT_NE(w1.table_a.values(), w3.table_a.values());
}

TEST(DatasetsTest, ZipfWorkloadUsesRequestedSkew) {
  const JoinWorkload heavy = MakeZipfWorkload(2.0, 10000, 50000, 3);
  const JoinWorkload light = MakeZipfWorkload(1.1, 10000, 50000, 3);
  EXPECT_LT(heavy.table_a.CountDistinct(), light.table_a.CountDistinct());
}

// Property sweep: every dataset generator respects its spec's domain.
class DatasetParamTest : public ::testing::TestWithParam<DatasetId> {};

TEST_P(DatasetParamTest, ValuesStayInSpecDomain) {
  const DatasetSpec spec = GetDatasetSpec(GetParam());
  const JoinWorkload w = MakeWorkload(GetParam(), 10000, 1);
  EXPECT_EQ(w.table_a.domain(), spec.domain);
  for (uint64_t v : w.table_a.values()) EXPECT_LT(v, spec.domain);
}

INSTANTIATE_TEST_SUITE_P(AllDatasets, DatasetParamTest,
                         ::testing::Values(DatasetId::kZipf,
                                           DatasetId::kGaussian,
                                           DatasetId::kMovieLens,
                                           DatasetId::kTpcds,
                                           DatasetId::kTwitter,
                                           DatasetId::kFacebook));

}  // namespace
}  // namespace ldpjs
