#include "ldp/krr.h"

#include <cmath>

#include <gtest/gtest.h>

#include "data/datasets.h"
#include "data/join.h"
#include "ldp/frequency_oracle.h"

namespace ldpjs {
namespace {

TEST(KrrClientTest, KeepProbabilityMatchesFormula) {
  const double eps = 2.0;
  const uint64_t domain = 100;
  KrrClient client(domain, eps);
  const double expected =
      std::exp(eps) / (std::exp(eps) + static_cast<double>(domain) - 1.0);
  EXPECT_NEAR(client.keep_probability(), expected, 1e-12);
}

TEST(KrrClientTest, OutputAlwaysInDomain) {
  KrrClient client(10, 0.5);
  Xoshiro256 rng(1);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(client.Perturb(3, rng), 10u);
  }
}

TEST(KrrClientTest, EmpiricalKeepRateMatches) {
  const double eps = 1.0;
  KrrClient client(20, eps);
  Xoshiro256 rng(2);
  int kept = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) kept += (client.Perturb(7, rng) == 7) ? 1 : 0;
  // The non-keep branch excludes the true value, so the report equals the
  // input exactly with the keep probability p = e^eps/(e^eps + |D| - 1).
  EXPECT_NEAR(static_cast<double>(kept) / n, client.keep_probability(), 0.01);
}

TEST(KrrClientTest, OtherValuesUniform) {
  // Conditional on not keeping, every other value is equally likely.
  KrrClient client(5, 0.5);
  Xoshiro256 rng(6);
  std::vector<int> counts(5, 0);
  const int n = 200000;
  for (int i = 0; i < n; ++i) ++counts[client.Perturb(0, rng)];
  for (uint64_t d = 1; d < 5; ++d) {
    EXPECT_NEAR(static_cast<double>(counts[d]) / counts[1], 1.0, 0.05)
        << "d=" << d;
  }
}

TEST(KrrClientTest, SatisfiesLdpRatioBound) {
  // Closed form: max over outputs y of Pr[y|x]/Pr[y|x'] is p/q = e^eps.
  const double eps = 1.5;
  const uint64_t domain = 8;
  KrrClient client(domain, eps);
  const double p = client.keep_probability();
  const double q = (1.0 - p) / (static_cast<double>(domain) - 1.0);
  EXPECT_NEAR(p / q, std::exp(eps), 1e-9);
}

TEST(KrrServerTest, CalibrationIsUnbiased) {
  const double eps = 2.0;
  const uint64_t domain = 50;
  const JoinWorkload w = MakeZipfWorkload(1.5, domain, 200000, 3);
  KrrClient client(domain, eps);
  KrrServer server(domain, eps);
  Xoshiro256 rng(4);
  for (uint64_t v : w.table_a.values()) server.Absorb(client.Perturb(v, rng));
  const auto freq = w.table_a.Frequencies();
  // Heavy items calibrate within a few percent at this n.
  for (uint64_t d = 0; d < 3; ++d) {
    EXPECT_NEAR(server.EstimateFrequency(d) / static_cast<double>(freq[d]),
                1.0, 0.1)
        << "d=" << d;
  }
}

TEST(KrrServerTest, AllFrequenciesSumToTotal) {
  // Σ_d f̂(d) = n exactly: calibration is a linear bijection on histograms.
  const uint64_t domain = 30;
  KrrServer server(domain, 1.0);
  KrrClient client(domain, 1.0);
  Xoshiro256 rng(5);
  for (int i = 0; i < 5000; ++i) {
    server.Absorb(client.Perturb(static_cast<uint64_t>(i) % domain, rng));
  }
  const auto freqs = server.EstimateAllFrequencies();
  double sum = 0;
  for (double f : freqs) sum += f;
  EXPECT_NEAR(sum, 5000.0, 1e-6);
}

TEST(KrrEndToEndTest, JoinEstimateOnSmallDomain) {
  const uint64_t domain = 40;
  const JoinWorkload w = MakeZipfWorkload(1.5, domain, 100000, 7);
  const double truth = ExactJoinSize(w.table_a, w.table_b);
  const auto fa = KrrEstimateFrequencies(w.table_a, 4.0, 11);
  const auto fb = KrrEstimateFrequencies(w.table_b, 4.0, 12);
  const double est = JoinSizeFromFrequencies(fa, fb);
  EXPECT_NEAR(est / truth, 1.0, 0.1);
}

TEST(KrrDeathTest, DomainOfOneAborts) {
  EXPECT_DEATH(KrrClient(1, 1.0), "LDPJS_CHECK failed");
}

TEST(KrrDeathTest, NonPositiveEpsilonAborts) {
  EXPECT_DEATH(KrrClient(10, 0.0), "LDPJS_CHECK failed");
}

TEST(KrrDeathTest, EpsilonPastTheBoundAborts) {
  // Past ε ≈ 709.78 e^ε overflows and every estimate is NaN.
  EXPECT_DEATH(KrrClient(10, 800.0), "LDPJS_CHECK failed");
  EXPECT_DEATH(KrrServer(10, 800.0), "LDPJS_CHECK failed");
}

TEST(CommCostTest, ModelsAreMonotone) {
  EXPECT_EQ(CommCostModel::KrrBitsPerUser(1024), 10.0);
  EXPECT_GT(CommCostModel::KrrBitsPerUser(1 << 20),
            CommCostModel::KrrBitsPerUser(1 << 10));
  // Sketch reports: 1 sign bit + log2(k) + log2(m).
  EXPECT_EQ(CommCostModel::HadamardSketchBitsPerUser(16, 1024), 1 + 4 + 10);
  EXPECT_EQ(CommCostModel::FlhBitsPerUser(1024, 64), 10 + 6);
}

TEST(JoinFromFrequenciesTest, KeepsNegativeEstimates) {
  std::vector<double> fa{-5.0, 2.0};
  std::vector<double> fb{3.0, 4.0};
  EXPECT_EQ(JoinSizeFromFrequencies(fa, fb), -15.0 + 8.0);
}

}  // namespace
}  // namespace ldpjs
