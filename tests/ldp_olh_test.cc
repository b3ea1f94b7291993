#include "ldp/olh.h"

#include <cmath>

#include <gtest/gtest.h>

#include "data/datasets.h"

namespace ldpjs {
namespace {

TEST(FlhTest, DefaultGIsOlhOptimal) {
  // The figures sweep ε ≤ 10, where kMaxFlhG leaves g unchanged.
  for (const double epsilon : {3.0, 4.0, 10.0}) {
    FlhParams params;
    params.epsilon = epsilon;
    FlhClient client(params);
    EXPECT_EQ(client.g(),
              static_cast<uint32_t>(std::round(std::exp(epsilon) + 1.0)))
        << epsilon;
  }
}

TEST(FlhTest, HugeEpsilonClampsG) {
  // The OLH-optimal g at ε = 20 is ≈ 4.85e8: pool_size · g counters would
  // not fit in memory.
  FlhParams params;
  params.epsilon = 20.0;
  params.pool_size = 16;
  EXPECT_EQ(FlhClient(params).g(), kMaxFlhG);
  const Column c(std::vector<uint64_t>(5000, 1), 100);
  const auto est = FlhEstimateFrequencies(c, params, 7);
  for (const double f : est) ASSERT_TRUE(std::isfinite(f));
  EXPECT_NEAR(est[1] / 5000.0, 1.0, 0.05);
  params.g = 1u << 20;
  EXPECT_EQ(FlhClient(params).g(), kMaxFlhG);
}

TEST(FlhTest, SmallEpsilonClampsGToTwo) {
  FlhParams params;
  params.epsilon = 0.1;
  FlhClient client(params);
  EXPECT_EQ(client.g(), 2u);
}

TEST(FlhTest, ExplicitGRespected) {
  FlhParams params;
  params.epsilon = 1.0;
  params.g = 16;
  FlhClient client(params);
  EXPECT_EQ(client.g(), 16u);
}

TEST(FlhTest, ReportsInRange) {
  FlhParams params;
  params.epsilon = 2.0;
  params.pool_size = 32;
  FlhClient client(params);
  Xoshiro256 rng(1);
  for (int i = 0; i < 10000; ++i) {
    const FlhReport r = client.Perturb(static_cast<uint64_t>(i), rng);
    EXPECT_LT(r.hash_index, 32u);
    EXPECT_LT(r.value, client.g());
  }
}

TEST(FlhTest, ClientAndServerShareHashPool) {
  FlhParams params;
  params.epsilon = 2.0;
  params.pool_size = 8;
  params.seed = 77;
  FlhClient c1(params), c2(params);
  for (uint32_t i = 0; i < 8; ++i) {
    for (uint64_t v = 0; v < 100; ++v) {
      EXPECT_EQ(c1.HashValue(i, v), c2.HashValue(i, v));
    }
  }
}

TEST(FlhTest, FrequencyCalibrationTracksHeavyItems) {
  FlhParams params;
  params.epsilon = 4.0;
  params.pool_size = 64;
  params.seed = 5;
  const uint64_t domain = 200;
  const JoinWorkload w = MakeZipfWorkload(1.5, domain, 150000, 9);
  const auto est = FlhEstimateFrequencies(w.table_a, params, 31);
  const auto freq = w.table_a.Frequencies();
  for (uint64_t d = 0; d < 3; ++d) {
    EXPECT_NEAR(est[d] / static_cast<double>(freq[d]), 1.0, 0.15) << "d=" << d;
  }
}

TEST(FlhTest, AbsentValueEstimatesNearZero) {
  FlhParams params;
  params.epsilon = 4.0;
  params.pool_size = 64;
  const Column c(std::vector<uint64_t>(50000, 1), 1000);
  const auto est = FlhEstimateFrequencies(c, params, 7);
  EXPECT_NEAR(est[999] / 50000.0, 0.0, 0.05);
  EXPECT_NEAR(est[1] / 50000.0, 1.0, 0.05);
}

TEST(FlhTest, LdpRatioBoundClosedForm) {
  // GRR over g outputs: max ratio = e^eps by construction.
  FlhParams params;
  params.epsilon = 2.5;
  FlhClient client(params);
  const double g = client.g();
  const double e = std::exp(params.epsilon);
  const double p = e / (e + g - 1.0);
  const double q = (1.0 - p) / (g - 1.0);
  EXPECT_LE(p / q, e * (1.0 + 1e-9));
}

TEST(FlhServerTest, TotalReportsCounted) {
  FlhParams params;
  params.epsilon = 1.0;
  params.pool_size = 4;
  FlhClient client(params);
  FlhServer server(params);
  Xoshiro256 rng(3);
  for (int i = 0; i < 100; ++i) server.Absorb(client.Perturb(5, rng));
  EXPECT_EQ(server.total_reports(), 100u);
}

TEST(FlhDeathTest, InvalidGAborts) {
  FlhParams params;
  params.epsilon = 1.0;
  params.g = 1;
  EXPECT_DEATH(FlhClient{params}, "LDPJS_CHECK failed");
}

TEST(FlhDeathTest, EpsilonPastTheBoundAborts) {
  FlhParams params;
  params.epsilon = 800.0;
  params.pool_size = 4;
  EXPECT_DEATH(FlhClient{params}, "LDPJS_CHECK failed");
  EXPECT_DEATH(FlhServer{params}, "LDPJS_CHECK failed");
}

}  // namespace
}  // namespace ldpjs
