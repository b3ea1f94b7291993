#include "core/fap.h"

#include <cmath>
#include <unordered_set>

#include <gtest/gtest.h>

#include "common/hadamard.h"
#include "core/simulation.h"
#include "data/column.h"

namespace ldpjs {
namespace {

SketchParams TestParams(int k = 8, int m = 128) {
  SketchParams params;
  params.k = k;
  params.m = m;
  params.seed = 33;
  return params;
}

TEST(FapTest, TargetClassificationFollowsMode) {
  const std::unordered_set<uint64_t> fi{1, 2, 3};
  FapClient high(TestParams(), 2.0, FapMode::kHigh, fi);
  FapClient low(TestParams(), 2.0, FapMode::kLow, fi);
  EXPECT_TRUE(high.IsTarget(1));
  EXPECT_FALSE(high.IsTarget(9));
  EXPECT_FALSE(low.IsTarget(1));
  EXPECT_TRUE(low.IsTarget(9));
}

TEST(FapTest, TargetPathMatchesLdpJoinSketchClient) {
  // Algorithm 4 line 10: target values must go through the exact
  // LDPJoinSketch client, bit for bit.
  const SketchParams params = TestParams();
  const std::unordered_set<uint64_t> fi{5, 6};
  FapClient fap(params, 2.0, FapMode::kHigh, fi);
  LdpJoinSketchClient plain(params, 2.0);
  for (uint64_t seed = 0; seed < 200; ++seed) {
    Xoshiro256 rng_fap(seed), rng_plain(seed);
    const LdpReport a = fap.Perturb(5, rng_fap);
    const LdpReport b = plain.Perturb(5, rng_plain);
    ASSERT_EQ(a.j, b.j);
    ASSERT_EQ(a.l, b.l);
    ASSERT_EQ(a.y, b.y);
  }
}

TEST(FapTest, NonTargetEncodingIgnoresValue) {
  // Non-target reports must be independent of the private value: same RNG
  // stream, different values → identical report.
  const std::unordered_set<uint64_t> fi{1};
  FapClient fap(TestParams(), 2.0, FapMode::kHigh, fi);  // non-FI = non-target
  for (uint64_t seed = 0; seed < 200; ++seed) {
    Xoshiro256 rng_a(seed), rng_b(seed);
    const LdpReport a = fap.Perturb(100 + seed, rng_a);
    const LdpReport b = fap.Perturb(5000 + seed, rng_b);
    ASSERT_EQ(a.j, b.j);
    ASSERT_EQ(a.l, b.l);
    ASSERT_EQ(a.y, b.y);
  }
}

TEST(FapTest, TheoremEightNonTargetMassSpreadsUniformly) {
  // A sketch built from only non-target reports has E[cell] = n/m after
  // finalize, independent of which values the users held. The per-cell
  // sampling noise has std c_eps * sqrt(n*k) (each report adds k*c_eps*y to
  // one raw coordinate, which the row transform spreads with +-1 signs), so
  // we check the global mean tightly and each cell within 5 sigma.
  const SketchParams params = TestParams(4, 64);
  const size_t n = 400000;
  std::vector<uint64_t> values(n);
  for (size_t i = 0; i < n; ++i) values[i] = i % 7;  // all in FI
  Column column(std::move(values), 10);
  const std::unordered_set<uint64_t> fi{0, 1, 2, 3, 4, 5, 6};
  SimulationOptions sim;
  sim.run_seed = 3;
  // mode kLow → FI values are non-target.
  const double eps = 2.0;
  const LdpJoinSketchServer server =
      BuildFapSketch(column, params, eps, FapMode::kLow, fi, sim);
  const double expected = static_cast<double>(n) / params.m;
  const double sigma =
      DebiasFactor(eps) * std::sqrt(static_cast<double>(n) * params.k);
  double mean = 0.0;
  for (int j = 0; j < params.k; ++j) {
    for (int x = 0; x < params.m; ++x) {
      mean += server.cell(j, x);
      EXPECT_NEAR(server.cell(j, x), expected, 5.0 * sigma)
          << "cell (" << j << "," << x << ")";
    }
  }
  mean /= static_cast<double>(params.k) * static_cast<double>(params.m);
  EXPECT_NEAR(mean / expected, 1.0, 0.05);
}

TEST(FapTest, SubtractingNonTargetMassRecoversTargets) {
  // Mixed population: targets (non-FI) plus non-targets (FI). After
  // removing |NT|/m per cell, the frequency estimate of a target value must
  // match its true count.
  const SketchParams params = TestParams(8, 256);
  const size_t n_target = 120000, n_nontarget = 200000;
  std::vector<uint64_t> values;
  values.reserve(n_target + n_nontarget);
  for (size_t i = 0; i < n_target; ++i) values.push_back(50);  // target
  for (size_t i = 0; i < n_nontarget; ++i) values.push_back(1);  // in FI
  Column column(std::move(values), 100);
  const std::unordered_set<uint64_t> fi{1};
  SimulationOptions sim;
  sim.run_seed = 5;
  const LdpJoinSketchServer server =
      BuildFapSketch(column, params, 2.0, FapMode::kLow, fi, sim);
  // Theorem 7's f̂ over cells lowered by |NT|/m each.
  const double shift =
      static_cast<double>(n_nontarget) / static_cast<double>(params.m);
  const auto shifted_estimate = [&](uint64_t d) {
    double acc = 0.0;
    for (int j = 0; j < params.k; ++j) {
      const RowHashes& row = server.row_hashes()[static_cast<size_t>(j)];
      acc += (server.cell(j, static_cast<int>(row.bucket(d))) - shift) *
             row.sign(d);
    }
    return acc / static_cast<double>(params.k);
  };
  EXPECT_NEAR(shifted_estimate(50) / static_cast<double>(n_target), 1.0, 0.1);
  // The non-target value's own frequency is gone (its reports carried no
  // information about it).
  EXPECT_NEAR(shifted_estimate(1) / static_cast<double>(n_nontarget), 0.0,
              0.1);
}

TEST(FapTest, SatisfiesEpsilonLdpAcrossTargetAndNonTarget) {
  // Theorem 6: outputs of a target and a non-target value must be
  // indistinguishable beyond e^ε. Both paths emit y = ±(possibly flipped)
  // deterministic sign, so for any (y, j, l) the ratio is at most
  // p/(1-p) = e^ε. Verify empirically over the full output space.
  const double eps = 1.0;
  const SketchParams params = TestParams(2, 8);
  const std::unordered_set<uint64_t> fi{1};
  FapClient fap(params, eps, FapMode::kHigh, fi);
  const uint64_t target = 1, non_target = 7;
  // Count empirical output distribution over (y, j, l).
  auto histogram = [&](uint64_t value) {
    std::vector<double> hist(2 * 2 * 8, 0.0);
    const int n = 400000;
    Xoshiro256 rng(11);
    for (int i = 0; i < n; ++i) {
      const LdpReport r = fap.Perturb(value, rng);
      const size_t idx = (static_cast<size_t>(r.y > 0) * 2 + r.j) * 8 + r.l;
      hist[idx] += 1.0 / n;
    }
    return hist;
  };
  const auto h_target = histogram(target);
  const auto h_non = histogram(non_target);
  for (size_t i = 0; i < h_target.size(); ++i) {
    if (h_target[i] < 1e-4 || h_non[i] < 1e-4) continue;
    const double ratio = h_target[i] / h_non[i];
    EXPECT_LE(ratio, std::exp(eps) * 1.15) << "output " << i;
    EXPECT_GE(ratio, std::exp(-eps) / 1.15) << "output " << i;
  }
}

TEST(FapTest, EmptyFrequentItemsMakesEverythingTargetInLowMode) {
  FapClient low(TestParams(), 2.0, FapMode::kLow, {});
  FapClient high(TestParams(), 2.0, FapMode::kHigh, {});
  EXPECT_TRUE(low.IsTarget(42));
  EXPECT_FALSE(high.IsTarget(42));
}

TEST(FapDeathTest, EpsilonPastTheBoundAborts) {
  EXPECT_DEATH(FapClient(TestParams(), 800.0, FapMode::kLow, FrequentItems{1}),
               "LDPJS_CHECK failed");
}

}  // namespace
}  // namespace ldpjs
