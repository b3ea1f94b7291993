// Parameterized sweep over (mechanism × ε): every LDP frequency oracle in
// the library must produce calibrated estimates whose error on a planted
// heavy item shrinks as ε grows, and whose domain-summed mass stays near
// the report count. One harness, four mechanisms, three budgets.
#include <cmath>
#include <functional>
#include <string>

#include <gtest/gtest.h>

#include "core/simulation.h"
#include "data/datasets.h"
#include "ldp/hcms.h"
#include "ldp/krr.h"
#include "ldp/olh.h"

namespace ldpjs {
namespace {

using OracleFn = std::function<std::vector<double>(const Column&, double,
                                                   uint64_t)>;

struct OracleCase {
  std::string name;
  OracleFn estimate_all;
  double tolerance_scale;  // mechanisms differ in constant factors
};

std::vector<OracleCase> AllOracles() {
  return {
      {"krr",
       [](const Column& c, double eps, uint64_t seed) {
         return KrrEstimateFrequencies(c, eps, seed);
       },
       4.0},
      {"flh",
       [](const Column& c, double eps, uint64_t seed) {
         FlhParams params;
         params.epsilon = eps;
         params.pool_size = 64;
         params.seed = 11;
         return FlhEstimateFrequencies(c, params, seed);
       },
       2.0},
      {"hcms",
       [](const Column& c, double eps, uint64_t seed) {
         HcmsParams params;
         params.epsilon = eps;
         params.k = 16;
         params.m = 512;
         params.seed = 13;
         return HcmsEstimateFrequencies(c, params, seed);
       },
       2.0},
      {"ldpjoinsketch",
       [](const Column& c, double eps, uint64_t seed) {
         SketchParams params;
         params.k = 16;
         params.m = 512;
         params.seed = 17;
         SimulationOptions sim;
         sim.run_seed = seed;
         return BuildLdpJoinSketch(c, params, eps, sim)
             .EstimateAllFrequencies(c.domain());
       },
       2.0},
  };
}

class OracleSweepTest
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(OracleSweepTest, HeavyItemCalibratedAndMassConserved) {
  const auto [oracle_index, eps] = GetParam();
  const OracleCase oracle = AllOracles()[static_cast<size_t>(oracle_index)];
  // Planted workload: value 3 holds 40% of a 60k-row column over a small
  // domain (every oracle here is exercised in its comfortable regime).
  const uint64_t domain = 64;
  std::vector<uint64_t> values;
  values.reserve(60000);
  for (size_t i = 0; i < 24000; ++i) values.push_back(3);
  for (size_t i = 0; i < 36000; ++i) values.push_back(4 + i % 60);
  Column column(std::move(values), domain);

  const auto est = oracle.estimate_all(column, eps, 29);
  ASSERT_EQ(est.size(), domain);

  // Heavy item within a mechanism-scaled tolerance that shrinks with eps.
  const double noise_scale =
      oracle.tolerance_scale * std::sqrt(60000.0) *
      (std::exp(eps) + 1.0) / (std::exp(eps) - 1.0);
  EXPECT_NEAR(est[3], 24000.0, 6.0 * noise_scale + 0.05 * 24000.0)
      << oracle.name << " eps=" << eps;

  // Total estimated mass stays near n for the calibrated oracles. The
  // tolerance widens with the debias factor c_ε (domain-summed sketch noise
  // scales with it) while still catching any constant-factor calibration
  // bug.
  double total = 0;
  for (double f : est) total += f;
  const double c_eps = (std::exp(eps) + 1.0) / (std::exp(eps) - 1.0);
  EXPECT_NEAR(total / 60000.0, 1.0, 0.2 + 0.12 * c_eps)
      << oracle.name << " eps=" << eps;
}

TEST_P(OracleSweepTest, AbsentValueCentersOnZero) {
  const auto [oracle_index, eps] = GetParam();
  const OracleCase oracle = AllOracles()[static_cast<size_t>(oracle_index)];
  const uint64_t domain = 64;
  Column column(std::vector<uint64_t>(50000, 1), domain);
  const auto est = oracle.estimate_all(column, eps, 31);
  const double noise_scale =
      oracle.tolerance_scale * std::sqrt(50000.0) *
      (std::exp(eps) + 1.0) / (std::exp(eps) - 1.0);
  EXPECT_NEAR(est[50], 0.0, 6.0 * noise_scale + 2500.0)
      << oracle.name << " eps=" << eps;
}

std::string SweepCaseName(
    const ::testing::TestParamInfo<std::tuple<int, double>>& info) {
  const auto [index, eps] = info.param;
  const std::string eps_tag = std::to_string(static_cast<int>(eps * 10));
  return AllOracles()[static_cast<size_t>(index)].name + "_eps" + eps_tag;
}

INSTANTIATE_TEST_SUITE_P(
    MechanismsByEpsilon, OracleSweepTest,
    ::testing::Combine(::testing::Values(0, 1, 2, 3),
                       ::testing::Values(0.5, 2.0, 6.0)),
    SweepCaseName);

}  // namespace
}  // namespace ldpjs
