#include "core/ldp_join_sketch_plus.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "core/freq_items.h"
#include "core/join_est.h"
#include "core/simulation.h"
#include "data/datasets.h"
#include "data/join.h"

namespace ldpjs {
namespace {

SketchParams TestParams(int k = 18, int m = 1024, uint64_t seed = 51) {
  SketchParams params;
  params.k = k;
  params.m = m;
  params.seed = seed;
  return params;
}

TEST(FreqItemsTest, FindsPlantedHeavyHitters) {
  // Domain of 500; values 0,1,2 hold ~60% of the mass.
  const uint64_t domain = 500;
  const JoinWorkload w = MakeZipfWorkload(1.8, domain, 200000, 3);
  SimulationOptions sim;
  sim.run_seed = 7;
  const LdpJoinSketchServer sketch =
      BuildLdpJoinSketch(w.table_a, TestParams(), 4.0, sim);
  const auto fi = FindFrequentItems(sketch, domain,
                                    0.01 * static_cast<double>(w.table_a.size()));
  EXPECT_TRUE(fi.contains(0));
  EXPECT_TRUE(fi.contains(1));
  // The tail must stay out.
  size_t tail_hits = 0;
  for (uint64_t d = 100; d < domain; ++d) {
    tail_hits += fi.contains(d) ? size_t{1} : size_t{0};
  }
  EXPECT_LE(tail_hits, 5u);
}

TEST(FreqItemsTest, SingleSketchScanMatchesItsDefinition) {
  // Past the first scan block and off the 256-key run grid, so the last
  // run and the last block are both partial.
  const uint64_t domain = 70013;
  const SketchParams params = TestParams(6, 256);
  const JoinWorkload w = MakeZipfWorkload(1.1, domain, 200000, 61);
  SimulationOptions sim;
  sim.run_seed = 62;
  const LdpJoinSketchServer sketch =
      BuildLdpJoinSketch(w.table_a, params, 4.0, sim);
  const double theta = 0.002 * static_cast<double>(w.table_a.size());
  std::vector<uint64_t> expected;
  for (uint64_t d = 0; d < domain; ++d) {
    if (sketch.FrequencyEstimate(d) > theta) expected.push_back(d);
  }
  ASSERT_FALSE(expected.empty());
  EXPECT_GE(expected.back(), kFrequentScanBlock);
  const FrequentItems fi = FindFrequentItems(sketch, domain, theta);
  EXPECT_EQ(std::vector<uint64_t>(fi.begin(), fi.end()), expected);
}

TEST(FreqItemsTest, UnionCoversBothAttributes) {
  const uint64_t domain = 100;
  // Table A heavy at 0, table B heavy at 99.
  std::vector<uint64_t> va(50000, 0), vb(50000, 99);
  for (size_t i = 0; i < 20000; ++i) {
    va.push_back(i % domain);
    vb.push_back(i % domain);
  }
  Column a(std::move(va), domain), b(std::move(vb), domain);
  SimulationOptions sim;
  sim.run_seed = 9;
  const LdpJoinSketchServer sa = BuildLdpJoinSketch(a, TestParams(), 4.0, sim);
  sim.run_seed = 10;
  const LdpJoinSketchServer sb = BuildLdpJoinSketch(b, TestParams(), 4.0, sim);
  const auto fi = FindFrequentItemsUnion(
      sa, sb, domain, 0.1 * static_cast<double>(a.size()),
      0.1 * static_cast<double>(b.size()));
  EXPECT_TRUE(fi.items.contains(0));
  EXPECT_TRUE(fi.items.contains(99));
}

TEST(FreqItemsTest, MassEstimateTracksTruth) {
  const uint64_t domain = 200;
  const JoinWorkload w = MakeZipfWorkload(1.6, domain, 150000, 11);
  SimulationOptions sim;
  sim.run_seed = 13;
  const LdpJoinSketchServer sa =
      BuildLdpJoinSketch(w.table_a, TestParams(), 4.0, sim);
  sim.run_seed = 14;
  const LdpJoinSketchServer sb =
      BuildLdpJoinSketch(w.table_b, TestParams(), 4.0, sim);
  const FrequentItemsScan fi = FindFrequentItemsUnion(
      sa, sb, domain, 0.01 * static_cast<double>(w.table_a.size()),
      0.01 * static_cast<double>(w.table_b.size()));
  ASSERT_GT(fi.items.size(), 0u);
  const auto freq_a = w.table_a.Frequencies();
  const auto freq_b = w.table_b.Frequencies();
  double truth_a = 0;
  double truth_b = 0;
  for (const uint64_t d : fi.items) {
    truth_a += static_cast<double>(freq_a[d]);
    truth_b += static_cast<double>(freq_b[d]);
  }
  EXPECT_NEAR(fi.mass_a / truth_a, 1.0, 0.1);
  EXPECT_NEAR(fi.mass_b / truth_b, 1.0, 0.1);
}

TEST(FreqItemsTest, UnionScanMatchesItsDefinition) {
  // A domain that crosses the first scan-block boundary.
  const uint64_t domain = 70000;
  static_assert(70000 > kFrequentScanBlock);
  const SketchParams params = TestParams(6, 256);
  const JoinWorkload w = MakeZipfWorkload(1.1, domain, 200000, 61);
  SimulationOptions sim;
  sim.run_seed = 62;
  const LdpJoinSketchServer sa =
      BuildLdpJoinSketch(w.table_a, params, 4.0, sim);
  sim.run_seed = 63;
  const LdpJoinSketchServer sb =
      BuildLdpJoinSketch(w.table_b, params, 4.0, sim);
  const double theta_a = 0.002 * static_cast<double>(w.table_a.size());
  const double theta_b = 0.003 * static_cast<double>(w.table_b.size());
  const FrequentItemsScan scan =
      FindFrequentItemsUnion(sa, sb, domain, theta_a, theta_b);

  // FI = {d : f̂_A(d) > θ_A || f̂_B(d) > θ_B}; each mass sums max(0, f̂)
  // over FI in ascending order within a block, blocks added in order.
  std::vector<uint64_t> expected;
  double mass_a = 0.0;
  double mass_b = 0.0;
  for (uint64_t first = 0; first < domain; first += kFrequentScanBlock) {
    double block_a = 0.0;
    double block_b = 0.0;
    for (uint64_t d = first; d < std::min(domain, first + kFrequentScanBlock);
         ++d) {
      const double f_a = sa.FrequencyEstimate(d);
      const double f_b = sb.FrequencyEstimate(d);
      if (f_a > theta_a || f_b > theta_b) {
        expected.push_back(d);
        block_a += std::max(0.0, f_a);
        block_b += std::max(0.0, f_b);
      }
    }
    mass_a += block_a;
    mass_b += block_b;
  }
  // Both blocks hold members, or the boundary goes untested.
  ASSERT_FALSE(expected.empty());
  EXPECT_LT(expected.front(), kFrequentScanBlock);
  EXPECT_GE(expected.back(), kFrequentScanBlock);
  EXPECT_EQ(std::vector<uint64_t>(scan.items.begin(), scan.items.end()),
            expected);
  EXPECT_EQ(scan.items.size(), expected.size());
  EXPECT_FALSE(scan.items.contains(domain));
  EXPECT_EQ(scan.mass_a, mass_a);
  EXPECT_EQ(scan.mass_b, mass_b);

  // FrequentItems edges: word boundaries, keys at or past the domain,
  // duplicates, and both implicit conversions.
  const FrequentItems listed = {65, 63, 64, 63};
  EXPECT_EQ(listed.size(), 3u);
  EXPECT_FALSE(listed.contains(62));
  EXPECT_TRUE(listed.contains(63));
  EXPECT_TRUE(listed.contains(64));
  EXPECT_TRUE(listed.contains(65));
  EXPECT_FALSE(listed.contains(66));
  EXPECT_FALSE(listed.contains(128));
  EXPECT_FALSE(listed.contains(UINT64_MAX));
  EXPECT_EQ(std::vector<uint64_t>(listed.begin(), listed.end()),
            (std::vector<uint64_t>{63, 64, 65}));

  const std::unordered_set<uint64_t> hashed{200, 3, 64, 127, 128};
  const FrequentItems converted = hashed;
  EXPECT_EQ(converted.size(), hashed.size());
  for (uint64_t d = 0; d < 300; ++d) {
    EXPECT_EQ(converted.contains(d), hashed.contains(d)) << d;
  }
  EXPECT_EQ(std::vector<uint64_t>(converted.begin(), converted.end()),
            (std::vector<uint64_t>{3, 64, 127, 128, 200}));

  const FrequentItems none = {};
  EXPECT_EQ(none.size(), 0u);
  EXPECT_TRUE(none.begin() == none.end());
  EXPECT_FALSE(none.contains(0));
}

TEST(JoinEstTest, LowModeRemovesHighFrequencyMass) {
  // Build FAP low-sketches over a mixture and verify the estimate matches
  // the low-frequency join only.
  const SketchParams params = TestParams(12, 512);
  const uint64_t domain = 1000;
  const size_t n_low = 100000, n_high = 150000;
  auto make_column = [&](uint64_t low_value) {
    std::vector<uint64_t> values;
    values.reserve(n_low + n_high);
    for (size_t i = 0; i < n_low; ++i) values.push_back(low_value);
    for (size_t i = 0; i < n_high; ++i) values.push_back(7);  // shared heavy
    return Column(std::move(values), domain);
  };
  // Both tables share the same low value 123 → low join = n_low^2.
  Column a = make_column(123), b = make_column(123);
  const std::unordered_set<uint64_t> fi{7};
  SimulationOptions sim;
  sim.run_seed = 17;
  const LdpJoinSketchServer mla =
      BuildFapSketch(a, params, 4.0, FapMode::kLow, fi, sim);
  sim.run_seed = 18;
  const LdpJoinSketchServer mlb =
      BuildFapSketch(b, params, 4.0, FapMode::kLow, fi, sim);

  JoinEstSide side_a{&mla, static_cast<double>(n_high),
                     static_cast<double>(a.size()),
                     static_cast<double>(a.size())};
  JoinEstSide side_b{&mlb, static_cast<double>(n_high),
                     static_cast<double>(b.size()),
                     static_cast<double>(b.size())};
  const double est = JoinEst(side_a, side_b, FapMode::kLow);
  const double truth = static_cast<double>(n_low) * static_cast<double>(n_low);
  EXPECT_NEAR(est / truth, 1.0, 0.2);
}

TEST(JoinEstTest, HighModeRemovesLowFrequencyMass) {
  const SketchParams params = TestParams(12, 512);
  const uint64_t domain = 1000;
  const size_t n_low = 150000, n_high = 100000;
  auto make_column = [&] {
    std::vector<uint64_t> values;
    values.reserve(n_low + n_high);
    for (size_t i = 0; i < n_low; ++i) values.push_back(200 + i % 300);
    for (size_t i = 0; i < n_high; ++i) values.push_back(7);
    return Column(std::move(values), domain);
  };
  Column a = make_column(), b = make_column();
  const std::unordered_set<uint64_t> fi{7};
  SimulationOptions sim;
  sim.run_seed = 21;
  const LdpJoinSketchServer mha =
      BuildFapSketch(a, params, 4.0, FapMode::kHigh, fi, sim);
  sim.run_seed = 22;
  const LdpJoinSketchServer mhb =
      BuildFapSketch(b, params, 4.0, FapMode::kHigh, fi, sim);

  JoinEstSide side_a{&mha, static_cast<double>(n_high),
                     static_cast<double>(a.size()),
                     static_cast<double>(a.size())};
  JoinEstSide side_b{&mhb, static_cast<double>(n_high),
                     static_cast<double>(b.size()),
                     static_cast<double>(b.size())};
  const double est = JoinEst(side_a, side_b, FapMode::kHigh);
  const double truth =
      static_cast<double>(n_high) * static_cast<double>(n_high);
  EXPECT_NEAR(est / truth, 1.0, 0.2);
}

TEST(JoinEstTest, ZeroNonTargetMassReducesToPlainJoinEstimate) {
  // mode = kLow with zero FI mass: nothing to subtract, so JoinEst must
  // equal the plain sketch product exactly.
  const SketchParams params = TestParams(6, 256);
  const JoinWorkload w = MakeZipfWorkload(1.4, 300, 30000, 19);
  SimulationOptions sim;
  sim.run_seed = 71;
  const LdpJoinSketchServer sa =
      BuildFapSketch(w.table_a, params, 4.0, FapMode::kLow, {}, sim);
  sim.run_seed = 72;
  const LdpJoinSketchServer sb =
      BuildFapSketch(w.table_b, params, 4.0, FapMode::kLow, {}, sim);
  JoinEstSide side_a{&sa, 0.0, static_cast<double>(w.table_a.size()),
                     static_cast<double>(w.table_a.size())};
  JoinEstSide side_b{&sb, 0.0, static_cast<double>(w.table_b.size()),
                     static_cast<double>(w.table_b.size())};
  EXPECT_EQ(JoinEst(side_a, side_b, FapMode::kLow), sa.JoinEstimate(sb));
}

TEST(JoinEstTest, GroupScaledSubtractionDiffersFromPaperLiteral) {
  const SketchParams params = TestParams(6, 256);
  Column a(std::vector<uint64_t>(50000, 3), 100);
  const std::unordered_set<uint64_t> fi{3};
  SimulationOptions sim;
  sim.run_seed = 23;
  const LdpJoinSketchServer sketch =
      BuildFapSketch(a, params, 4.0, FapMode::kLow, fi, sim);
  // Group is half the table → group-scaled subtraction removes half the
  // mass of the literal variant.
  JoinEstSide side{&sketch, 50000.0, 100000.0, 50000.0};
  JoinEstOptions literal;
  literal.paper_literal_subtraction = true;
  const double est_scaled = JoinEst(side, side, FapMode::kLow);
  const double est_literal = JoinEst(side, side, FapMode::kLow, literal);
  EXPECT_NE(est_scaled, est_literal);
}

TEST(LdpJoinSketchPlusTest, EndToEndOnSkewedData) {
  const uint64_t domain = 3000;
  const JoinWorkload w = MakeZipfWorkload(1.5, domain, 400000, 29);
  const double truth = ExactJoinSize(w.table_a, w.table_b);
  LdpJoinSketchPlusParams params;
  params.sketch = TestParams();
  params.epsilon = 4.0;
  params.sample_rate = 0.2;
  params.threshold = 0.005;
  params.simulation.run_seed = 31;
  const LdpJoinSketchPlusResult result =
      EstimateJoinSizePlus(w.table_a, w.table_b, params);
  EXPECT_NEAR(result.estimate / truth, 1.0, 0.3);
  EXPECT_GT(result.frequent_item_count, 0u);
  // Partition accounting: sample + group1 + group2 = table.
  EXPECT_EQ(result.sample_rows_a + result.group_rows_a[0] +
                result.group_rows_a[1],
            w.table_a.size());
  EXPECT_EQ(result.sample_rows_b + result.group_rows_b[0] +
                result.group_rows_b[1],
            w.table_b.size());
  // Sample is ~r of the table.
  EXPECT_NEAR(static_cast<double>(result.sample_rows_a) /
                  static_cast<double>(w.table_a.size()),
              params.sample_rate, 0.02);
  // Estimate decomposes into the two scaled parts.
  EXPECT_NEAR(result.estimate, result.low_estimate + result.high_estimate,
              1e-6);
}

TEST(LdpJoinSketchPlusTest, DeterministicForFixedSeedAndThreads) {
  const JoinWorkload w = MakeZipfWorkload(1.5, 500, 100000, 37);
  LdpJoinSketchPlusParams params;
  params.sketch = TestParams(12, 512);
  params.epsilon = 4.0;
  params.simulation.run_seed = 41;
  params.simulation.num_threads = 1;
  const auto r1 = EstimateJoinSizePlus(w.table_a, w.table_b, params);
  for (const size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
    SCOPED_TRACE(threads);
    params.simulation.num_threads = threads;
    const auto r2 = EstimateJoinSizePlus(w.table_a, w.table_b, params);
    EXPECT_EQ(r1.estimate, r2.estimate);
    EXPECT_EQ(r1.low_estimate, r2.low_estimate);
    EXPECT_EQ(r1.high_estimate, r2.high_estimate);
    EXPECT_EQ(r1.frequent_item_count, r2.frequent_item_count);
    EXPECT_EQ(r1.high_freq_mass_a, r2.high_freq_mass_a);
    EXPECT_EQ(r1.high_freq_mass_b, r2.high_freq_mass_b);
    EXPECT_EQ(r1.sample_rows_a, r2.sample_rows_a);
    EXPECT_EQ(r1.sample_rows_b, r2.sample_rows_b);
    for (int g = 0; g < 2; ++g) {
      EXPECT_EQ(r1.group_rows_a[g], r2.group_rows_a[g]);
      EXPECT_EQ(r1.group_rows_b[g], r2.group_rows_b[g]);
    }
  }
}

// Every result field but the two timings, pinned to the values the
// estimator gave before phase 1 evaluated f̂ a run of keys at a time, with
// the three estimates as JoinEst's lane-domain closed form gives them
// (within 7e-15 relative of the cells-domain values). The domain, 300001
// keys, is a multiple of neither the 256-key run nor the 2^16-key scan
// block.
TEST(LdpJoinSketchPlusTest, PinnedOnADomainOffTheScanGrid) {
  const JoinWorkload w = MakeZipfWorkload(1.1, 300001, 1 << 18, 7);
  LdpJoinSketchPlusParams params;
  params.sketch = TestParams(18, 1024, 51);
  params.epsilon = 4.0;
  params.sample_rate = 0.1;
  params.threshold = 0.001;
  params.simulation.run_seed = 5;
  params.simulation.num_threads = 4;
  const LdpJoinSketchPlusResult r =
      EstimateJoinSizePlus(w.table_a, w.table_b, params);
  EXPECT_EQ(r.estimate, 1653343078.7494202);
  EXPECT_EQ(r.low_estimate, -71108426.615424708);
  EXPECT_EQ(r.high_estimate, 1724451505.3648448);
  EXPECT_EQ(r.frequent_item_count, 204065u);
  // Both masses clamp to the table size, 2^18.
  EXPECT_EQ(r.high_freq_mass_a, 262144.0);
  EXPECT_EQ(r.high_freq_mass_b, 262144.0);
  EXPECT_EQ(r.sample_rows_a, 26183u);
  EXPECT_EQ(r.sample_rows_b, 26136u);
  EXPECT_EQ(r.group_rows_a[0], 118259u);
  EXPECT_EQ(r.group_rows_a[1], 117702u);
  EXPECT_EQ(r.group_rows_b[0], 117497u);
  EXPECT_EQ(r.group_rows_b[1], 118511u);
}

TEST(LdpJoinSketchPlusTest, HighFreqMassClampedToTableSize) {
  const JoinWorkload w = MakeZipfWorkload(2.0, 200, 80000, 43);
  LdpJoinSketchPlusParams params;
  params.sketch = TestParams(12, 512);
  params.epsilon = 0.5;  // noisy phase 1 → inflated raw mass estimates
  params.threshold = 0.001;
  params.simulation.run_seed = 47;
  const auto result = EstimateJoinSizePlus(w.table_a, w.table_b, params);
  EXPECT_LE(result.high_freq_mass_a, static_cast<double>(w.table_a.size()));
  EXPECT_LE(result.high_freq_mass_b, static_cast<double>(w.table_b.size()));
}

TEST(LdpJoinSketchPlusDeathTest, InvalidParamsAbort) {
  const JoinWorkload w = MakeZipfWorkload(1.5, 100, 1000, 3);
  LdpJoinSketchPlusParams params;
  params.sample_rate = 0.0;
  EXPECT_DEATH(EstimateJoinSizePlus(w.table_a, w.table_b, params),
               "LDPJS_CHECK failed");
  params.sample_rate = 0.1;
  params.threshold = 1.5;
  EXPECT_DEATH(EstimateJoinSizePlus(w.table_a, w.table_b, params),
               "LDPJS_CHECK failed");
  params.threshold = 0.001;
  params.epsilon = 800.0;  // past kMaxEpsilon: c_ε would be NaN
  EXPECT_DEATH(EstimateJoinSizePlus(w.table_a, w.table_b, params),
               "LDPJS_CHECK failed");
}

// Property sweep: the full pipeline stays sane across thresholds (Fig. 11's
// x-axis) — estimates remain positive and within a loose band of truth on
// well-behaved data.
class PlusThresholdTest : public ::testing::TestWithParam<double> {};

TEST_P(PlusThresholdTest, EstimateWithinLooseBand) {
  const JoinWorkload w = MakeZipfWorkload(1.5, 1000, 200000, 53);
  const double truth = ExactJoinSize(w.table_a, w.table_b);
  LdpJoinSketchPlusParams params;
  params.sketch = TestParams(12, 1024);
  params.epsilon = 4.0;
  params.threshold = GetParam();
  params.simulation.run_seed = 59;
  const auto result = EstimateJoinSizePlus(w.table_a, w.table_b, params);
  EXPECT_GT(result.estimate, 0.2 * truth);
  EXPECT_LT(result.estimate, 3.0 * truth);
}

INSTANTIATE_TEST_SUITE_P(Thresholds, PlusThresholdTest,
                         ::testing::Values(0.0005, 0.001, 0.005, 0.02, 0.08));

}  // namespace
}  // namespace ldpjs
