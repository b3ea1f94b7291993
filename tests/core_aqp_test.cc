#include "core/aqp.h"

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "core/simulation.h"
#include "data/datasets.h"
#include "data/join.h"

namespace ldpjs {
namespace {

struct AqpFixture {
  AqpFixture() : workload(MakeZipfWorkload(1.5, 2000, 200000, 3)) {
    SketchParams params;
    params.k = 18;
    params.m = 1024;
    params.seed = 17;
    SimulationOptions sim;
    sim.run_seed = 5;
    sketch_a = std::make_unique<LdpJoinSketchServer>(
        BuildLdpJoinSketch(workload.table_a, params, 4.0, sim));
    sim.run_seed = 6;
    sketch_b = std::make_unique<LdpJoinSketchServer>(
        BuildLdpJoinSketch(workload.table_b, params, 4.0, sim));
  }

  JoinWorkload workload;
  std::unique_ptr<LdpJoinSketchServer> sketch_a;
  std::unique_ptr<LdpJoinSketchServer> sketch_b;
};

TEST(AqpTest, RangeCountTracksSelectiveRange) {
  AqpFixture fx;
  // The head of the zipf distribution: a selective, heavy range.
  const ValueRange range{0, 19};
  const auto freq = fx.workload.table_a.Frequencies();
  double truth = 0;
  for (uint64_t d = range.lo; d <= range.hi; ++d) {
    truth += static_cast<double>(freq[d]);
  }
  const double est = RangeCountEstimate(*fx.sketch_a, range);
  EXPECT_NEAR(est / truth, 1.0, 0.1);
}

TEST(AqpTest, FullDomainRangeCountSumsToTableSize) {
  AqpFixture fx;
  const ValueRange range{0, fx.workload.table_a.domain() - 1};
  const double est = RangeCountEstimate(*fx.sketch_a, range);
  EXPECT_NEAR(est / static_cast<double>(fx.workload.table_a.size()), 1.0,
              0.15);
}

TEST(AqpTest, WeightedSumMatchesManualAccumulation) {
  AqpFixture fx;
  const ValueRange range{0, 9};
  auto weight = [](uint64_t d) { return static_cast<double>(d) + 1.0; };
  double manual = 0;
  for (uint64_t d = range.lo; d <= range.hi; ++d) {
    manual += weight(d) * fx.sketch_a->FrequencyEstimate(d);
  }
  EXPECT_NEAR(RangeWeightedSumEstimate(*fx.sketch_a, range, weight), manual,
              1e-9);
}

// Each estimator walks its range a 256-key run at a time; its answer must
// equal the same sum over per-key point queries, bit for bit, on a range
// that starts and ends off a run boundary.
TEST(AqpTest, EstimatorsMatchPerKeyLoopOnUnalignedRange) {
  AqpFixture fx;
  const ValueRange range{37, 1500};
  const auto weight = [](uint64_t d) {
    return 0.5 + static_cast<double>(d % 7);
  };
  double count = 0.0;
  double weighted = 0.0;
  double join = 0.0;
  uint64_t support = 0;
  for (uint64_t d = range.lo; d <= range.hi; ++d) {
    const double f_a = fx.sketch_a->FrequencyEstimate(d);
    count += f_a;
    weighted += weight(d) * f_a;
    join += f_a * fx.sketch_b->FrequencyEstimate(d);
    if (f_a > 0.0) ++support;
  }
  EXPECT_EQ(RangeCountEstimate(*fx.sketch_a, range), count);
  EXPECT_EQ(RangeWeightedSumEstimate(*fx.sketch_a, range, weight), weighted);
  EXPECT_EQ(PredicateJoinEstimate(*fx.sketch_a, *fx.sketch_b, range), join);
  EXPECT_EQ(SupportSizeEstimate(*fx.sketch_a, range, 0.0), support);
  EXPECT_GT(support, 0u);
  EXPECT_LT(support, range.Width());
}

// Range counts pinned to the values they had before f̂ was evaluated a run
// of keys at a time: one range on the run grid's edges, one inside the
// last, partial scan block of a 300001-key domain.
TEST(AqpTest, RangeCountPinnedValues) {
  const JoinWorkload w = MakeZipfWorkload(1.1, 300001, 1 << 18, 7);
  SketchParams params;
  params.k = 18;
  params.m = 1024;
  params.seed = 51;
  SimulationOptions sim;
  sim.run_seed = 9;
  sim.num_threads = 4;
  const LdpJoinSketchServer sketch =
      BuildLdpJoinSketch(w.table_a, params, 4.0, sim);
  EXPECT_EQ(RangeCountEstimate(sketch, ValueRange{1000, 2023}),
            5149.2302736915626);
  EXPECT_EQ(RangeCountEstimate(sketch, ValueRange{299000, 300000}),
            -13885.494851658979);
}

TEST(AqpTest, PredicateJoinTracksRestrictedTruth) {
  AqpFixture fx;
  const ValueRange range{0, 19};
  const auto fa = fx.workload.table_a.Frequencies();
  const auto fb = fx.workload.table_b.Frequencies();
  double truth = 0;
  for (uint64_t d = range.lo; d <= range.hi; ++d) {
    truth += static_cast<double>(fa[d]) * static_cast<double>(fb[d]);
  }
  const double est = PredicateJoinEstimate(*fx.sketch_a, *fx.sketch_b, range);
  EXPECT_NEAR(est / truth, 1.0, 0.15);
}

TEST(AqpTest, PredicateJoinOverFullDomainApproximatesJoinEstimate) {
  AqpFixture fx;
  const ValueRange range{0, fx.workload.table_a.domain() - 1};
  const double truth = ExactJoinSize(fx.workload.table_a, fx.workload.table_b);
  const double accumulated =
      PredicateJoinEstimate(*fx.sketch_a, *fx.sketch_b, range);
  // Accumulation over the whole domain is noisier than the sketch product
  // but must be in the same ballpark on skewed data.
  EXPECT_NEAR(accumulated / truth, 1.0, 0.5);
}

TEST(AqpTest, SupportSizeWithNoiseFloorOnPlantedSupport) {
  // 50 planted values well above the noise floor, the rest absent. (On
  // heavily skewed data, collisions with the top item inject spikes of
  // ~f_max/k into arbitrary values, so support estimation is only reliable
  // when the queried frequencies clear both the noise floor and the
  // heavy-collision scale — exactly the planted setting here.)
  const uint64_t domain = 2000;
  const size_t per_value = 4000;
  std::vector<uint64_t> values;
  values.reserve(50 * per_value);
  for (uint64_t v = 0; v < 50; ++v) {
    for (size_t i = 0; i < per_value; ++i) values.push_back(v * 7 + 3);
  }
  Column column(std::move(values), domain);
  SketchParams params;
  params.k = 18;
  params.m = 1024;
  params.seed = 23;
  SimulationOptions sim;
  sim.run_seed = 29;
  const LdpJoinSketchServer sketch =
      BuildLdpJoinSketch(column, params, 4.0, sim);
  const double floor = NoiseFloorSuggestion(sketch);
  ASSERT_LT(floor, static_cast<double>(per_value));
  const uint64_t est =
      SupportSizeEstimate(sketch, ValueRange{0, domain - 1}, floor);
  EXPECT_NEAR(static_cast<double>(est), 50.0, 10.0);
}

TEST(AqpTest, NoiseFloorGrowsWithReports) {
  SketchParams params;
  params.k = 4;
  params.m = 64;
  LdpJoinSketchServer small(params, 2.0), big(params, 2.0);
  LdpJoinSketchClient client(params, 2.0);
  Xoshiro256 rng(1);
  for (int i = 0; i < 100; ++i) small.Absorb(client.Perturb(1, rng));
  for (int i = 0; i < 10000; ++i) big.Absorb(client.Perturb(1, rng));
  EXPECT_GT(NoiseFloorSuggestion(big), NoiseFloorSuggestion(small));
}

TEST(AqpTest, RangeEndingAtMaxKeyStopsAfterIt) {
  // A walk that tests d <= hi never ends when hi == UINT64_MAX: d wraps to
  // 0. The weight callback sees every key visited, so it throws on a
  // wrapped key instead of letting the test spin.
  AqpFixture fx;
  const ValueRange top{UINT64_MAX - 3, UINT64_MAX};
  std::vector<uint64_t> visited;
  const auto weight = [&](uint64_t d) {
    if (d < top.lo) throw std::runtime_error("range walk wrapped to 0");
    visited.push_back(d);
    return 1.0;
  };
  double weighted = 0.0;
  ASSERT_NO_THROW(weighted =
                      RangeWeightedSumEstimate(*fx.sketch_a, top, weight));
  EXPECT_EQ(visited, (std::vector<uint64_t>{UINT64_MAX - 3, UINT64_MAX - 2,
                                            UINT64_MAX - 1, UINT64_MAX}));
  double count = 0.0;
  double join = 0.0;
  uint64_t support = 0;
  for (const uint64_t d : visited) {
    const double f_a = fx.sketch_a->FrequencyEstimate(d);
    count += f_a;
    join += f_a * fx.sketch_b->FrequencyEstimate(d);
    if (f_a > 0.0) ++support;
  }
  EXPECT_EQ(weighted, count);
  EXPECT_EQ(RangeCountEstimate(*fx.sketch_a, top), count);
  EXPECT_EQ(PredicateJoinEstimate(*fx.sketch_a, *fx.sketch_b, top), join);
  EXPECT_EQ(SupportSizeEstimate(*fx.sketch_a, top, 0.0), support);
  EXPECT_EQ(RangeCountEstimate(*fx.sketch_a, ValueRange{UINT64_MAX, UINT64_MAX}),
            fx.sketch_a->FrequencyEstimate(UINT64_MAX));
}

TEST(AqpDeathTest, InvalidRangeAborts) {
  AqpFixture fx;
  EXPECT_DEATH(RangeCountEstimate(*fx.sketch_a, ValueRange{5, 4}),
               "LDPJS_CHECK failed");
}

TEST(AqpDeathTest, UnfinalizedSketchAborts) {
  SketchParams params;
  params.k = 2;
  params.m = 64;
  LdpJoinSketchServer server(params, 1.0);
  EXPECT_DEATH(RangeCountEstimate(server, ValueRange{0, 1}),
               "LDPJS_CHECK failed");
}

}  // namespace
}  // namespace ldpjs
