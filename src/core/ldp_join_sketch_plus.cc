#include "core/ldp_join_sketch_plus.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <vector>

#include "common/thread_pool.h"
#include "core/freq_items.h"

namespace ldpjs {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Per-user random partition: fraction r to the phase-1 sample, the rest
/// split evenly into groups 1 and 2.
struct Partition {
  Column sample;
  Column group1;
  Column group2;
};

Partition PartitionUsers(const Column& column, double sample_rate,
                         uint64_t seed) {
  // User i's group depends only on (seed, i), so users are classified on
  // the shared pool and then gathered in row order.
  const size_t rows = column.size();
  std::vector<uint8_t> group(rows);
  SharedParallelFor(rows, rows, [&](size_t, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      Xoshiro256 rng =
          MakeStreamRng(seed ^ 0x5bf03635ULL, static_cast<uint64_t>(i));
      if (rng.NextBernoulli(sample_rate)) {
        group[i] = 0;
      } else {
        group[i] = rng.NextBernoulli(0.5) ? 1 : 2;
      }
    }
  });
  std::array<size_t, 3> sizes{};
  for (const uint8_t g : group) ++sizes[g];
  std::array<std::vector<uint64_t>, 3> values;
  for (size_t g = 0; g < 3; ++g) values[g].reserve(sizes[g]);
  for (size_t i = 0; i < rows; ++i) values[group[i]].push_back(column[i]);
  Partition out;
  out.sample = Column(std::move(values[0]), column.domain());
  out.group1 = Column(std::move(values[1]), column.domain());
  out.group2 = Column(std::move(values[2]), column.domain());
  return out;
}

}  // namespace

LdpJoinSketchPlusResult EstimateJoinSizePlus(
    const Column& table_a, const Column& table_b,
    const LdpJoinSketchPlusParams& params) {
  params.Validate();
  LDPJS_CHECK(table_a.domain() == table_b.domain());
  LDPJS_CHECK(!table_a.empty() && !table_b.empty());
  const uint64_t domain = table_a.domain();

  LdpJoinSketchPlusResult result;
  const auto offline_start = std::chrono::steady_clock::now();

  // ---- Phase 1: sample users, build plain LDPJoinSketches. -------------
  SimulationOptions sim_a = params.simulation;
  sim_a.run_seed = Mix64(params.simulation.run_seed ^ 0xA11CE5ULL);
  SimulationOptions sim_b = params.simulation;
  sim_b.run_seed = Mix64(params.simulation.run_seed ^ 0xB0BCA7ULL);

  Partition part_a =
      PartitionUsers(table_a, params.sample_rate, sim_a.run_seed);
  Partition part_b =
      PartitionUsers(table_b, params.sample_rate, sim_b.run_seed);
  result.sample_rows_a = part_a.sample.size();
  result.sample_rows_b = part_b.sample.size();
  result.group_rows_a[0] = part_a.group1.size();
  result.group_rows_a[1] = part_a.group2.size();
  result.group_rows_b[0] = part_b.group1.size();
  result.group_rows_b[1] = part_b.group2.size();
  LDPJS_CHECK(result.sample_rows_a > 0 && result.sample_rows_b > 0);
  LDPJS_CHECK(part_a.group1.size() > 0 && part_a.group2.size() > 0);
  LDPJS_CHECK(part_b.group1.size() > 0 && part_b.group2.size() > 0);

  const LdpJoinSketchServer sample_sketch_a = BuildLdpJoinSketch(
      part_a.sample, params.sketch, params.epsilon, sim_a);
  const LdpJoinSketchServer sample_sketch_b = BuildLdpJoinSketch(
      part_b.sample, params.sketch, params.epsilon, sim_b);

  // ---- FI search (server-side, counted as online query prep). ----------
  const auto fi_start = std::chrono::steady_clock::now();
  const double offline_phase1 = SecondsSince(offline_start);
  const FrequentItemsScan phase1 = FindFrequentItemsUnion(
      sample_sketch_a, sample_sketch_b, domain,
      params.threshold * static_cast<double>(result.sample_rows_a),
      params.threshold * static_cast<double>(result.sample_rows_b));
  const FrequentItems& frequent_items = phase1.items;
  result.frequent_item_count = frequent_items.size();

  // Estimated full-table FI mass (Algorithm 5 lines 1-4), clamped to the
  // table size — sketch noise can push the raw sum past |A|.
  result.high_freq_mass_a =
      std::min(static_cast<double>(table_a.size()),
               phase1.mass_a * (static_cast<double>(table_a.size()) /
                                static_cast<double>(result.sample_rows_a)));
  result.high_freq_mass_b =
      std::min(static_cast<double>(table_b.size()),
               phase1.mass_b * (static_cast<double>(table_b.size()) /
                                static_cast<double>(result.sample_rows_b)));
  const double fi_seconds = SecondsSince(fi_start);

  // ---- Phase 2: FAP sketches per group. ---------------------------------
  const auto phase2_start = std::chrono::steady_clock::now();
  SimulationOptions sim = params.simulation;  // the thread count carries over

  sim.run_seed = Mix64(params.simulation.run_seed ^ 0x10A1ULL);
  const LdpJoinSketchServer mla = BuildFapSketch(
      part_a.group1, params.sketch, params.epsilon, FapMode::kLow,
      frequent_items, sim);
  sim.run_seed = Mix64(params.simulation.run_seed ^ 0x10B1ULL);
  const LdpJoinSketchServer mlb = BuildFapSketch(
      part_b.group1, params.sketch, params.epsilon, FapMode::kLow,
      frequent_items, sim);
  sim.run_seed = Mix64(params.simulation.run_seed ^ 0x20A2ULL);
  const LdpJoinSketchServer mha = BuildFapSketch(
      part_a.group2, params.sketch, params.epsilon, FapMode::kHigh,
      frequent_items, sim);
  sim.run_seed = Mix64(params.simulation.run_seed ^ 0x20B2ULL);
  const LdpJoinSketchServer mhb = BuildFapSketch(
      part_b.group2, params.sketch, params.epsilon, FapMode::kHigh,
      frequent_items, sim);
  const double phase2_seconds = SecondsSince(phase2_start);

  // ---- JoinEst + final combination (Algorithm 3 lines 4-6). ------------
  const auto online_start = std::chrono::steady_clock::now();
  const double rows_a = static_cast<double>(table_a.size());
  const double rows_b = static_cast<double>(table_b.size());

  JoinEstSide low_a{&mla, result.high_freq_mass_a, rows_a,
                    static_cast<double>(part_a.group1.size())};
  JoinEstSide low_b{&mlb, result.high_freq_mass_b, rows_b,
                    static_cast<double>(part_b.group1.size())};
  const double low_raw = JoinEst(low_a, low_b, FapMode::kLow, params.join_est);

  JoinEstSide high_a{&mha, result.high_freq_mass_a, rows_a,
                     static_cast<double>(part_a.group2.size())};
  JoinEstSide high_b{&mhb, result.high_freq_mass_b, rows_b,
                     static_cast<double>(part_b.group2.size())};
  const double high_raw =
      JoinEst(high_a, high_b, FapMode::kHigh, params.join_est);

  const double low_scale =
      rows_a * rows_b /
      (static_cast<double>(part_a.group1.size()) *
       static_cast<double>(part_b.group1.size()));
  const double high_scale =
      rows_a * rows_b /
      (static_cast<double>(part_a.group2.size()) *
       static_cast<double>(part_b.group2.size()));

  result.low_estimate = low_scale * low_raw;
  result.high_estimate = high_scale * high_raw;
  result.estimate = result.low_estimate + result.high_estimate;
  result.online_seconds = fi_seconds + SecondsSince(online_start);
  result.offline_seconds = offline_phase1 + phase2_seconds;
  return result;
}

}  // namespace ldpjs
