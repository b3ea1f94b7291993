// The lane-domain join: LdpJoinSketchServer::JoinEstimate, and JoinEst
// through it, against the cells-domain join computed here from finalized
// cells, the exact integer dot at the edge of int64, and the report bound
// that keeps every lane inside int64.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/serialize.h"
#include "common/stats.h"
#include "core/join_est.h"
#include "core/ldp_join_sketch.h"
#include "core/simulation.h"
#include "data/datasets.h"

namespace ldpjs {
namespace {

using Int128 = __int128;

SketchParams Params(int k, int m, uint64_t seed = 17) {
  SketchParams params;
  params.k = k;
  params.m = m;
  params.seed = seed;
  return params;
}

/// Un-finalized sketch of `values`, perturbed from one engine seeded `seed`.
LdpJoinSketchServer RawSketch(const SketchParams& params, double epsilon,
                              std::span<const uint64_t> values,
                              uint64_t seed) {
  const LdpJoinSketchClient client(params, epsilon);
  LdpJoinSketchServer sketch(client.shape(), epsilon);
  std::vector<LdpReport> reports(values.size());
  Xoshiro256 rng(seed);
  client.PerturbBatch(values, reports, rng);
  sketch.AbsorbBatch(reports);
  return sketch;
}

/// Eq. 5 in the cells domain, as the join was evaluated before it read the
/// lanes: finalize copies, lower every cell by its sketch's shift, dot the
/// rows, take the median.
double CellJoin(LdpJoinSketchServer a, double shift_a, LdpJoinSketchServer b,
                double shift_b) {
  if (!a.finalized()) a.Finalize();
  if (!b.finalized()) b.Finalize();
  std::vector<double> rows(static_cast<size_t>(a.params().k));
  for (int j = 0; j < a.params().k; ++j) {
    double acc = 0.0;
    for (int x = 0; x < a.params().m; ++x) {
      acc += (a.cell(j, x) - shift_a) * (b.cell(j, x) - shift_b);
    }
    rows[static_cast<size_t>(j)] = acc;
  }
  return Median(rows);
}

double RelativeDeviation(double value, double reference) {
  return std::abs(value - reference) / std::abs(reference);
}

TEST(LdpServerLaneJoinTest, MatchesTheCellJoinAcrossShapesAndBudgets) {
  // A skewed pair of tables, so every row's product is well away from 0.
  const JoinWorkload w = MakeZipfWorkload(2.0, 1000, 200000, 3);
  const std::vector<uint64_t>& a_values = w.table_a.values();
  const std::vector<uint64_t>& b_values = w.table_b.values();
  const std::span<const uint64_t> a_all(a_values);
  const size_t third = a_values.size() / 3;
  for (const int m : {2, 64, 1024, 16384}) {
    for (const double epsilon : {1.0, 4.0}) {
      SCOPED_TRACE("m=" + std::to_string(m) +
                   " eps=" + std::to_string(epsilon));
      const SketchParams params = Params(18, m);
      const LdpJoinSketchServer a = RawSketch(params, epsilon, a_all, 5);
      const LdpJoinSketchServer b = RawSketch(params, epsilon, b_values, 6);
      const double reference = CellJoin(a, 0.0, b, 0.0);
      const double raw = a.JoinEstimate(b);
      EXPECT_LE(RelativeDeviation(raw, reference), 1e-12) << raw;

      // Finalize keeps the lanes and the join reads only them.
      LdpJoinSketchServer b_final = b;
      b_final.Finalize();
      EXPECT_EQ(a.JoinEstimate(b_final), raw);
      EXPECT_EQ(b_final.JoinEstimate(a), b.JoinEstimate(a));

      // Three parts merged, then one subtracted back out.
      LdpJoinSketchServer merged =
          RawSketch(params, epsilon, a_all.first(third), 7);
      merged.Merge(RawSketch(params, epsilon, a_all.subspan(third, third), 8));
      const LdpJoinSketchServer last =
          RawSketch(params, epsilon, a_all.subspan(2 * third), 9);
      merged.Merge(last);
      EXPECT_LE(RelativeDeviation(merged.JoinEstimate(b_final),
                                  CellJoin(merged, 0.0, b, 0.0)),
                1e-12);
      merged.SubtractRaw(last);
      EXPECT_LE(RelativeDeviation(merged.JoinEstimate(b),
                                  CellJoin(merged, 0.0, b, 0.0)),
                1e-12);
    }
  }
}

/// JoinEst's non-target mass, as Algorithm 5 (or the group-scaled
/// deviation) defines it.
double NonTargetMass(const JoinEstSide& side, FapMode mode, bool literal) {
  const double full = mode == FapMode::kLow
                          ? side.high_freq_mass
                          : std::max(0.0, side.table_rows - side.high_freq_mass);
  return literal ? full : full * side.group_rows / side.table_rows;
}

TEST(LdpServerLaneJoinTest, JoinEstClosedFormMatchesShiftedCells) {
  const JoinWorkload w = MakeZipfWorkload(1.5, 500, 100000, 11);
  const SketchParams params = Params(18, 1024);
  const FrequentItems fi{0, 1, 2, 3};
  SimulationOptions sim;
  for (const FapMode mode : {FapMode::kLow, FapMode::kHigh}) {
    sim.run_seed = 31;
    const LdpJoinSketchServer a =
        BuildFapSketch(w.table_a, params, 4.0, mode, fi, sim);
    sim.run_seed = 32;
    const LdpJoinSketchServer b =
        BuildFapSketch(w.table_b, params, 4.0, mode, fi, sim);
    // The sketches hold one group, half of each table.
    const JoinEstSide side_a{&a, 60000.0, 200000.0, 100000.0};
    const JoinEstSide side_b{&b, 55000.0, 200000.0, 100000.0};
    for (const bool literal : {false, true}) {
      SCOPED_TRACE(std::string(mode == FapMode::kLow ? "low" : "high") +
                   (literal ? " literal" : " scaled"));
      JoinEstOptions options;
      options.paper_literal_subtraction = literal;
      const double m = static_cast<double>(params.m);
      const double reference =
          CellJoin(a, NonTargetMass(side_a, mode, literal) / m, b,
                   NonTargetMass(side_b, mode, literal) / m);
      const double closed = JoinEst(side_a, side_b, mode, options);
      EXPECT_LE(RelativeDeviation(closed, reference), 1e-12)
          << closed << " vs " << reference;
    }
  }
}

/// LJS2 raw-lane bytes declaring `total` reports, hand-built on the header
/// of an empty sketch of `params`.
std::vector<uint8_t> RawBytes(const SketchParams& params, double epsilon,
                              uint64_t total, std::span<const int64_t> lanes) {
  const std::vector<uint8_t> empty =
      LdpJoinSketchServer(params, epsilon).Serialize();
  const size_t total_offset = 4 + 1 + 4 + 4 + 8 + 8;  // magic .. epsilon
  BinaryWriter writer;
  for (size_t i = 0; i < total_offset; ++i) writer.PutU8(empty[i]);
  writer.PutU64(total);
  writer.PutU8(0);  // raw lanes
  writer.PutI64Vector(lanes);
  return writer.TakeBuffer();
}

TEST(LdpServerLaneJoinTest, DotIsExactOnBothSidesOfInt64) {
  // k = 1, so the estimate is row 0: m·((k·c_ε)²·dot), with the exact dot
  // rounded once to a double.
  const SketchParams params = Params(1, 2);
  const double epsilon = 1.0;
  const LdpJoinSketchServer like(params, epsilon);
  const double s = like.c_eps();
  struct Case {
    uint64_t n_a;
    std::vector<int64_t> a;
    uint64_t n_b;
    std::vector<int64_t> b;
  };
  const int64_t p31 = int64_t{1} << 31, p32 = int64_t{1} << 32;
  const int64_t p40 = int64_t{1} << 40;
  const int64_t max = std::numeric_limits<int64_t>::max();
  const std::vector<Case> cases = {
      // n_a·n_b = 2^63 − 2^32, and |dot| is just below 2^63.
      {uint64_t{1} << 32, {p32 - 5, -5}, (uint64_t{1} << 31) - 1,
       {-(p31 - 2), 1}},
      // n_a·n_b = 2^63: the dot itself is 2^63, one past INT64_MAX.
      {uint64_t{1} << 32, {p32, 0}, uint64_t{1} << 31, {p31, 0}},
      {uint64_t{1} << 40, {p40 - 1, 1}, uint64_t{1} << 40, {p40 - 3, 3}},
      // The largest lanes: (2^63 − 1)².
      {kMaxSketchReports, {max, 0}, kMaxSketchReports, {-max, 0}},
  };
  for (const Case& c : cases) {
    auto a = like.DeserializeLike(RawBytes(params, epsilon, c.n_a, c.a));
    auto b = like.DeserializeLike(RawBytes(params, epsilon, c.n_b, c.b));
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    const Int128 dot = static_cast<Int128>(c.a[0]) * c.b[0] +
                       static_cast<Int128>(c.a[1]) * c.b[1];
    const double expected = 2.0 * ((s * s) * static_cast<double>(dot));
    EXPECT_EQ(a->JoinEstimate(*b), expected) << c.n_a << " " << c.n_b;
  }
}

TEST(LdpServerLaneJoinTest, LanesBeyondTheReportCountAreCorruption) {
  const SketchParams params = Params(1, 2);
  const LdpJoinSketchServer like(params, 1.0);
  const int64_t max = std::numeric_limits<int64_t>::max();
  const int64_t min = std::numeric_limits<int64_t>::min();
  const auto decode = [&](uint64_t total, std::vector<int64_t> lanes) {
    return like.DeserializeLike(RawBytes(params, 1.0, total, lanes))
        .status()
        .code();
  };
  EXPECT_EQ(decode(4, {3, -1}), StatusCode::kOk);
  EXPECT_EQ(decode(4, {3, -2}), StatusCode::kCorruption);
  EXPECT_EQ(decode(0, {0, 1}), StatusCode::kCorruption);
  EXPECT_EQ(decode(kMaxSketchReports, {-max, 0}), StatusCode::kOk);
  EXPECT_EQ(decode(kMaxSketchReports, {min, 0}), StatusCode::kCorruption);
  EXPECT_EQ(decode(kMaxSketchReports, {max, -1}), StatusCode::kCorruption);
  // No sketch may count more reports than a lane can hold.
  EXPECT_EQ(decode(kMaxSketchReports + 1, {0, 0}), StatusCode::kCorruption);
  EXPECT_EQ(decode(UINT64_MAX, {min, 0}), StatusCode::kCorruption);
  const std::vector<int64_t> over = {3, -2};
  EXPECT_EQ(
      LdpJoinSketchServer::Deserialize(RawBytes(params, 1.0, 4, over)).status().code(),
      StatusCode::kCorruption);
}

TEST(LdpServerDeathTest, MergePastTheReportBoundAborts) {
  // Two sketches of 2^62 reports each, all on one lane: their sum would be
  // a lane of 2^63, one past INT64_MAX.
  const SketchParams params = Params(1, 2);
  const LdpJoinSketchServer like(params, 1.0);
  const uint64_t half = uint64_t{1} << 62;
  const std::vector<int64_t> lanes = {int64_t{1} << 62, 0};
  auto a = like.DeserializeLike(RawBytes(params, 1.0, half, lanes));
  auto b = like.DeserializeLike(RawBytes(params, 1.0, half, lanes));
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_DEATH(a->Merge(*b), "LDPJS_CHECK failed");
  const std::vector<int64_t> none = {0, 0};
  auto c = like.DeserializeLike(RawBytes(params, 1.0, half - 1, none));
  ASSERT_TRUE(c.ok());
  a->Merge(*c);  // 2^63 − 1 reports: the bound itself
  EXPECT_EQ(a->total_reports(), kMaxSketchReports);
  EXPECT_EQ(a->lane(0, 0), int64_t{1} << 62);
}

}  // namespace
}  // namespace ldpjs
