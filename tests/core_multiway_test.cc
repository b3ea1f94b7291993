#include "core/multiway.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include <gtest/gtest.h>

#include "common/hadamard.h"
#include "core/simulation.h"
#include "data/datasets.h"

namespace ldpjs {
namespace {

MultiwayParams MidParams(int k = 9, int m = 256, uint64_t left_seed = 1,
                         uint64_t right_seed = 2) {
  MultiwayParams params;
  params.k = k;
  params.m_left = m;
  params.m_right = m;
  params.left_seed = left_seed;
  params.right_seed = right_seed;
  return params;
}

PairColumn MakeCorrelatedPairs(uint64_t domain, size_t rows, uint64_t seed) {
  PairColumn out;
  out.left_domain = domain;
  out.right_domain = domain;
  Xoshiro256 rng(seed);
  for (size_t i = 0; i < rows; ++i) {
    out.left.push_back(std::min(rng.NextBounded(domain),
                                rng.NextBounded(domain)));
    out.right.push_back(std::min(rng.NextBounded(domain),
                                 rng.NextBounded(domain)));
  }
  return out;
}

TEST(MultiwayClientTest, ReportFieldsInRange) {
  const MultiwayParams params = MidParams();
  LdpMultiwayClient client(params, 2.0);
  Xoshiro256 rng(1);
  for (int i = 0; i < 5000; ++i) {
    const MultiwayReport r = client.Perturb(
        static_cast<uint64_t>(i % 50), static_cast<uint64_t>(i % 70), rng);
    EXPECT_LT(r.replica, params.k);
    EXPECT_LT(r.l1, static_cast<uint32_t>(params.m_left));
    EXPECT_LT(r.l2, static_cast<uint32_t>(params.m_right));
    EXPECT_TRUE(r.y == 1 || r.y == -1);
  }
}

TEST(MultiwayClientTest, SatisfiesEpsilonLdpClosedForm) {
  // Same argument as the 2-way client: for any tuple and output, the
  // conditional probability of y given (replica, l1, l2) is p or 1-p, so
  // the worst ratio between two tuples is e^ε.
  const double eps = 1.3;
  LdpMultiwayClient client(MidParams(2, 8), eps);
  // Exhaustively compare two tuples over the output space via sampling with
  // a shared RNG: the decisive check is the closed-form bound.
  const double p = 1.0 - 1.0 / (std::exp(eps) + 1.0);
  EXPECT_NEAR(p / (1.0 - p), std::exp(eps), 1e-9);
}

TEST(MultiwayServerTest, SingleTupleExpectationLandsInRightCell) {
  // n identical tuples (a, b): after finalize, E[M[h_A(a), h_B(b)]] =
  // n·ξ_A(a)·ξ_B(b); every other cell has expectation 0.
  const MultiwayParams params = MidParams(3, 64, 5, 6);
  const double eps = 2.0;
  const uint64_t a = 17, b = 29;
  const size_t n = 300000;
  LdpMultiwayClient client(params, eps);
  LdpMultiwayServer server(params, eps);
  for (size_t i = 0; i < n; ++i) {
    Xoshiro256 rng(Mix64(777 ^ static_cast<uint64_t>(i)));
    server.Absorb(client.Perturb(a, b, rng));
  }
  server.Finalize();

  const auto left_rows = MakeRowHashes(params.left_seed, params.k,
                                       static_cast<uint64_t>(params.m_left));
  const auto right_rows = MakeRowHashes(params.right_seed, params.k,
                                        static_cast<uint64_t>(params.m_right));
  for (int r = 0; r < params.k; ++r) {
    const auto& lh = left_rows[static_cast<size_t>(r)];
    const auto& rh = right_rows[static_cast<size_t>(r)];
    const double expected =
        static_cast<double>(n) * lh.sign(a) * rh.sign(b);
    const double actual =
        server.replica_data(r)[lh.bucket(a) * static_cast<size_t>(params.m_right) +
                               rh.bucket(b)];
    EXPECT_NEAR(actual / expected, 1.0, 0.15) << "replica " << r;
  }
}

TEST(MultiwayTest, ThreeWayChainTracksExact) {
  // Signal must dominate the Hadamard-sampling noise: small m, large n,
  // large eps keep the pure-noise inner-product term well below the truth.
  const uint64_t domain = 32;
  const int k = 18, m = 64;
  const uint64_t seed_a = 100, seed_b = 200;
  const double eps = 10.0;

  const JoinWorkload ends = MakeZipfWorkload(1.3, domain, 250000, 3);
  const PairColumn middle = MakeCorrelatedPairs(domain, 250000, 7);
  const double truth =
      ExactChainJoinSize(ends.table_a, {middle}, ends.table_b);
  ASSERT_GT(truth, 0.0);

  SketchParams end_params;
  end_params.k = k;
  end_params.m = m;
  end_params.seed = seed_a;
  SimulationOptions sim;
  sim.run_seed = 11;
  const LdpJoinSketchServer left =
      BuildLdpJoinSketch(ends.table_a, end_params, eps, sim);
  end_params.seed = seed_b;
  sim.run_seed = 12;
  const LdpJoinSketchServer right =
      BuildLdpJoinSketch(ends.table_b, end_params, eps, sim);
  const LdpMultiwayServer mid = BuildLdpMultiwaySketch(
      middle, MidParams(k, m, seed_a, seed_b), eps, 13);

  const double est = LdpChainJoinEstimate(left, {&mid}, right);
  EXPECT_NEAR(est / truth, 1.0, 0.5);
}

TEST(MultiwayTest, FourWayChainRunsAndStaysInBand) {
  // Three multiplied sketches compound the sampling noise, so the four-way
  // test needs an even stronger signal regime than the three-way one.
  const uint64_t domain = 16;
  const int k = 18, m = 32;
  const double eps = 10.0;
  const uint64_t seed_a = 1, seed_b = 2, seed_c = 3;

  const JoinWorkload ends = MakeZipfWorkload(1.4, domain, 300000, 5);
  const PairColumn mid1 = MakeCorrelatedPairs(domain, 300000, 17);
  const PairColumn mid2 = MakeCorrelatedPairs(domain, 300000, 19);
  const double truth =
      ExactChainJoinSize(ends.table_a, {mid1, mid2}, ends.table_b);
  ASSERT_GT(truth, 0.0);

  SketchParams end_params;
  end_params.k = k;
  end_params.m = m;
  end_params.seed = seed_a;
  SimulationOptions sim;
  sim.run_seed = 23;
  const LdpJoinSketchServer left =
      BuildLdpJoinSketch(ends.table_a, end_params, eps, sim);
  end_params.seed = seed_c;
  sim.run_seed = 29;
  const LdpJoinSketchServer right =
      BuildLdpJoinSketch(ends.table_b, end_params, eps, sim);
  const LdpMultiwayServer sketch1 = BuildLdpMultiwaySketch(
      mid1, MidParams(k, m, seed_a, seed_b), eps, 31);
  const LdpMultiwayServer sketch2 = BuildLdpMultiwaySketch(
      mid2, MidParams(k, m, seed_b, seed_c), eps, 37);

  const double est =
      LdpChainJoinEstimate(left, {&sketch1, &sketch2}, right);
  EXPECT_NEAR(est / truth, 1.0, 0.8);
}

TEST(MultiwayTest, TwoWayDegenerateMatchesJoinEstimateShape) {
  // Zero middle tables: the chain is a join, answered by
  // LdpJoinSketchServer::JoinEstimate itself.
  const JoinWorkload w = MakeZipfWorkload(1.5, 200, 60000, 41);
  SketchParams params;
  params.k = 7;
  params.m = 256;
  params.seed = 4;
  SimulationOptions sim;
  sim.run_seed = 43;
  const LdpJoinSketchServer sa = BuildLdpJoinSketch(w.table_a, params, 4.0, sim);
  sim.run_seed = 44;
  const LdpJoinSketchServer sb = BuildLdpJoinSketch(w.table_b, params, 4.0, sim);
  EXPECT_EQ(LdpChainJoinEstimate(sa, {}, sb), sa.JoinEstimate(sb));
}

// A(a) ⋈ B(a, c) ⋈ C(c) over one key per attribute, 2e5 rows each: the
// chain size is (2e5)^3 = 8e15. Every sketch on an attribute must hash it
// with that attribute's seed; a chain whose links disagree used to answer
// -2.44e13 without complaint.
TEST(MultiwayDeathTest, ChainLinksWithAnotherSeedAbort) {
  const size_t rows = 200000;
  const uint64_t seed_a = 1, seed_c = 2;
  SketchParams end_params;
  end_params.k = 18;
  end_params.m = 256;
  end_params.seed = seed_a;
  SimulationOptions sim;
  sim.run_seed = 61;
  const Column a(std::vector<uint64_t>(rows, 3), 100);
  const LdpJoinSketchServer left = BuildLdpJoinSketch(a, end_params, 4.0, sim);
  end_params.seed = seed_c;
  sim.run_seed = 62;
  const Column c(std::vector<uint64_t>(rows, 9), 100);
  const LdpJoinSketchServer right = BuildLdpJoinSketch(c, end_params, 4.0, sim);
  PairColumn pairs;
  pairs.left.assign(rows, 3);
  pairs.right.assign(rows, 9);
  pairs.left_domain = pairs.right_domain = 100;
  const LdpMultiwayServer matched =
      BuildLdpMultiwaySketch(pairs, MidParams(18, 256, seed_a, seed_c), 4.0, 63);
  const double truth = 8e15;
  EXPECT_NEAR(LdpChainJoinEstimate(left, {&matched}, right) / truth, 1.0, 0.1);

  const LdpMultiwayServer left_seed_77 =
      BuildLdpMultiwaySketch(pairs, MidParams(18, 256, 77, seed_c), 4.0, 63);
  EXPECT_DEATH(LdpChainJoinEstimate(left, {&left_seed_77}, right),
               "LDPJS_CHECK failed");
  // The last link: the middle's right seed against the right end's.
  EXPECT_DEATH(LdpChainJoinEstimate(left, {&matched}, left),
               "LDPJS_CHECK failed");
  // Between middles: the first one's right seed against the next's left.
  EXPECT_DEATH(LdpChainJoinEstimate(left, {&matched, &matched}, right),
               "LDPJS_CHECK failed");
}

TEST(MultiwayServerTest, MergeEqualsSequential) {
  const MultiwayParams params = MidParams(2, 32);
  LdpMultiwayClient client(params, 2.0);
  LdpMultiwayServer all(params, 2.0), p1(params, 2.0), p2(params, 2.0);
  Xoshiro256 rng1(1), rng2(1);
  for (int i = 0; i < 3000; ++i) {
    const auto r = client.Perturb(static_cast<uint64_t>(i % 10),
                                  static_cast<uint64_t>(i % 13), rng1);
    all.Absorb(r);
    const auto r2 = client.Perturb(static_cast<uint64_t>(i % 10),
                                   static_cast<uint64_t>(i % 13), rng2);
    (i % 2 == 0 ? p1 : p2).Absorb(r2);
  }
  p1.Merge(p2);
  all.Finalize();
  p1.Finalize();
  for (int r = 0; r < params.k; ++r) {
    const double* da = all.replica_data(r);
    const double* db = p1.replica_data(r);
    for (size_t i = 0;
         i < static_cast<size_t>(params.m_left) * static_cast<size_t>(params.m_right);
         ++i) {
      EXPECT_NEAR(da[i], db[i], 1e-9);
    }
  }
}

TEST(MultiwayServerTest, DeserializeRejectsEpsilonPastTheBound) {
  LdpMultiwayServer server(MidParams(2, 32), 1.0);
  server.Finalize();
  // magic, version, k, m_left, m_right, left_seed, right_seed
  const size_t epsilon_offset = 4 + 1 + 4 + 4 + 4 + 8 + 8;
  const auto with_epsilon = [&](double epsilon) {
    std::vector<uint8_t> bytes = server.Serialize();
    BinaryWriter writer;
    writer.PutDouble(epsilon);
    std::copy(writer.buffer().begin(), writer.buffer().end(),
              bytes.begin() + static_cast<std::ptrdiff_t>(epsilon_offset));
    return LdpMultiwayServer::Deserialize(bytes);
  };
  EXPECT_TRUE(with_epsilon(kMaxEpsilon).ok());
  EXPECT_EQ(with_epsilon(800.0).status().code(), StatusCode::kCorruption);
}

TEST(MultiwayDeathTest, EpsilonPastTheBoundAborts) {
  EXPECT_DEATH(LdpMultiwayClient(MidParams(2, 32), 800.0),
               "LDPJS_CHECK failed");
  EXPECT_DEATH(LdpMultiwayServer(MidParams(2, 32), 800.0),
               "LDPJS_CHECK failed");
}

TEST(MultiwayDeathTest, ValidationAndLifecycle) {
  MultiwayParams bad = MidParams();
  bad.m_left = 100;  // not a power of two
  EXPECT_DEATH(LdpMultiwayServer(bad, 1.0), "LDPJS_CHECK failed");
  // More rows than MultiwayReport::replica (a uint16_t) can name.
  MultiwayParams too_many_rows = MidParams(2, 2);
  too_many_rows.k = kMaxSketchRows + 1;
  EXPECT_DEATH(LdpMultiwayClient(too_many_rows, 1.0), "LDPJS_CHECK failed");
  EXPECT_DEATH(LdpMultiwayServer(too_many_rows, 1.0), "LDPJS_CHECK failed");

  LdpMultiwayServer server(MidParams(2, 32), 1.0);
  server.Finalize();
  MultiwayReport r{1, 0, 0, 0};
  EXPECT_DEATH(server.Absorb(r), "LDPJS_CHECK failed");
  EXPECT_DEATH(server.Finalize(), "LDPJS_CHECK failed");
}

}  // namespace
}  // namespace ldpjs
