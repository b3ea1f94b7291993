#include <cmath>

#include <gtest/gtest.h>

#include "core/ldp_join_sketch.h"
#include "core/simulation.h"
#include "data/datasets.h"
#include "data/join.h"

namespace ldpjs {
namespace {

SketchParams TestParams(int k = 12, int m = 512, uint64_t seed = 21) {
  SketchParams params;
  params.k = k;
  params.m = m;
  params.seed = seed;
  return params;
}

TEST(DebiasFactorTest, MatchesFormula) {
  const double eps = 2.0;
  EXPECT_NEAR(DebiasFactor(eps),
              (std::exp(eps) + 1.0) / (std::exp(eps) - 1.0), 1e-12);
  // c_eps → 1 as eps grows, → ∞ as eps → 0.
  EXPECT_NEAR(DebiasFactor(30.0), 1.0, 1e-9);
  EXPECT_GT(DebiasFactor(0.01), 100.0);
}

TEST(LdpServerTest, TheoremTwoSingleValueContribution) {
  // All users hold the same value d: after debias + finalize,
  // E[M[j, h_j(d)]] = n·ξ_j(d) (Theorem 2 case d_i = d).
  const SketchParams params = TestParams();
  const double eps = 2.0;
  const uint64_t d = 77;
  const size_t n = 400000;
  Column column(std::vector<uint64_t>(n, d), 100);
  SimulationOptions sim;
  sim.run_seed = 5;
  sim.num_threads = 2;
  const LdpJoinSketchServer server =
      BuildLdpJoinSketch(column, params, eps, sim);
  const auto& rows = server.row_hashes();
  for (int j = 0; j < params.k; ++j) {
    const double expected =
        static_cast<double>(n) * rows[static_cast<size_t>(j)].sign(d);
    const double actual =
        server.cell(j, static_cast<int>(rows[static_cast<size_t>(j)].bucket(d)));
    EXPECT_NEAR(actual / expected, 1.0, 0.1) << "row " << j;
  }
}

TEST(LdpServerTest, TheoremSevenFrequencyUnbiased) {
  const SketchParams params = TestParams(18, 1024);
  const uint64_t domain = 1000;
  const JoinWorkload w = MakeZipfWorkload(1.5, domain, 300000, 7);
  SimulationOptions sim;
  sim.run_seed = 9;
  const LdpJoinSketchServer server =
      BuildLdpJoinSketch(w.table_a, params, 4.0, sim);
  const auto freq = w.table_a.Frequencies();
  for (uint64_t d = 0; d < 3; ++d) {
    EXPECT_NEAR(server.FrequencyEstimate(d) / static_cast<double>(freq[d]),
                1.0, 0.15)
        << "d=" << d;
  }
}

TEST(LdpServerTest, JoinEstimateTracksExactJoin) {
  const SketchParams params = TestParams(18, 1024);
  const uint64_t domain = 2000;
  const JoinWorkload w = MakeZipfWorkload(1.5, domain, 200000, 13);
  const double truth = ExactJoinSize(w.table_a, w.table_b);
  SimulationOptions sim;
  sim.run_seed = 15;
  const LdpJoinSketchServer sa =
      BuildLdpJoinSketch(w.table_a, params, 4.0, sim);
  sim.run_seed = 16;
  const LdpJoinSketchServer sb =
      BuildLdpJoinSketch(w.table_b, params, 4.0, sim);
  EXPECT_NEAR(sa.JoinEstimate(sb) / truth, 1.0, 0.25);
}

TEST(LdpServerTest, JoinEstimateUnbiasedAcrossRuns) {
  // Average the estimator over repeated perturbation runs (fixed data and
  // hashes): the mean should approach the non-private Fast-AGMS estimate of
  // the same data, which is itself within tolerance of the truth.
  const SketchParams params = TestParams(6, 512);
  const uint64_t domain = 500;
  const JoinWorkload w = MakeZipfWorkload(1.6, domain, 40000, 17);
  const double truth = ExactJoinSize(w.table_a, w.table_b);
  double acc = 0;
  const int kRuns = 12;
  for (int run = 0; run < kRuns; ++run) {
    SimulationOptions sim;
    sim.run_seed = 100 + static_cast<uint64_t>(run);
    const LdpJoinSketchServer sa =
        BuildLdpJoinSketch(w.table_a, params, 4.0, sim);
    sim.run_seed = 200 + static_cast<uint64_t>(run);
    const LdpJoinSketchServer sb =
        BuildLdpJoinSketch(w.table_b, params, 4.0, sim);
    acc += sa.JoinEstimate(sb);
  }
  EXPECT_NEAR((acc / kRuns) / truth, 1.0, 0.2);
}

TEST(LdpServerTest, SmallerEpsilonLargerError) {
  const SketchParams params = TestParams(12, 512);
  const uint64_t domain = 500;
  const JoinWorkload w = MakeZipfWorkload(1.5, domain, 60000, 19);
  const double truth = ExactJoinSize(w.table_a, w.table_b);
  auto mean_abs_err = [&](double eps) {
    double acc = 0;
    const int kRuns = 8;
    for (int run = 0; run < kRuns; ++run) {
      SimulationOptions sim;
      sim.run_seed = 300 + static_cast<uint64_t>(run);
      const LdpJoinSketchServer sa =
          BuildLdpJoinSketch(w.table_a, params, eps, sim);
      sim.run_seed = 400 + static_cast<uint64_t>(run);
      const LdpJoinSketchServer sb =
          BuildLdpJoinSketch(w.table_b, params, eps, sim);
      acc += std::abs(sa.JoinEstimate(sb) - truth);
    }
    return acc / kRuns;
  };
  EXPECT_LT(mean_abs_err(8.0), mean_abs_err(0.2));
}

TEST(LdpServerTest, MergeEqualsSequential) {
  const SketchParams params = TestParams(4, 128);
  LdpJoinSketchClient client(params, 2.0);
  LdpJoinSketchServer all(params, 2.0), part1(params, 2.0), part2(params, 2.0);
  Xoshiro256 rng1(1), rng2(1);
  for (int i = 0; i < 5000; ++i) {
    const uint64_t v = static_cast<uint64_t>(i % 97);
    const LdpReport r = client.Perturb(v, rng1);
    all.Absorb(r);
    const LdpReport r2 = client.Perturb(v, rng2);
    (i % 2 == 0 ? part1 : part2).Absorb(r2);
  }
  part1.Merge(part2);
  all.Finalize();
  part1.Finalize();
  // Integer-lane accumulation makes merge exactly lossless.
  for (int j = 0; j < params.k; ++j) {
    for (int x = 0; x < params.m; ++x) {
      EXPECT_EQ(all.cell(j, x), part1.cell(j, x));
    }
  }
  EXPECT_EQ(all.total_reports(), part1.total_reports());
}

TEST(LdpServerTest, ThreadCountDoesNotChangeTotals) {
  const SketchParams params = TestParams(6, 256);
  const JoinWorkload w = MakeZipfWorkload(1.4, 300, 30000, 23);
  SimulationOptions sim1;
  sim1.run_seed = 77;
  sim1.num_threads = 1;
  SimulationOptions sim4 = sim1;
  sim4.num_threads = 4;
  const LdpJoinSketchServer s1 =
      BuildLdpJoinSketch(w.table_a, params, 3.0, sim1);
  const LdpJoinSketchServer s4 =
      BuildLdpJoinSketch(w.table_a, params, 3.0, sim4);
  EXPECT_EQ(s1.total_reports(), s4.total_reports());
  // Block-indexed RNG streams + integer lanes: bit-identical cells for any
  // thread count.
  for (int j = 0; j < params.k; ++j) {
    for (int x = 0; x < params.m; ++x) {
      EXPECT_EQ(s1.cell(j, x), s4.cell(j, x));
    }
  }
}

TEST(LdpServerTest, SubtractUniformMassShiftsEveryCell) {
  const SketchParams params = TestParams(2, 64);
  LdpJoinSketchServer server(params, 1.0);
  server.Finalize();
  LdpJoinSketchServer reference = server;
  server.SubtractUniformMass(640.0);
  for (int j = 0; j < params.k; ++j) {
    for (int x = 0; x < params.m; ++x) {
      EXPECT_NEAR(server.cell(j, x), reference.cell(j, x) - 10.0, 1e-12);
    }
  }
}

TEST(LdpServerTest, SerializeRoundTrip) {
  const SketchParams params = TestParams(3, 128);
  LdpJoinSketchClient client(params, 2.5);
  LdpJoinSketchServer server(params, 2.5);
  Xoshiro256 rng(31);
  for (int i = 0; i < 1000; ++i) {
    server.Absorb(client.Perturb(static_cast<uint64_t>(i % 13), rng));
  }
  server.Finalize();
  const auto bytes = server.Serialize();
  auto restored = LdpJoinSketchServer::Deserialize(bytes);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->total_reports(), server.total_reports());
  EXPECT_TRUE(restored->finalized());
  for (int j = 0; j < params.k; ++j) {
    for (int x = 0; x < params.m; ++x) {
      EXPECT_EQ(restored->cell(j, x), server.cell(j, x));
    }
  }
  // Restored sketch is usable: same frequency answers.
  EXPECT_EQ(restored->FrequencyEstimate(5), server.FrequencyEstimate(5));
}

TEST(LdpServerTest, DeserializeRejectsCorruptedShape) {
  const SketchParams params = TestParams(2, 64);
  LdpJoinSketchServer server(params, 1.0);
  auto bytes = server.Serialize();
  bytes[0] = 0;  // k = 0
  EXPECT_FALSE(LdpJoinSketchServer::Deserialize(bytes).ok());
  // m = 2^31 is a power of two but no SketchParams::m: a clean
  // Corruption, never an abort on the bytes of an untrusted peer.
  bytes = server.Serialize();
  const size_t m_offset = 4 + 1 + 4;  // magic, version, k
  bytes[m_offset] = 0;
  bytes[m_offset + 1] = 0;
  bytes[m_offset + 2] = 0;
  bytes[m_offset + 3] = 0x80;
  EXPECT_EQ(LdpJoinSketchServer::Deserialize(bytes).status().code(),
            StatusCode::kCorruption);
}

TEST(LdpServerTest, DeserializeRejectsTruncation) {
  const SketchParams params = TestParams(2, 64);
  LdpJoinSketchServer server(params, 1.0);
  auto bytes = server.Serialize();
  bytes.resize(bytes.size() / 2);
  EXPECT_FALSE(LdpJoinSketchServer::Deserialize(bytes).ok());
}

TEST(LdpServerTest, DeserializeRejectsTrailingBytes) {
  const SketchParams params = TestParams(2, 64);
  // Raw-lane (un-finalized) encoding.
  LdpJoinSketchServer raw(params, 1.0);
  auto raw_bytes = raw.Serialize();
  raw_bytes.push_back(0);
  EXPECT_EQ(LdpJoinSketchServer::Deserialize(raw_bytes).status().code(),
            StatusCode::kCorruption);
  // Finalized encoding.
  LdpJoinSketchServer finalized(params, 1.0);
  finalized.Finalize();
  auto finalized_bytes = finalized.Serialize();
  finalized_bytes.push_back(0);
  EXPECT_EQ(LdpJoinSketchServer::Deserialize(finalized_bytes).status().code(),
            StatusCode::kCorruption);
}

TEST(LdpServerDeathTest, LifecycleViolationsAbort) {
  const SketchParams params = TestParams(2, 64);
  LdpJoinSketchServer server(params, 1.0);
  LdpJoinSketchServer other(params, 1.0);
  // Estimation before finalize.
  EXPECT_DEATH(server.JoinEstimate(other), "LDPJS_CHECK failed");
  EXPECT_DEATH(server.FrequencyEstimate(0), "LDPJS_CHECK failed");
  server.Finalize();
  // Absorb and merge after finalize.
  LdpReport r{1, 0, 0};
  EXPECT_DEATH(server.Absorb(r), "LDPJS_CHECK failed");
  EXPECT_DEATH(server.Merge(other), "LDPJS_CHECK failed");
  // Double finalize.
  EXPECT_DEATH(server.Finalize(), "LDPJS_CHECK failed");
}

TEST(LdpServerDeathTest, JoinAcrossSeedsAborts) {
  LdpJoinSketchServer a(TestParams(2, 64, 1), 1.0);
  LdpJoinSketchServer b(TestParams(2, 64, 2), 1.0);
  a.Finalize();
  b.Finalize();
  EXPECT_DEATH(a.JoinEstimate(b), "LDPJS_CHECK failed");
}

}  // namespace
}  // namespace ldpjs
