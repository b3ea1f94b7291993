#include "common/hash.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"

namespace ldpjs {
namespace {

TEST(PolynomialHashTest, DeterministicForSeed) {
  PolynomialHash h1(11, 4), h2(11, 4), h3(12, 4);
  bool any_diff = false;
  for (uint64_t x = 0; x < 100; ++x) {
    EXPECT_EQ(h1(x), h2(x));
    if (h1(x) != h3(x)) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(PolynomialHashTest, OutputBelowMersennePrime) {
  PolynomialHash h(99, 4);
  for (uint64_t x = 0; x < 1000; ++x) {
    EXPECT_LT(h(x * 0x9e3779b97f4a7c15ULL), kMersenne61);
  }
}

TEST(PolynomialHashTest, IndependenceDegreeIsStored) {
  EXPECT_EQ(PolynomialHash(1, 2).independence(), 2);
  EXPECT_EQ(PolynomialHash(1, 4).independence(), 4);
}

TEST(MulMod61Test, MatchesSmallCases) {
  EXPECT_EQ(internal::MulMod61(3, 5), 15u);
  EXPECT_EQ(internal::MulMod61(kMersenne61 - 1, 1), kMersenne61 - 1);
  // (p-1)*(p-1) mod p = 1 since (p-1) ≡ -1 (mod p).
  EXPECT_EQ(internal::MulMod61(kMersenne61 - 1, kMersenne61 - 1), 1u);
}

TEST(AddMod61Test, WrapsAround) {
  EXPECT_EQ(internal::AddMod61(kMersenne61 - 1, 1), 0u);
  EXPECT_EQ(internal::AddMod61(5, 6), 11u);
}

TEST(BucketHashTest, InRange) {
  const uint64_t m = 77;  // non power of two on purpose
  BucketHash h(5, m);
  EXPECT_EQ(h.num_buckets(), m);
  for (uint64_t x = 0; x < 10000; ++x) {
    EXPECT_LT(h(x), m);
  }
}

TEST(BucketHashTest, ApproximatelyUniform) {
  const uint64_t m = 64;
  BucketHash h(17, m);
  std::vector<int> counts(m, 0);
  const int n = 64000;
  for (int x = 0; x < n; ++x) ++counts[h(static_cast<uint64_t>(x))];
  const double expected = static_cast<double>(n) / static_cast<double>(m);
  for (uint64_t b = 0; b < m; ++b) {
    EXPECT_GT(counts[b], expected * 0.75) << "bucket " << b;
    EXPECT_LT(counts[b], expected * 1.25) << "bucket " << b;
  }
}

TEST(BucketHashTest, PairwiseCollisionRateNearOneOverM) {
  const uint64_t m = 128;
  int collisions = 0;
  const int kPairs = 20000;
  for (int t = 0; t < kPairs; ++t) {
    BucketHash h(1000 + static_cast<uint64_t>(t), m);
    if (h(2 * static_cast<uint64_t>(t)) == h(2 * static_cast<uint64_t>(t) + 1)) {
      ++collisions;
    }
  }
  const double rate = static_cast<double>(collisions) / kPairs;
  EXPECT_NEAR(rate, 1.0 / static_cast<double>(m), 0.004);
}

TEST(SignHashTest, OutputsPlusMinusOne) {
  SignHash xi(23);
  for (uint64_t x = 0; x < 1000; ++x) {
    const int s = xi(x);
    EXPECT_TRUE(s == 1 || s == -1);
  }
}

TEST(SignHashTest, BalancedSigns) {
  SignHash xi(29);
  int sum = 0;
  const int n = 100000;
  for (int x = 0; x < n; ++x) sum += xi(static_cast<uint64_t>(x));
  EXPECT_LT(std::abs(sum), 1500);  // ~4.7 sigma for fair coin
}

TEST(SignHashTest, PairProductMeanNearZero) {
  // E[ξ(a)ξ(b)] = 0 for a != b over the hash family.
  double acc = 0;
  const int kFamilies = 20000;
  for (int t = 0; t < kFamilies; ++t) {
    SignHash xi(40000 + static_cast<uint64_t>(t));
    acc += xi(1) * xi(2);
  }
  EXPECT_NEAR(acc / kFamilies, 0.0, 0.02);
}

TEST(SignHashTest, FourWiseProductMeanNearZero) {
  // E[ξ(a)ξ(b)ξ(c)ξ(d)] = 0 for distinct a,b,c,d — needs 4-wise
  // independence, which degree-3 polynomials provide.
  double acc = 0;
  const int kFamilies = 20000;
  for (int t = 0; t < kFamilies; ++t) {
    SignHash xi(90000 + static_cast<uint64_t>(t));
    acc += xi(10) * xi(20) * xi(30) * xi(40);
  }
  EXPECT_NEAR(acc / kFamilies, 0.0, 0.02);
}

TEST(RowHashesTest, SameSeedSameFamilies) {
  auto rows1 = MakeRowHashes(77, 5, 64);
  auto rows2 = MakeRowHashes(77, 5, 64);
  ASSERT_EQ(rows1.size(), 5u);
  for (size_t j = 0; j < rows1.size(); ++j) {
    for (uint64_t x = 0; x < 200; ++x) {
      EXPECT_EQ(rows1[j].bucket(x), rows2[j].bucket(x));
      EXPECT_EQ(rows1[j].sign(x), rows2[j].sign(x));
    }
  }
}

TEST(RowHashesTest, RowsAreDistinct) {
  auto rows = MakeRowHashes(88, 4, 1024);
  int diff = 0;
  for (uint64_t x = 0; x < 200; ++x) {
    if (rows[0].bucket(x) != rows[1].bucket(x)) ++diff;
  }
  EXPECT_GT(diff, 150);  // different rows hash differently almost always
}

// A run of consecutive keys must yield exactly the per-key (bucket, sign):
// the run shares tabulation work within 256-aligned windows and steps the
// sign cubic by forward differences, and both shortcuts have edges.
TEST(RowHashesTest, RunMatchesPerKeyHashes) {
  struct Run {
    uint64_t first;
    uint64_t n;
  };
  std::vector<Run> runs = {
      {0, 0},    {0, 1},   {0, 3},   {0, 4},     {0, 256}, {0, 700},
      {253, 3},  {253, 4}, {254, 5}, {255, 1},   {255, 2}, {255, 257},
      {256, 256}, {511, 514},
  };
  // Starts just below multiples of p = 2^61 - 1, where the residue wraps to
  // 0 mid-run, and of 2^61, where the fold (x mod 2^61) + (x >> 61) carries.
  for (uint64_t j = 1; j <= 7; ++j) {
    for (const uint64_t base : {j << 61, j * kMersenne61}) {
      runs.push_back({base - 3, 300});
      runs.push_back({base - 1, 4});
    }
  }
  // Runs that end at UINT64_MAX: 1-3 keys evaluate directly, longer ones
  // step to the last key without wrapping.
  for (const uint64_t n : {1, 2, 3, 4, 5, 256, 300}) {
    runs.push_back({UINT64_MAX - (n - 1), n});
  }
  uint64_t sm = 12345;
  for (int t = 0; t < 200; ++t) {
    // Starts of every magnitude: a 64-bit draw shifted right 0-63 bits.
    const uint64_t draw = SplitMix64Next(sm);
    const uint64_t first = draw >> (SplitMix64Next(sm) % 64);
    const uint64_t n = SplitMix64Next(sm) % 600;
    runs.push_back({std::min(first, UINT64_MAX - n), n});
  }
  // m = 2^32 keeps the full 32-bit tabulation hash in the bucket.
  for (const uint64_t m : {uint64_t{1024}, uint64_t{1000}, uint64_t{1} << 32}) {
    const std::vector<RowHashes> rows = MakeRowHashes(m + 5, 2, m);
    for (const RowHashes& row : rows) {
      for (const Run& run : runs) {
        SCOPED_TRACE(::testing::Message() << "m=" << m << " first="
                                          << run.first << " n=" << run.n);
        std::vector<uint64_t> keys, buckets, want_buckets;
        std::vector<int> signs, want_signs;
        row.ForEachInRun(run.first, run.n,
                         [&](uint64_t i, uint64_t bucket, int sign) {
                           keys.push_back(i);
                           buckets.push_back(bucket);
                           signs.push_back(sign);
                         });
        std::vector<uint64_t> want_keys;
        for (uint64_t i = 0; i < run.n; ++i) {
          want_keys.push_back(i);
          want_buckets.push_back(row.bucket(run.first + i));
          want_signs.push_back(row.sign(run.first + i));
        }
        ASSERT_EQ(keys, want_keys);
        ASSERT_EQ(buckets, want_buckets);
        ASSERT_EQ(signs, want_signs);
      }
    }
  }
}

TEST(TabulationHashTest, DeterministicAndSeedSensitive) {
  TabulationHash h1(3), h2(3), h3(4);
  bool any_diff = false;
  for (uint64_t x = 0; x < 100; ++x) {
    EXPECT_EQ(h1(x), h2(x));
    if (h1(x) != h3(x)) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(TabulationHashTest, AvalancheOnSingleBitFlip) {
  TabulationHash h(5);
  double total = 0;
  const int kTrials = 512;
  for (int t = 0; t < kTrials; ++t) {
    const uint64_t x = static_cast<uint64_t>(t) * 0x9e3779b97f4a7c15ULL;
    total += std::popcount(h(x) ^ h(x ^ (1ULL << (static_cast<unsigned>(t) % 64))));
  }
  EXPECT_GT(total / kTrials, 24.0);
  EXPECT_LT(total / kTrials, 40.0);
}

// Property sweep: bucket hashes stay in range and stay deterministic for a
// grid of (seed, m) configurations.
class BucketHashParamTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, uint64_t>> {};

TEST_P(BucketHashParamTest, RangeAndDeterminism) {
  const auto [seed, m] = GetParam();
  BucketHash a(seed, m), b(seed, m);
  for (uint64_t x = 0; x < 2000; ++x) {
    const uint64_t va = a(x);
    EXPECT_LT(va, m);
    EXPECT_EQ(va, b(x));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, BucketHashParamTest,
    ::testing::Combine(::testing::Values(1u, 42u, 0xdeadbeefu),
                       ::testing::Values(2u, 3u, 64u, 1024u, 1u << 20)));

}  // namespace
}  // namespace ldpjs
