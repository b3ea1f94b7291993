// Hash families used by the sketches.
//
// The AGMS analysis (paper §III-A) needs a 4-wise independent ±1 family ξ and
// a (at least pairwise independent) bucket family h. Both are implemented as
// polynomial hashing over the Mersenne prime p = 2^61 - 1: a degree-(t-1)
// polynomial with coefficients drawn uniformly from [0, p) is exactly t-wise
// independent on inputs < p.
//
// TabulationHash is provided as a fast 3-wise-independent alternative used by
// the OLH/FLH baselines where full 4-wise independence is not required.
//
// Domain-wide queries (the LDPJoinSketch+ phase-1 scan, range estimates)
// hash runs of consecutive keys. RowHashes::ForEachInRun evaluates a row's
// (bucket, sign) over such a run for a fraction of the per-key cost, and
// returns exactly the per-key values:
//   - Window property: keys in one 256-aligned window share bytes 1-7, so
//     their tabulation bucket hash is T0[low byte] ^ H, one table read per
//     key, with H computed once per window.
//   - Forward differences: consecutive keys have consecutive residues mod
//     p (also across multiples of p), so the sign cubic steps from one key
//     to the next by three modular additions and no multiply.
#ifndef LDPJS_COMMON_HASH_H_
#define LDPJS_COMMON_HASH_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "common/status.h"

namespace ldpjs {

/// The Mersenne prime 2^61 - 1 used as the field modulus.
inline constexpr uint64_t kMersenne61 = (1ULL << 61) - 1;

/// Keys per tabulation window: the aligned keys that share bytes 1-7.
inline constexpr uint64_t kTabulationWindowKeys = 256;

namespace internal {

/// (a * b) mod (2^61 - 1) without overflow, via 128-bit intermediate.
inline uint64_t MulMod61(uint64_t a, uint64_t b) {
  __uint128_t prod = static_cast<__uint128_t>(a) * b;
  uint64_t lo = static_cast<uint64_t>(prod & kMersenne61);
  uint64_t hi = static_cast<uint64_t>(prod >> 61);
  uint64_t s = lo + hi;
  if (s >= kMersenne61) s -= kMersenne61;
  return s;
}

/// (a + b) mod (2^61 - 1); requires a, b < 2^61 - 1.
inline uint64_t AddMod61(uint64_t a, uint64_t b) {
  uint64_t s = a + b;
  if (s >= kMersenne61) s -= kMersenne61;
  return s;
}

/// (a - b) mod (2^61 - 1); requires a, b < 2^61 - 1.
inline uint64_t SubMod61(uint64_t a, uint64_t b) {
  return a >= b ? a - b : a + kMersenne61 - b;
}

/// Lazy Mersenne fold: for v < 2^124 returns a value ≡ v (mod 2^61 - 1)
/// bounded by 2^61 + 5 — congruent but not canonical, so chains of folds
/// avoid the compare-and-subtract per step. (Callers stay below the domain:
/// the largest product formed is ~(2^62)·(2^61+6) < 2^124.)
inline uint64_t FoldMod61(__uint128_t v) {
  const uint64_t s = (static_cast<uint64_t>(v) & kMersenne61) +
                     static_cast<uint64_t>(v >> 61);
  return (s & kMersenne61) + (s >> 61);
}

}  // namespace internal

/// Degree-(t-1) polynomial over GF(2^61 - 1): a t-wise independent family.
/// Evaluation is Horner's rule, O(t) multiplications — defined inline
/// because it sits on the per-report client hot path.
class PolynomialHash {
 public:
  /// Draws `degree_plus_one` coefficients from the stream seeded by `seed`.
  /// `degree_plus_one` == t gives t-wise independence. The leading coefficient
  /// is forced non-zero so the polynomial has full degree.
  PolynomialHash(uint64_t seed, int degree_plus_one);

  /// Evaluates the polynomial at x (reduced mod p first). Result in [0, p).
  /// Identical values to the canonical Horner evaluation; the degree-3
  /// (4-wise) case — the sign-hash workhorse — uses an Estrin split with
  /// lazy Mersenne folds, which halves the serial multiply chain.
  uint64_t operator()(uint64_t x) const {
    const uint64_t xr = (x & kMersenne61) + (x >> 61);  // ≡ x (mod p)
    uint64_t acc;
    if (coeffs_.size() == 4) {
      // (c0·x + c1)·x² + (c2·x + c3): the three products are independent,
      // so the chain is two multiplies deep instead of three.
      const uint64_t a =
          internal::FoldMod61(static_cast<__uint128_t>(coeffs_[0]) * xr) +
          coeffs_[1];
      const uint64_t b =
          internal::FoldMod61(static_cast<__uint128_t>(coeffs_[2]) * xr) +
          coeffs_[3];
      const uint64_t x2 =
          internal::FoldMod61(static_cast<__uint128_t>(xr) * xr);
      acc = internal::FoldMod61(static_cast<__uint128_t>(a) * x2) + b;
    } else {
      acc = coeffs_[0];
      for (size_t i = 1; i < coeffs_.size(); ++i) {
        acc = internal::FoldMod61(static_cast<__uint128_t>(acc) * xr) +
              coeffs_[i];
      }
    }
    acc = (acc & kMersenne61) + (acc >> 61);
    if (acc >= kMersenne61) acc -= kMersenne61;
    return acc;
  }

  int independence() const { return static_cast<int>(coeffs_.size()); }

  /// Coefficients, leading first (for callers that inline the evaluation).
  const std::vector<uint64_t>& coeffs() const { return coeffs_; }

 private:
  std::vector<uint64_t> coeffs_;  // coeffs_[0] is the leading coefficient.
};

class TabulationHash;  // forward declaration, defined below

/// Bucket hash h : U -> [0, m), 3-wise independent via simple tabulation
/// plus multiply-shift reduction. m need not be a power of two, but must be
/// <= 2^32.
///
/// Tabulation (rather than an affine polynomial over GF(p)) matters for real
/// workloads: sequential keys under an affine hash form an arithmetic
/// progression whose bucket collisions are lattice-structured — per-seed
/// collision counts are heavy-tailed instead of binomial. Tabulation behaves
/// like a random function on such inputs (Pătraşcu & Thorup).
///
/// Table entries are 32-bit: sketch widths are far below 2^32, so the
/// multiply-shift bias O(m / 2^32) is negligible, and the 8 KiB table (vs
/// 16 KiB with 64-bit entries) keeps the k per-row tables of a sketch
/// L2-resident on the client hot path.
class BucketHash {
 public:
  /// `m` is the number of buckets; requires 1 <= m <= 2^32.
  BucketHash(uint64_t seed, uint64_t m);

  /// Bucket index in [0, m). Inline: per-report client hot path.
  uint64_t operator()(uint64_t x) const {
    uint32_t h = 0;
    for (size_t byte = 0; byte < 8; ++byte) {
      h ^= tables_[byte][(x >> (8 * byte)) & 0xff];
    }
    // Multiply-shift reduction onto [0, m): unbiased up to O(m / 2^32).
    return (static_cast<uint64_t>(h) * m_) >> 32;
  }

  uint64_t num_buckets() const { return m_; }

 private:
  friend struct RowHashes;

  /// XOR of the table entries for bytes 1-7 of x: the part of the hash that
  /// every key in x's 256-aligned window shares.
  uint32_t WindowHigh(uint64_t x) const {
    uint32_t h = 0;
    for (size_t byte = 1; byte < 8; ++byte) {
      h ^= tables_[byte][(x >> (8 * byte)) & 0xff];
    }
    return h;
  }

  std::array<std::array<uint32_t, 256>, 8> tables_;
  uint64_t m_;
};

/// 4-wise independent sign hash ξ : U -> {-1, +1} (paper notation ξ_j).
/// Implemented as the parity of a high bit of a degree-3 polynomial.
class SignHash {
 public:
  explicit SignHash(uint64_t seed);

  /// +1 or -1. Inline: per-report client hot path. Same Estrin/lazy-fold
  /// evaluation as PolynomialHash, on coefficients held in-object so the
  /// hot loop dereferences no heap pointer.
  int operator()(uint64_t x) const {
    const uint64_t xr = (x & kMersenne61) + (x >> 61);  // ≡ x (mod p)
    const uint64_t a =
        internal::FoldMod61(static_cast<__uint128_t>(c_[0]) * xr) + c_[1];
    const uint64_t b =
        internal::FoldMod61(static_cast<__uint128_t>(c_[2]) * xr) + c_[3];
    const uint64_t x2 = internal::FoldMod61(static_cast<__uint128_t>(xr) * xr);
    uint64_t acc = internal::FoldMod61(static_cast<__uint128_t>(a) * x2) + b;
    acc = (acc & kMersenne61) + (acc >> 61);
    if (acc >= kMersenne61) acc -= kMersenne61;
    // Use a mid bit of the 4-wise independent value as the sign bit.
    return (acc >> 30) & 1 ? +1 : -1;
  }

 private:
  friend struct RowHashes;

  /// The polynomial's canonical residue at x, by Horner's rule over
  /// canonical operands: the value whose bit 30 operator() returns.
  uint64_t Residue(uint64_t x) const {
    uint64_t xr = (x & kMersenne61) + (x >> 61);
    if (xr >= kMersenne61) xr -= kMersenne61;
    uint64_t acc = c_[0];
    for (size_t i = 1; i < c_.size(); ++i) {
      acc = internal::AddMod61(internal::MulMod61(acc, xr), c_[i]);
    }
    return acc;
  }

  std::array<uint64_t, 4> c_;  // degree-3 polynomial, leading first
};

/// A (h_j, ξ_j) pair for one sketch row, as used by Fast-AGMS (paper §III-A).
struct RowHashes {
  BucketHash bucket;
  SignHash sign;

  /// Calls visit(i, bucket(first + i), sign(first + i)) for i = 0, ..., n-1
  /// in ascending order, with exactly the values of the per-key calls (see
  /// the file comment for how a run shares work). The last key, first + n -
  /// 1, must not pass UINT64_MAX. A run of fewer than 4 keys, too short to
  /// seed the forward differences, evaluates each key directly.
  template <typename Visit>
  void ForEachInRun(uint64_t first, uint64_t n, const Visit& visit) const {
    if (n < 4) {
      for (uint64_t i = 0; i < n; ++i) {
        visit(i, bucket(first + i), sign(first + i));
      }
      return;
    }
    using internal::AddMod61;
    using internal::SubMod61;
    // p(x0 + i) for i = 0..3, then its first, second and third differences.
    const uint64_t p0 = sign.Residue(first);
    const uint64_t p1 = sign.Residue(first + 1);
    const uint64_t p2 = sign.Residue(first + 2);
    const uint64_t p3 = sign.Residue(first + 3);
    const uint64_t e1 = SubMod61(p1, p0);
    const uint64_t e2 = SubMod61(p2, p1);
    const uint64_t f1 = SubMod61(e2, e1);
    const uint64_t d3 = SubMod61(SubMod61(SubMod61(p3, p2), e2), f1);
    uint64_t value = p0;
    uint64_t d1 = e1;
    uint64_t d2 = f1;
    const auto& low = bucket.tables_[0];
    for (uint64_t i = 0; i < n;) {
      const uint64_t key = first + i;
      const uint64_t window_end = std::min(
          n, i + (kTabulationWindowKeys - key % kTabulationWindowKeys));
      const uint32_t high = bucket.WindowHigh(key);
      for (; i < window_end; ++i) {
        const uint32_t h = low[(first + i) & 0xff] ^ high;
        // sign(): +1 when bit 30 is set, else -1, computed without a
        // branch (a random sign mispredicts half the time).
        visit(i, (static_cast<uint64_t>(h) * bucket.m_) >> 32,
              static_cast<int>((value >> 29) & 2) - 1);
        value = AddMod61(value, d1);
        d1 = AddMod61(d1, d2);
        d2 = AddMod61(d2, d3);
      }
    }
  }
};

/// Builds the k per-row hash pairs {(h_0, ξ_0), ..., (h_{k-1}, ξ_{k-1})}
/// deterministically from `seed`. All sketches that must be mergeable /
/// comparable (e.g. M_A and M_B for a join) must be built from the same seed.
std::vector<RowHashes> MakeRowHashes(uint64_t seed, int k, uint64_t m);

/// Simple tabulation hashing on the 8 bytes of the key: 3-wise independent,
/// very fast. Output is a full 64-bit value; reduce with NextBounded-style
/// multiply-shift if a range is needed.
class TabulationHash {
 public:
  explicit TabulationHash(uint64_t seed);

  uint64_t operator()(uint64_t x) const {
    uint64_t h = 0;
    for (size_t byte = 0; byte < 8; ++byte) {
      h ^= tables_[byte][(x >> (8 * byte)) & 0xff];
    }
    return h;
  }

 private:
  std::array<std::array<uint64_t, 256>, 8> tables_;
};

}  // namespace ldpjs

#endif  // LDPJS_COMMON_HASH_H_
