// Shared parameter structs for the core protocols, and the one rule for
// which LDPJoinSketch sketches may be joined (SameShape) or merged
// (Mergeable).
#ifndef LDPJS_CORE_PARAMS_H_
#define LDPJS_CORE_PARAMS_H_

#include <bit>
#include <cstdint>
#include <limits>

#include "common/hadamard.h"
#include "common/status.h"

namespace ldpjs {

/// The most rows a sketch may have. A report names its row in a uint16_t,
/// so a larger k would wrap rows onto row 0; every sketch constructor and
/// Deserialize refuse it.
inline constexpr int kMaxSketchRows = std::numeric_limits<uint16_t>::max();
/// The most columns a sketch may have: the largest power of two that
/// SketchParams::m (an int) holds.
inline constexpr int kMaxSketchColumns = 1 << 30;
/// The largest privacy budget a sketch accepts. Past ε ≈ 709.78, e^ε
/// overflows a double, the debias factor c_ε = (e^ε + 1) / (e^ε − 1) is
/// inf/inf = NaN, and so is every estimate. Every client and server
/// constructor refuses an ε outside (0, kMaxEpsilon], and every Deserialize
/// returns Corruption for one.
inline constexpr double kMaxEpsilon = 709.0;

/// 0 < ε ≤ kMaxEpsilon (false for NaN).
inline bool ValidEpsilon(double epsilon) {
  return epsilon > 0.0 && epsilon <= kMaxEpsilon;
}

/// Shape and hash seed of a private sketch: (k, m, seed) fix the k public
/// hash pairs (h_j, ξ_j). Which sketches may be joined or merged is decided
/// by SameShape and Mergeable below, and nowhere else.
struct SketchParams {
  int k = 18;        ///< number of rows (paper: k = 4·log(1/δ))
  int m = 1024;      ///< number of columns; must be a power of two (Hadamard)
  uint64_t seed = 1; ///< hash-family seed, public to clients and server

  void Validate() const {
    LDPJS_CHECK(k >= 1 && k <= kMaxSketchRows);
    LDPJS_CHECK(m >= 2);
    LDPJS_CHECK(IsPowerOfTwo(static_cast<uint64_t>(m)));
  }
};

/// Same shape: equal k, m and seed, so two sketches hash every key alike
/// and their cells line up. Joins and frequency runs need this and accept
/// any two budgets.
inline bool SameShape(const SketchParams& a, const SketchParams& b) {
  return a.k == b.k && a.m == b.m && a.seed == b.seed;
}

/// Mergeable: same shape and bit-equal ε. Raw lanes are unscaled vote
/// balances that Finalize scales by one k·c_ε, so lanes collected under two
/// budgets must never be added.
inline bool Mergeable(const SketchParams& a, double epsilon_a,
                      const SketchParams& b, double epsilon_b) {
  return SameShape(a, b) && std::bit_cast<uint64_t>(epsilon_a) ==
                                std::bit_cast<uint64_t>(epsilon_b);
}

/// c_ε = (e^ε + 1) / (e^ε − 1), the randomized-response debias factor.
/// Requires ValidEpsilon(epsilon).
double DebiasFactor(double epsilon);

}  // namespace ldpjs

#endif  // LDPJS_CORE_PARAMS_H_
