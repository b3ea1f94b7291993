// Shared parameter structs for the core protocols.
#ifndef LDPJS_CORE_PARAMS_H_
#define LDPJS_CORE_PARAMS_H_

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

/// Shape and hash seed of a private sketch. Two sketches are comparable
/// (joinable / mergeable) iff all three fields match.
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

/// c_ε = (e^ε + 1) / (e^ε − 1), the randomized-response debias factor.
/// Requires ValidEpsilon(epsilon).
double DebiasFactor(double epsilon);

}  // namespace ldpjs

#endif  // LDPJS_CORE_PARAMS_H_
