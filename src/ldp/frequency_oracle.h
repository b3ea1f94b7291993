// Shared vocabulary for the LDP frequency-oracle baselines (paper §II and
// §VII "Competitors"): each mechanism has a stateless client that perturbs
// one private value into a report, and a server that aggregates reports and
// answers calibrated frequency queries over a known candidate domain.
//
// Join size estimation with a frequency oracle is the accumulation the paper
// criticizes: |A ⋈ B| ≈ Σ_d f̂_A(d) · f̂_B(d) over the whole domain, which is
// where the cumulative noise of these baselines comes from.
#ifndef LDPJS_LDP_FREQUENCY_ORACLE_H_
#define LDPJS_LDP_FREQUENCY_ORACLE_H_

#include <cstdint>
#include <span>
#include <vector>

namespace ldpjs {

/// Join-size estimate from two estimated frequency vectors (equal length):
/// the plain inner product. Negative estimates are kept (unbiasedness).
double JoinSizeFromFrequencies(std::span<const double> freq_a,
                               std::span<const double> freq_b);

/// Per-user communication cost in bits for each mechanism (Fig. 7 model).
struct CommCostModel {
  /// k-RR transmits one value out of `domain`.
  static double KrrBitsPerUser(uint64_t domain);
  /// OLH/FLH transmits (hash index out of `pool`, value out of `g`).
  static double FlhBitsPerUser(uint64_t pool, uint64_t g);
  /// HCMS and LDPJoinSketch transmit one ±1 bit plus row/column indices.
  static double HadamardSketchBitsPerUser(int k, int m);
};

}  // namespace ldpjs

#endif  // LDPJS_LDP_FREQUENCY_ORACLE_H_
