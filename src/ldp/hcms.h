// Apple's Hadamard Count-Mean Sketch (HCMS, paper §II/§III-C, [9]).
//
// Client: encode the value as a one-hot row v[h_j(d)] = 1 of a sampled
// sketch row j, Hadamard-transform, sample one coordinate l, flip its sign
// with probability 1/(e^ε + 1), send (y, j, l) — a single ±1 plus indices.
// Server: accumulate k·c_ε·y at [j, l], rotate rows back with H_m, and
// answer debiased frequency queries.
//
// This is the closest prior mechanism to LDPJoinSketch — the only difference
// is the encoding v[h_j(d)] = 1 instead of ξ_j(d) (paper §IV-A), which is
// why HCMS supports frequencies but not sign-correct join inner products.
#ifndef LDPJS_LDP_HCMS_H_
#define LDPJS_LDP_HCMS_H_

#include <cstdint>
#include <vector>

#include "common/hash.h"
#include "common/random.h"
#include "data/column.h"

namespace ldpjs {

struct HcmsParams {
  double epsilon = 1.0;  ///< LDP budget, in (0, kMaxEpsilon]
  int k = 18;    ///< sketch rows
  int m = 1024;  ///< sketch columns; must be a power of two
  uint64_t seed = 1;
};

/// One perturbed user report: the sampled ±1 and the sketch coordinates.
struct HcmsReport {
  int8_t y;    // ±1
  uint16_t j;  // row index in [0, k)
  uint32_t l;  // Hadamard coordinate in [0, m)
};

class HcmsClient {
 public:
  explicit HcmsClient(const HcmsParams& params);

  HcmsReport Perturb(uint64_t value, Xoshiro256& rng) const;

  const HcmsParams& params() const { return params_; }

 private:
  HcmsParams params_;
  double flip_prob_;  // 1 / (e^eps + 1)
  std::vector<BucketHash> buckets_;
};

class HcmsServer {
 public:
  explicit HcmsServer(const HcmsParams& params);

  void Absorb(const HcmsReport& report);

  /// Adds another server's raw (pre-finalize) sketch; both must share params.
  void Merge(const HcmsServer& other);

  /// Rotates the sketch back (M ← M · H_m per row). Absorb is invalid after.
  void Finalize();

  /// Debiased frequency estimate; requires Finalize().
  ///   f̂(d) = (m/(m-1)) · ( mean_j M[j, h_j(d)] − n/m ).
  double EstimateFrequency(uint64_t d) const;

  /// Frequencies for the whole domain. O(domain · k).
  std::vector<double> EstimateAllFrequencies(uint64_t domain) const;

  uint64_t total_reports() const { return total_; }
  bool finalized() const { return finalized_; }
  size_t ByteSize() const { return cells_.size() * sizeof(double); }

 private:
  HcmsParams params_;
  double c_eps_;
  uint64_t total_ = 0;
  bool finalized_ = false;
  std::vector<BucketHash> buckets_;
  std::vector<double> cells_;  // row-major k x m
};

/// End-to-end helper: perturb all of `column`, return calibrated frequencies.
std::vector<double> HcmsEstimateFrequencies(const Column& column,
                                            const HcmsParams& params,
                                            uint64_t run_seed);

}  // namespace ldpjs

#endif  // LDPJS_LDP_HCMS_H_
