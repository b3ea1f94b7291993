// k-ary Randomized Response (paper §II, [6]): the basic LDP mechanism over a
// finite domain D. The client keeps its value with probability
// e^ε / (e^ε + |D| - 1) and otherwise reports a uniformly random *other*
// value; the server calibrates the observed histogram back to unbiased
// frequency estimates. Noise grows with |D|, which is exactly the weakness
// the paper's sketches avoid.
#ifndef LDPJS_LDP_KRR_H_
#define LDPJS_LDP_KRR_H_

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "data/column.h"
#include "ldp/frequency_oracle.h"

namespace ldpjs {

class KrrClient {
 public:
  /// Mechanism over [0, domain) with privacy budget epsilon in
  /// (0, kMaxEpsilon].
  KrrClient(uint64_t domain, double epsilon);

  /// Perturbs one private value; the output is safe to release.
  uint64_t Perturb(uint64_t value, Xoshiro256& rng) const;

  double keep_probability() const { return keep_prob_; }
  uint64_t domain() const { return domain_; }

 private:
  uint64_t domain_;
  double keep_prob_;  // e^eps / (e^eps + |D| - 1)
};

class KrrServer {
 public:
  /// The clients' domain and epsilon, in (0, kMaxEpsilon].
  KrrServer(uint64_t domain, double epsilon);

  void Absorb(uint64_t report);

  /// Calibrated unbiased estimate f̂(d) = (c(d) - n q) / (p - q), where p is
  /// the keep probability and q = (1 - p)/(|D| - 1).
  double EstimateFrequency(uint64_t d) const;

  /// All calibrated frequencies (length = domain).
  std::vector<double> EstimateAllFrequencies() const;

  uint64_t total_reports() const { return total_; }

 private:
  uint64_t domain_;
  double p_;  // keep probability
  double q_;  // per-other-value probability
  uint64_t total_ = 0;
  std::vector<uint64_t> counts_;
};

/// End-to-end: perturbs every value of `column` (deterministic in seed) and
/// returns the calibrated frequency vector.
std::vector<double> KrrEstimateFrequencies(const Column& column,
                                           double epsilon, uint64_t seed);

}  // namespace ldpjs

#endif  // LDPJS_LDP_KRR_H_
