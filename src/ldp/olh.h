// Optimal Local Hashing (OLH) and its heuristic fast variant FLH (paper §II,
// [17]). The client hashes its value into a small range [0, g) with a hash
// function drawn from a public pool, then applies g-ary randomized response
// to the hashed value; the server counts support per (hash, output) pair and
// calibrates. FLH ("fast" OLH) limits the pool to `pool_size` functions,
// trading accuracy for evaluation speed — the support scan is still
// O(|D| * pool_size), which reproduces the efficiency gap the paper reports
// for frequency-oracle baselines on large domains.
#ifndef LDPJS_LDP_OLH_H_
#define LDPJS_LDP_OLH_H_

#include <cstdint>
#include <vector>

#include "common/hash.h"
#include "common/random.h"
#include "data/column.h"

namespace ldpjs {

/// The largest hash range g FLH uses. The server keeps pool_size · g
/// counters, so an unbounded OLH-optimal g (e^20 + 1 ≈ 4.85e8) would not
/// fit in memory. 2^16 leaves g unchanged for every ε ≤ 11, and g-ary
/// randomized response with keep probability e^ε/(e^ε + g − 1) is ε-LDP
/// for every g ≥ 2, so the bound costs accuracy, never privacy.
inline constexpr uint32_t kMaxFlhG = 1u << 16;

struct FlhParams {
  double epsilon = 1.0;  ///< in (0, kMaxEpsilon]
  /// Number of candidate hash functions (FLH heuristic). Larger = closer to
  /// true OLH but slower server-side evaluation.
  uint32_t pool_size = 1024;
  /// Hash range g; 0 means the OLH-optimal round(e^epsilon + 1). Either is
  /// clamped to kMaxFlhG.
  uint32_t g = 0;
  uint64_t seed = 1;
};

/// One perturbed user report: which pool hash the user picked and the
/// g-ary-randomized hashed value.
struct FlhReport {
  uint32_t hash_index;
  uint32_t value;  // in [0, g)
};

class FlhClient {
 public:
  explicit FlhClient(const FlhParams& params);

  FlhReport Perturb(uint64_t value, Xoshiro256& rng) const;

  uint32_t g() const { return g_; }
  uint32_t pool_size() const { return params_.pool_size; }
  /// Hash of `value` under pool function `index` (shared with the server).
  uint32_t HashValue(uint32_t index, uint64_t value) const;

 private:
  FlhParams params_;
  uint32_t g_;
  double keep_prob_;  // e^eps / (e^eps + g - 1)
  std::vector<TabulationHash> pool_;
};

class FlhServer {
 public:
  /// Must be constructed with the same params as the clients.
  explicit FlhServer(const FlhParams& params);

  void Absorb(const FlhReport& report);

  /// Calibrated frequency estimate of d:
  ///   f̂(d) = (support(d) - n/g) / (p - 1/g),
  /// support(d) = Σ_i counts[i][h_i(d)]. O(pool_size) per query.
  double EstimateFrequency(uint64_t d) const;

  /// Frequencies for the whole domain [0, domain). O(domain * pool_size).
  std::vector<double> EstimateAllFrequencies(uint64_t domain) const;

  uint64_t total_reports() const { return total_; }

 private:
  FlhClient hasher_;  // reuses the client's pool for support counting
  uint32_t g_;
  double keep_prob_;
  uint64_t total_ = 0;
  std::vector<uint64_t> counts_;  // [pool_size][g] row-major
};

/// End-to-end helper: perturb all of `column`, return calibrated frequencies.
std::vector<double> FlhEstimateFrequencies(const Column& column,
                                           const FlhParams& params,
                                           uint64_t run_seed);

}  // namespace ldpjs

#endif  // LDPJS_LDP_OLH_H_
