// LDPJoinSketch+ (paper §V, Algorithm 3): the two-phase protocol that
// reduces hash-collision error by summarizing high- and low-frequency items
// in separate FAP sketches.
//
// Phase 1: a sampled fraction r of each table's users runs plain
// LDPJoinSketch; the server finds the frequent item set FI (union over both
// attributes, threshold θ) and broadcasts it.
// Phase 2: the remaining users are split into two groups per table; group 1
// builds the low-frequency sketch, group 2 the high-frequency sketch, both
// via FAP (each group spends the full ε by parallel composition). JoinEst
// removes the non-target mass from each sketch; the final estimate is the
// sum of the rescaled low and high estimates (Algorithm 3 line 6).
#ifndef LDPJS_CORE_LDP_JOIN_SKETCH_PLUS_H_
#define LDPJS_CORE_LDP_JOIN_SKETCH_PLUS_H_

#include <cstdint>

#include "core/join_est.h"
#include "core/params.h"
#include "core/simulation.h"
#include "data/column.h"

namespace ldpjs {

struct LdpJoinSketchPlusParams {
  SketchParams sketch;          ///< shape/seed used by both phases
  double epsilon = 4.0;         ///< per-report LDP budget ε
  double sample_rate = 0.1;     ///< r: fraction of users sampled for phase 1
  double threshold = 0.001;     ///< θ: frequent-item threshold (fraction)
  JoinEstOptions join_est;      ///< subtraction variant (see join_est.h)
  SimulationOptions simulation; ///< run seed / threads

  void Validate() const {
    sketch.Validate();
    LDPJS_CHECK(ValidEpsilon(epsilon));
    LDPJS_CHECK(sample_rate > 0.0 && sample_rate < 1.0);
    LDPJS_CHECK(threshold > 0.0 && threshold < 1.0);
  }
};

/// Estimate plus the diagnostics every experiment in §VII reports on.
struct LdpJoinSketchPlusResult {
  double estimate = 0.0;       ///< final |A ⋈ B| estimate
  double low_estimate = 0.0;   ///< rescaled LEst contribution
  double high_estimate = 0.0;  ///< rescaled HEst contribution
  size_t frequent_item_count = 0;
  double high_freq_mass_a = 0.0;  ///< estimated Σ_{d∈FI} f_A(d), full table
  double high_freq_mass_b = 0.0;
  uint64_t sample_rows_a = 0;  ///< |S_A|
  uint64_t sample_rows_b = 0;
  uint64_t group_rows_a[2] = {0, 0};  ///< |A1|, |A2|
  uint64_t group_rows_b[2] = {0, 0};
  double offline_seconds = 0.0;  ///< perturbation + sketch construction
  double online_seconds = 0.0;   ///< FI search + JoinEst
};

/// Runs the full two-phase protocol over the two private join columns.
/// Users are partitioned (sample / group 1 / group 2) by per-user coin flips
/// derived from the run seed, mirroring the paper's random user split.
LdpJoinSketchPlusResult EstimateJoinSizePlus(
    const Column& table_a, const Column& table_b,
    const LdpJoinSketchPlusParams& params);

}  // namespace ldpjs

#endif  // LDPJS_CORE_LDP_JOIN_SKETCH_PLUS_H_
