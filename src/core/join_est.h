// JoinEst (paper §V-C, Algorithm 5): join size estimation from a pair of
// FAP sketches after removing the uniform contribution of non-target
// reports (Theorem 8: |NT|/m per cell). The subtraction is not applied to
// any cell: JoinEstimate takes it as a per-sketch shift and evaluates the
// shifted join on the lanes in closed form, so the inputs are not copied.
#ifndef LDPJS_CORE_JOIN_EST_H_
#define LDPJS_CORE_JOIN_EST_H_

#include "core/fap.h"
#include "core/ldp_join_sketch.h"

namespace ldpjs {

struct JoinEstOptions {
  /// Algorithm 5 subtracts the *full-table* estimated non-target mass
  /// (HighFreq_A) even though each phase-2 sketch only aggregates one user
  /// group. The unbiased quantity is the group-scaled mass
  /// HighFreq_A · |group|/|table| (see DESIGN.md deviation #2). False (the
  /// default) uses the group-scaled subtraction; true reproduces the
  /// paper's literal pseudo-code for comparison (bench_ablation).
  bool paper_literal_subtraction = false;
};

/// Per-attribute inputs to JoinEst.
struct JoinEstSide {
  const LdpJoinSketchServer* sketch = nullptr;  ///< FAP sketch with lanes
  double high_freq_mass = 0.0;  ///< estimated full-table Σ_{d∈FI} f(d)
  double table_rows = 0.0;      ///< |A| (full table)
  double group_rows = 0.0;      ///< rows aggregated into `sketch` (|A1|/|A2|)
};

/// Algorithm 5. `mode` selects which reports were targets in the sketches:
/// kLow removes the high-frequency (FI) mass, kHigh removes the rest.
/// Returns the *unscaled* group-level estimate (the caller applies the
/// |A||B|/(|A1||B1|) scale of Algorithm 3 line 6): JoinEstimate with each
/// side's non-target mass / m as its shift.
double JoinEst(const JoinEstSide& side_a, const JoinEstSide& side_b,
               FapMode mode, const JoinEstOptions& options = {});

}  // namespace ldpjs

#endif  // LDPJS_CORE_JOIN_EST_H_
