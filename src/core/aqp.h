// Approximate query processing on private sketches (paper §I, application
// 3, and the conclusion's "general join aggregation" direction): once an
// LDPJoinSketch exists for a column, several relational estimates come for
// free without touching users again:
//
//   COUNT(*)  WHERE A BETWEEN lo AND hi    — range-sum of Thm-7 frequencies
//   COUNT(DISTINCT-ish support)            — values with f̂ above a noise floor
//   JOIN COUNT WHERE key BETWEEN lo AND hi — per-value product accumulation
//                                            restricted to the range
//   SUM(w(A)) for a public weight function — weighted frequency sum
//
// These estimators accumulate per-value sketch noise over the queried
// range (like the frequency-oracle baselines do over the whole domain), so
// they are most accurate for selective predicates; the unrestricted join
// should always use LdpJoinSketchServer::JoinEstimate.
//
// Each estimator evaluates f̂ over its range with FrequencyEstimateRun, one
// 256-key window at a time, then combines the values in ascending key
// order: every answer is bit-identical to the same sum over per-key
// FrequencyEstimate calls.
#ifndef LDPJS_CORE_AQP_H_
#define LDPJS_CORE_AQP_H_

#include <cstdint>
#include <functional>

#include "core/ldp_join_sketch.h"

namespace ldpjs {

/// Closed value range [lo, hi] over the join-attribute domain.
struct ValueRange {
  uint64_t lo = 0;
  uint64_t hi = 0;

  bool Contains(uint64_t v) const { return v >= lo && v <= hi; }
  uint64_t Width() const { return hi - lo + 1; }
};

/// Estimated COUNT(*) WHERE A in range: Σ_{d in range} f̂(d).
/// Requires a finalized sketch and range.hi < domain.
double RangeCountEstimate(const LdpJoinSketchServer& sketch,
                          const ValueRange& range);

/// Estimated SUM(weight(A)) WHERE A in range for a public per-value weight,
/// which is called once per key in ascending order.
double RangeWeightedSumEstimate(const LdpJoinSketchServer& sketch,
                                const ValueRange& range,
                                const std::function<double(uint64_t)>& weight);

/// Estimated join size restricted to keys in the range:
/// Σ_{d in range} f̂_A(d) · f̂_B(d). The sketches must share k, m and the
/// hash seed, so each row's hashes serve both.
double PredicateJoinEstimate(const LdpJoinSketchServer& sketch_a,
                             const LdpJoinSketchServer& sketch_b,
                             const ValueRange& range);

/// Values in the range whose estimated frequency exceeds `floor` — a
/// noise-aware support estimate. `floor` should be a few multiples of the
/// per-value noise std c_ε·sqrt(n·k)/sqrt(k·m)... practical choice:
/// NoiseFloorSuggestion() below.
uint64_t SupportSizeEstimate(const LdpJoinSketchServer& sketch,
                             const ValueRange& range, double floor);

/// ~3 standard deviations of the Thm-7 frequency estimator for this sketch.
/// Each finalized cell carries sampling noise of variance c_ε²·n·k; the
/// mean over the k independent rows therefore has std c_ε·sqrt(n), giving
/// the floor 3·c_ε·sqrt(total_reports).
double NoiseFloorSuggestion(const LdpJoinSketchServer& sketch);

}  // namespace ldpjs

#endif  // LDPJS_CORE_AQP_H_
