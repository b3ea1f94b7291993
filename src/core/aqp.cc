#include "core/aqp.h"

#include <cmath>

namespace ldpjs {

namespace {
void ValidateRange(const LdpJoinSketchServer& sketch,
                   const ValueRange& range) {
  LDPJS_CHECK(sketch.finalized());
  LDPJS_CHECK(range.lo <= range.hi);
}

/// Calls visit(d) for d = lo, lo + 1, ..., hi in ascending order. The loop
/// stops after visiting hi instead of testing d <= hi, which never fails
/// when hi == UINT64_MAX (d wraps to 0).
template <typename Visit>
void ForEachValue(const ValueRange& range, const Visit& visit) {
  for (uint64_t d = range.lo;; ++d) {
    visit(d);
    if (d == range.hi) return;
  }
}
}  // namespace

double RangeCountEstimate(const LdpJoinSketchServer& sketch,
                          const ValueRange& range) {
  ValidateRange(sketch, range);
  double total = 0.0;
  ForEachValue(range,
               [&](uint64_t d) { total += sketch.FrequencyEstimate(d); });
  return total;
}

double RangeWeightedSumEstimate(
    const LdpJoinSketchServer& sketch, const ValueRange& range,
    const std::function<double(uint64_t)>& weight) {
  ValidateRange(sketch, range);
  double total = 0.0;
  ForEachValue(range, [&](uint64_t d) {
    total += weight(d) * sketch.FrequencyEstimate(d);
  });
  return total;
}

double PredicateJoinEstimate(const LdpJoinSketchServer& sketch_a,
                             const LdpJoinSketchServer& sketch_b,
                             const ValueRange& range) {
  ValidateRange(sketch_a, range);
  ValidateRange(sketch_b, range);
  LDPJS_CHECK(sketch_a.params().seed == sketch_b.params().seed);
  double total = 0.0;
  ForEachValue(range, [&](uint64_t d) {
    total += sketch_a.FrequencyEstimate(d) * sketch_b.FrequencyEstimate(d);
  });
  return total;
}

uint64_t SupportSizeEstimate(const LdpJoinSketchServer& sketch,
                             const ValueRange& range, double floor) {
  ValidateRange(sketch, range);
  uint64_t support = 0;
  ForEachValue(range, [&](uint64_t d) {
    if (sketch.FrequencyEstimate(d) > floor) ++support;
  });
  return support;
}

double NoiseFloorSuggestion(const LdpJoinSketchServer& sketch) {
  return 3.0 * sketch.c_eps() *
         std::sqrt(static_cast<double>(sketch.total_reports()));
}

}  // namespace ldpjs
