#include "core/aqp.h"

#include <algorithm>
#include <array>
#include <cmath>

namespace ldpjs {

namespace {
void ValidateRange(const LdpJoinSketchServer& sketch,
                   const ValueRange& range) {
  LDPJS_CHECK(sketch.finalized());
  LDPJS_CHECK(range.lo <= range.hi);
}

/// Calls visit(d, f) for d = lo, lo + 1, ..., hi in ascending order, where
/// f[s] is sketches[s]'s f̂(d). The range is cut into runs that end at
/// 256-aligned window boundaries, each evaluated by FrequencyEstimateRun
/// into stack buffers. The walk stops after the run that ends at hi instead
/// of testing a key against hi, which never fails when hi == UINT64_MAX.
template <size_t N, typename Visit>
void ForEachEstimate(const std::array<const LdpJoinSketchServer*, N>& sketches,
                     const ValueRange& range, const Visit& visit) {
  std::array<std::array<double, kEstimateRunKeys>, N> f;
  std::array<double*, N> out;
  for (size_t s = 0; s < N; ++s) out[s] = f[s].data();
  for (uint64_t from = range.lo;;) {
    const uint64_t last = std::min(from | (kEstimateRunKeys - 1), range.hi);
    const uint64_t n = last - from + 1;
    FrequencyEstimateRun<N>(sketches, from, n, out);
    for (uint64_t i = 0; i < n; ++i) {
      std::array<double, N> estimates;
      for (size_t s = 0; s < N; ++s) estimates[s] = f[s][i];
      visit(from + i, estimates);
    }
    if (last == range.hi) return;
    from = last + 1;
  }
}
}  // namespace

double RangeCountEstimate(const LdpJoinSketchServer& sketch,
                          const ValueRange& range) {
  ValidateRange(sketch, range);
  double total = 0.0;
  ForEachEstimate<1>({&sketch}, range,
                     [&](uint64_t, const std::array<double, 1>& f) {
                       total += f[0];
                     });
  return total;
}

double RangeWeightedSumEstimate(
    const LdpJoinSketchServer& sketch, const ValueRange& range,
    const std::function<double(uint64_t)>& weight) {
  ValidateRange(sketch, range);
  double total = 0.0;
  ForEachEstimate<1>({&sketch}, range,
                     [&](uint64_t d, const std::array<double, 1>& f) {
                       total += weight(d) * f[0];
                     });
  return total;
}

double PredicateJoinEstimate(const LdpJoinSketchServer& sketch_a,
                             const LdpJoinSketchServer& sketch_b,
                             const ValueRange& range) {
  ValidateRange(sketch_a, range);
  ValidateRange(sketch_b, range);
  double total = 0.0;
  ForEachEstimate<2>({&sketch_a, &sketch_b}, range,
                     [&](uint64_t, const std::array<double, 2>& f) {
                       total += f[0] * f[1];
                     });
  return total;
}

uint64_t SupportSizeEstimate(const LdpJoinSketchServer& sketch,
                             const ValueRange& range, double floor) {
  ValidateRange(sketch, range);
  uint64_t support = 0;
  ForEachEstimate<1>({&sketch}, range,
                     [&](uint64_t, const std::array<double, 1>& f) {
                       if (f[0] > floor) ++support;
                     });
  return support;
}

double NoiseFloorSuggestion(const LdpJoinSketchServer& sketch) {
  return 3.0 * sketch.c_eps() *
         std::sqrt(static_cast<double>(sketch.total_reports()));
}

}  // namespace ldpjs
