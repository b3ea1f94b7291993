#include "core/fap.h"

#include "common/hadamard.h"

namespace ldpjs {

FapClient::FapClient(const SketchParams& params, double epsilon, FapMode mode,
                     FrequentItems frequent_items)
    : inner_(params, epsilon),
      mode_(mode),
      frequent_items_(std::move(frequent_items)) {}

bool FapClient::IsTarget(uint64_t value) const {
  const bool frequent = frequent_items_.contains(value);
  return mode_ == FapMode::kHigh ? frequent : !frequent;
}

LdpReport FapClient::Perturb(uint64_t value, Xoshiro256& rng) const {
  if (IsTarget(value)) {
    // Algorithm 4 line 10: targets go through the LDPJoinSketch client.
    return inner_.Perturb(value, rng);
  }
  // Non-target: encode v[r] = 1 at a uniform r, independent of `value`
  // (Algorithm 4 lines 2-8). After the Hadamard transform, w[l] = H_m[r, l].
  const SketchParams& params = inner_.params();
  const LdpJoinSketchClient::ReportDraws d = inner_.SampleReportDraws(rng);
  const uint64_t r = rng.NextBounded(static_cast<uint64_t>(params.m));
  int w = HadamardEntry(r, d.l);
  if (d.flip) w = -w;
  return LdpReport{static_cast<int8_t>(w), d.j, d.l};
}

void FapClient::PerturbBatch(std::span<const uint64_t> values,
                             std::span<LdpReport> out, Xoshiro256& rng) const {
  LDPJS_CHECK(values.size() == out.size());
  for (size_t i = 0; i < values.size(); ++i) {
    out[i] = Perturb(values[i], rng);
  }
}

}  // namespace ldpjs
