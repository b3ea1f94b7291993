// Frequency-Aware Perturbation (FAP, paper §V-B, Algorithm 4).
//
// Given the public frequent-item set FI from phase 1, each phase-2 client
// encodes *target* values exactly like LDPJoinSketch and *non-target* values
// as a uniformly random one-hot v[r] = 1, r ~ U[m], independent of the true
// value. Both paths end in the same Hadamard-sample-and-flip step, so the
// server cannot tell target from non-target reports (Theorem 6: FAP is
// ε-LDP), yet the expected contribution of every non-target report spreads
// uniformly — 1/m per counter (Theorem 8) — and can be subtracted out.
//
// Which values are targets depends on the sketch being built:
//   mode = kHigh: targets are d ∈ FI  (sketch of high-frequency items)
//   mode = kLow : targets are d ∉ FI  (sketch of low-frequency items)
//
// The client holds FI as the phase-1 bitset (FrequentItems), so the target
// test on every report is one bit test, however large FI is.
#ifndef LDPJS_CORE_FAP_H_
#define LDPJS_CORE_FAP_H_

#include <cstdint>

#include "core/freq_items.h"
#include "core/ldp_join_sketch.h"

namespace ldpjs {

enum class FapMode {
  kHigh,  ///< the sketch summarizes high-frequency (FI) items
  kLow,   ///< the sketch summarizes low-frequency (non-FI) items
};

class FapClient {
 public:
  /// `frequent_items` is the public FI set broadcast by the server.
  FapClient(const SketchParams& params, double epsilon, FapMode mode,
            FrequentItems frequent_items);

  /// Algorithm 4. O(1) per call.
  LdpReport Perturb(uint64_t value, Xoshiro256& rng) const;

  /// Perturbs `values[i]` into `out[i]` drawing from `rng` sequentially:
  /// identical output to calling Perturb in a loop with the same engine
  /// (mirrors LdpJoinSketchClient::PerturbBatch for the batched pipeline).
  void PerturbBatch(std::span<const uint64_t> values, std::span<LdpReport> out,
                    Xoshiro256& rng) const;

  /// True iff `value` is a target value for this sketch's mode.
  bool IsTarget(uint64_t value) const;

  FapMode mode() const { return mode_; }
  const LdpJoinSketchClient& inner_client() const { return inner_; }
  const std::shared_ptr<const SketchShape>& shape() const {
    return inner_.shape();
  }
  double epsilon() const { return inner_.epsilon(); }

 private:
  LdpJoinSketchClient inner_;
  FapMode mode_;
  FrequentItems frequent_items_;
};

}  // namespace ldpjs

#endif  // LDPJS_CORE_FAP_H_
