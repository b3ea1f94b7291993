// Walker alias method: O(1) sampling from an arbitrary discrete
// distribution after O(n) preprocessing. Backbone of the Zipf and simulated
// real-dataset generators (40M draws from multi-million-entry domains).
#ifndef LDPJS_DATA_ALIAS_SAMPLER_H_
#define LDPJS_DATA_ALIAS_SAMPLER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/random.h"

namespace ldpjs {

class AliasSampler {
 public:
  /// Builds alias tables for the (unnormalized, non-negative, not all zero)
  /// weight vector. O(weights.size()). The weights' storage becomes the
  /// acceptance table, so a caller that moves them in pays for no copy:
  /// the build holds 16 bytes per entry at its peak, 12 after.
  explicit AliasSampler(std::vector<double> weights);

  /// Draws an index in [0, size()) with probability proportional to its
  /// weight.
  uint64_t Sample(Xoshiro256& rng) const;

  size_t size() const { return prob_.size(); }

 private:
  std::vector<double> prob_;     // acceptance probability per bucket
  std::vector<uint32_t> alias_;  // alias index per bucket
};

}  // namespace ldpjs

#endif  // LDPJS_DATA_ALIAS_SAMPLER_H_
