#include "data/alias_sampler.h"

#include <limits>
#include <utility>

#include "common/status.h"

namespace ldpjs {

AliasSampler::AliasSampler(std::vector<double> weights)
    : prob_(std::move(weights)) {
  const size_t n = prob_.size();
  LDPJS_CHECK(n >= 1);
  LDPJS_CHECK(n <= std::numeric_limits<uint32_t>::max());
  double total = 0.0;
  for (double w : prob_) {
    LDPJS_CHECK(w >= 0.0);
    total += w;
  }
  LDPJS_CHECK(total > 0.0);

  alias_.assign(n, 0);

  // prob_ becomes the scaled probabilities n·w/total in place, and the
  // pairing below updates them there. Both worklists are stacks in one
  // array: under-full indices grow from the front, over-full ones from the
  // back. Each index sits on at most one of them, so they never meet.
  std::vector<uint32_t> work(n);
  size_t small = 0;  // under-full stack: work[0, small), top at small - 1
  size_t large = n;  // over-full stack: work[large, n), top at large
  for (size_t i = 0; i < n; ++i) {
    prob_[i] = (prob_[i] / total) * static_cast<double>(n);
    if (prob_[i] < 1.0) {
      work[small++] = static_cast<uint32_t>(i);
    } else {
      work[--large] = static_cast<uint32_t>(i);
    }
  }
  while (small > 0 && large < n) {
    const uint32_t s = work[--small];
    const uint32_t l = work[large++];
    alias_[s] = l;  // prob_[s] keeps its scaled value
    prob_[l] = (prob_[l] + prob_[s]) - 1.0;
    if (prob_[l] < 1.0) {
      work[small++] = l;
    } else {
      work[--large] = l;
    }
  }
  // Leftovers are 1.0 up to floating-point residue.
  for (size_t i = 0; i < small; ++i) prob_[work[i]] = 1.0;
  for (size_t i = large; i < n; ++i) prob_[work[i]] = 1.0;
}

uint64_t AliasSampler::Sample(Xoshiro256& rng) const {
  const uint64_t bucket = rng.NextBounded(prob_.size());
  if (rng.NextDouble() < prob_[bucket]) return bucket;
  return alias_[bucket];
}

}  // namespace ldpjs
