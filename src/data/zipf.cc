#include "data/zipf.h"

#include <cmath>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "data/alias_sampler.h"

namespace ldpjs {

Column GenerateZipf(const ZipfParams& params) {
  LDPJS_CHECK(params.domain >= 1);
  LDPJS_CHECK(params.alpha > 0.0);
  std::vector<double> weights(params.domain);
  for (uint64_t r = 0; r < params.domain; ++r) {
    weights[r] = std::pow(static_cast<double>(r + 1), -params.alpha);
  }
  // The weights become the sampler's table: no copy outlives this line.
  const AliasSampler sampler(std::move(weights));
  Xoshiro256 rng(params.seed);
  std::vector<uint64_t> values;
  values.reserve(params.rows);
  for (uint64_t i = 0; i < params.rows; ++i) {
    values.push_back(sampler.Sample(rng));
  }
  return Column(std::move(values), params.domain);
}

}  // namespace ldpjs
