#include "ldp/olh.h"

#include <algorithm>
#include <cmath>

#include "common/status.h"
#include "common/thread_pool.h"
#include "core/params.h"

namespace ldpjs {

namespace {
/// Checks ε here rather than in FlhClient's body: the member initializer
/// runs this first.
uint32_t ResolveG(const FlhParams& params) {
  LDPJS_CHECK(ValidEpsilon(params.epsilon));
  if (params.g != 0) {
    LDPJS_CHECK(params.g >= 2);
    return std::min(params.g, kMaxFlhG);
  }
  const double optimal = std::round(std::exp(params.epsilon) + 1.0);
  return static_cast<uint32_t>(
      std::clamp(optimal, 2.0, static_cast<double>(kMaxFlhG)));
}
}  // namespace

FlhClient::FlhClient(const FlhParams& params)
    : params_(params), g_(ResolveG(params)) {
  LDPJS_CHECK(params.pool_size >= 1);
  const double e = std::exp(params.epsilon);
  keep_prob_ = e / (e + static_cast<double>(g_) - 1.0);
  pool_.reserve(params.pool_size);
  for (uint32_t i = 0; i < params.pool_size; ++i) {
    pool_.emplace_back(Mix64(params.seed ^ (0x9e3779b97f4a7c15ULL * (i + 1))));
  }
}

uint32_t FlhClient::HashValue(uint32_t index, uint64_t value) const {
  // Multiply-shift reduction of the 64-bit tabulation hash onto [0, g).
  const uint64_t h = pool_[index](value);
  return static_cast<uint32_t>(
      (static_cast<__uint128_t>(h) * g_) >> 64);
}

FlhReport FlhClient::Perturb(uint64_t value, Xoshiro256& rng) const {
  FlhReport report;
  report.hash_index = static_cast<uint32_t>(rng.NextBounded(params_.pool_size));
  const uint32_t hashed = HashValue(report.hash_index, value);
  if (rng.NextBernoulli(keep_prob_)) {
    report.value = hashed;
  } else {
    // Uniform over the other g - 1 outputs.
    uint32_t other = static_cast<uint32_t>(rng.NextBounded(g_ - 1));
    if (other >= hashed) ++other;
    report.value = other;
  }
  return report;
}

FlhServer::FlhServer(const FlhParams& params)
    : hasher_(params), g_(hasher_.g()) {
  const double e = std::exp(params.epsilon);
  keep_prob_ = e / (e + static_cast<double>(g_) - 1.0);
  counts_.assign(static_cast<size_t>(params.pool_size) * g_, 0);
}

void FlhServer::Absorb(const FlhReport& report) {
  LDPJS_CHECK(report.hash_index < hasher_.pool_size());
  LDPJS_CHECK(report.value < g_);
  ++counts_[static_cast<size_t>(report.hash_index) * g_ + report.value];
  ++total_;
}

double FlhServer::EstimateFrequency(uint64_t d) const {
  double support = 0.0;
  for (uint32_t i = 0; i < hasher_.pool_size(); ++i) {
    support += static_cast<double>(
        counts_[static_cast<size_t>(i) * g_ + hasher_.HashValue(i, d)]);
  }
  const double n = static_cast<double>(total_);
  const double inv_g = 1.0 / static_cast<double>(g_);
  return (support - n * inv_g) / (keep_prob_ - inv_g);
}

std::vector<double> FlhServer::EstimateAllFrequencies(uint64_t domain) const {
  std::vector<double> out(domain);
  SharedParallelFor(static_cast<size_t>(domain),
                    static_cast<size_t>(domain) * hasher_.pool_size(),
                    [&](size_t, size_t begin, size_t end) {
                      for (size_t d = begin; d < end; ++d) {
                        out[d] = EstimateFrequency(static_cast<uint64_t>(d));
                      }
                    });
  return out;
}

std::vector<double> FlhEstimateFrequencies(const Column& column,
                                           const FlhParams& params,
                                           uint64_t run_seed) {
  FlhClient client(params);
  FlhServer server(params);
  Xoshiro256 rng(run_seed);
  for (uint64_t v : column.values()) {
    server.Absorb(client.Perturb(v, rng));
  }
  return server.EstimateAllFrequencies(column.domain());
}

}  // namespace ldpjs
