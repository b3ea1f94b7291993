#include "ldp/krr.h"

#include <cmath>

#include "common/status.h"
#include "core/params.h"

namespace ldpjs {

double JoinSizeFromFrequencies(std::span<const double> freq_a,
                               std::span<const double> freq_b) {
  LDPJS_CHECK(freq_a.size() == freq_b.size());
  double acc = 0.0;
  for (size_t d = 0; d < freq_a.size(); ++d) acc += freq_a[d] * freq_b[d];
  return acc;
}

double CommCostModel::KrrBitsPerUser(uint64_t domain) {
  return std::ceil(std::log2(static_cast<double>(domain)));
}

double CommCostModel::FlhBitsPerUser(uint64_t pool, uint64_t g) {
  return std::ceil(std::log2(static_cast<double>(pool))) +
         std::ceil(std::log2(static_cast<double>(g)));
}

double CommCostModel::HadamardSketchBitsPerUser(int k, int m) {
  return 1.0 + std::ceil(std::log2(static_cast<double>(k))) +
         std::ceil(std::log2(static_cast<double>(m)));
}

KrrClient::KrrClient(uint64_t domain, double epsilon) : domain_(domain) {
  LDPJS_CHECK(domain >= 2);
  LDPJS_CHECK(ValidEpsilon(epsilon));
  const double e = std::exp(epsilon);
  keep_prob_ = e / (e + static_cast<double>(domain) - 1.0);
}

uint64_t KrrClient::Perturb(uint64_t value, Xoshiro256& rng) const {
  LDPJS_CHECK(value < domain_);
  if (rng.NextBernoulli(keep_prob_)) return value;
  // Uniform over the other |D| - 1 values.
  uint64_t other = rng.NextBounded(domain_ - 1);
  if (other >= value) ++other;
  return other;
}

KrrServer::KrrServer(uint64_t domain, double epsilon)
    : domain_(domain), counts_(domain, 0) {
  LDPJS_CHECK(domain >= 2);
  LDPJS_CHECK(ValidEpsilon(epsilon));
  const double e = std::exp(epsilon);
  p_ = e / (e + static_cast<double>(domain) - 1.0);
  q_ = (1.0 - p_) / (static_cast<double>(domain) - 1.0);
}

void KrrServer::Absorb(uint64_t report) {
  LDPJS_CHECK(report < domain_);
  ++counts_[report];
  ++total_;
}

double KrrServer::EstimateFrequency(uint64_t d) const {
  LDPJS_CHECK(d < domain_);
  const double n = static_cast<double>(total_);
  return (static_cast<double>(counts_[d]) - n * q_) / (p_ - q_);
}

std::vector<double> KrrServer::EstimateAllFrequencies() const {
  std::vector<double> out(domain_);
  for (uint64_t d = 0; d < domain_; ++d) out[d] = EstimateFrequency(d);
  return out;
}

std::vector<double> KrrEstimateFrequencies(const Column& column,
                                           double epsilon, uint64_t seed) {
  KrrClient client(column.domain(), epsilon);
  KrrServer server(column.domain(), epsilon);
  Xoshiro256 rng(seed);
  for (uint64_t v : column.values()) {
    server.Absorb(client.Perturb(v, rng));
  }
  return server.EstimateAllFrequencies();
}

}  // namespace ldpjs
