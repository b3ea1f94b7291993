#include "ldp/hcms.h"

#include <cmath>
#include <span>

#include "common/hadamard.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/params.h"

namespace ldpjs {

namespace {
std::vector<BucketHash> MakeBuckets(const HcmsParams& params) {
  // Same derivation as MakeRowHashes' bucket half so that tests can compare
  // structures; HCMS has no sign hash.
  std::vector<BucketHash> buckets;
  buckets.reserve(static_cast<size_t>(params.k));
  for (int j = 0; j < params.k; ++j) {
    const uint64_t row_seed =
        Mix64(params.seed ^
              (0x9e3779b97f4a7c15ULL * (static_cast<uint64_t>(j) + 1)));
    buckets.emplace_back(Mix64(row_seed ^ 0xb7e151628aed2a6bULL),
                         static_cast<uint64_t>(params.m));
  }
  return buckets;
}
}  // namespace

HcmsClient::HcmsClient(const HcmsParams& params) : params_(params) {
  LDPJS_CHECK(ValidEpsilon(params.epsilon));
  LDPJS_CHECK(params.k >= 1 && params.k <= kMaxSketchRows);
  LDPJS_CHECK(IsPowerOfTwo(static_cast<uint64_t>(params.m)));
  flip_prob_ = 1.0 / (std::exp(params.epsilon) + 1.0);
  buckets_ = MakeBuckets(params);
}

HcmsReport HcmsClient::Perturb(uint64_t value, Xoshiro256& rng) const {
  HcmsReport report;
  report.j = static_cast<uint16_t>(rng.NextBounded(static_cast<uint64_t>(params_.k)));
  report.l = static_cast<uint32_t>(rng.NextBounded(static_cast<uint64_t>(params_.m)));
  const uint64_t bucket = buckets_[report.j](value);
  // One-hot at `bucket` with weight +1; after the Hadamard transform the
  // l-th coordinate is H_m[bucket, l], an O(1) lookup.
  int w = HadamardEntry(bucket, report.l);
  if (rng.NextBernoulli(flip_prob_)) w = -w;
  report.y = static_cast<int8_t>(w);
  return report;
}

HcmsServer::HcmsServer(const HcmsParams& params)
    : params_(params), c_eps_(DebiasFactor(params.epsilon)) {
  LDPJS_CHECK(params.k >= 1 && params.k <= kMaxSketchRows);
  LDPJS_CHECK(params.m >= 2);
  LDPJS_CHECK(IsPowerOfTwo(static_cast<uint64_t>(params.m)));
  buckets_ = MakeBuckets(params);
  cells_.assign(static_cast<size_t>(params.k) * static_cast<size_t>(params.m),
                0.0);
}

void HcmsServer::Absorb(const HcmsReport& report) {
  LDPJS_CHECK(!finalized_);
  LDPJS_CHECK(report.j < params_.k);
  LDPJS_CHECK(report.l < static_cast<uint32_t>(params_.m));
  cells_[static_cast<size_t>(report.j) * static_cast<size_t>(params_.m) +
         report.l] += static_cast<double>(params_.k) * c_eps_ * report.y;
  ++total_;
}

void HcmsServer::Merge(const HcmsServer& other) {
  LDPJS_CHECK(!finalized_ && !other.finalized_);
  LDPJS_CHECK(params_.k == other.params_.k && params_.m == other.params_.m);
  LDPJS_CHECK(params_.seed == other.params_.seed);
  for (size_t i = 0; i < cells_.size(); ++i) cells_[i] += other.cells_[i];
  total_ += other.total_;
}

void HcmsServer::Finalize() {
  LDPJS_CHECK(!finalized_);
  const size_t m = static_cast<size_t>(params_.m);
  const size_t rows = static_cast<size_t>(params_.k);
  SharedParallelFor(rows, cells_.size(), [&](size_t, size_t begin, size_t end) {
    for (size_t j = begin; j < end; ++j) {
      FastWalshHadamardTransform(std::span<double>(cells_.data() + j * m, m));
    }
  });
  finalized_ = true;
}

double HcmsServer::EstimateFrequency(uint64_t d) const {
  LDPJS_CHECK(finalized_);
  const double n = static_cast<double>(total_);
  const double m = static_cast<double>(params_.m);
  double acc = 0.0;
  for (int j = 0; j < params_.k; ++j) {
    const uint64_t bucket = buckets_[static_cast<size_t>(j)](d);
    acc += cells_[static_cast<size_t>(j) * static_cast<size_t>(params_.m) + bucket];
  }
  const double mean = acc / static_cast<double>(params_.k);
  return (mean - n / m) * m / (m - 1.0);
}

std::vector<double> HcmsServer::EstimateAllFrequencies(uint64_t domain) const {
  std::vector<double> out(domain);
  SharedParallelFor(static_cast<size_t>(domain),
                    static_cast<size_t>(domain) *
                        static_cast<size_t>(params_.k),
                    [&](size_t, size_t begin, size_t end) {
                      for (size_t d = begin; d < end; ++d) {
                        out[d] = EstimateFrequency(static_cast<uint64_t>(d));
                      }
                    });
  return out;
}

std::vector<double> HcmsEstimateFrequencies(const Column& column,
                                            const HcmsParams& params,
                                            uint64_t run_seed) {
  HcmsClient client(params);
  HcmsServer server(params);
  Xoshiro256 rng(run_seed);
  for (uint64_t v : column.values()) {
    server.Absorb(client.Perturb(v, rng));
  }
  server.Finalize();
  return server.EstimateAllFrequencies(column.domain());
}

}  // namespace ldpjs
