#include "core/freq_items.h"

#include <algorithm>

#include "common/thread_pool.h"

namespace ldpjs {

FrequentItems::FrequentItems(uint64_t domain, std::vector<uint64_t> words)
    : domain_(domain), words_(std::move(words)) {
  LDPJS_CHECK(words_.size() == WordCount(domain_));
  if (domain_ % 64 != 0) LDPJS_CHECK((words_.back() >> (domain_ % 64)) == 0);
  for (const uint64_t word : words_) size_ += std::popcount(word);
}

uint64_t FrequentItems::NextMember(uint64_t from) const {
  if (from >= domain_) return domain_;
  size_t w = static_cast<size_t>(from >> 6);
  uint64_t bits = words_[w] & (~uint64_t{0} << (from & 63));
  while (bits == 0) {
    if (++w == words_.size()) return domain_;
    bits = words_[w];
  }
  return (static_cast<uint64_t>(w) << 6) +
         static_cast<uint64_t>(std::countr_zero(bits));
}

namespace {

static_assert(kFrequentScanBlock % 64 == 0,
              "a scan block must own whole bitset words");

/// Clamped f̂ sums over the FI keys of one scan block.
struct BlockMass {
  double a = 0.0;
  double b = 0.0;
};

/// Walks [0, domain) in kFrequentScanBlock-key blocks on the shared pool;
/// `visit(d, mass)` says whether d is frequent and may add d's estimates to
/// its block's `mass`. Blocks own disjoint bitset words, each block sums in
/// ascending key order and the block masses are added in block order, so
/// the result does not depend on the worker count.
template <typename Visit>
FrequentItemsScan ScanDomain(uint64_t domain, size_t work,
                             const Visit& visit) {
  std::vector<uint64_t> words(FrequentItems::WordCount(domain), 0);
  const size_t blocks = static_cast<size_t>(
      (domain + kFrequentScanBlock - 1) / kFrequentScanBlock);
  std::vector<BlockMass> masses(blocks);
  SharedParallelFor(blocks, work, [&](size_t, size_t begin, size_t end) {
    for (size_t block = begin; block < end; ++block) {
      const uint64_t first = block * kFrequentScanBlock;
      const uint64_t last = std::min(domain, first + kFrequentScanBlock);
      for (uint64_t d = first; d < last; ++d) {
        if (visit(d, masses[block])) words[d >> 6] |= uint64_t{1} << (d & 63);
      }
    }
  });
  FrequentItemsScan scan;
  scan.items = FrequentItems(domain, std::move(words));
  for (const BlockMass& mass : masses) {
    scan.mass_a += mass.a;
    scan.mass_b += mass.b;
  }
  return scan;
}

size_t ScanWork(const LdpJoinSketchServer& sketch, uint64_t domain) {
  return static_cast<size_t>(domain) * static_cast<size_t>(sketch.params().k);
}

}  // namespace

FrequentItems FindFrequentItems(const LdpJoinSketchServer& sketch,
                                uint64_t domain, double threshold) {
  return ScanDomain(domain, ScanWork(sketch, domain),
                    [&](uint64_t d, BlockMass&) {
                      return sketch.FrequencyEstimate(d) > threshold;
                    })
      .items;
}

FrequentItemsScan FindFrequentItemsUnion(const LdpJoinSketchServer& sketch_a,
                                         const LdpJoinSketchServer& sketch_b,
                                         uint64_t domain, double threshold_a,
                                         double threshold_b) {
  LDPJS_CHECK(sketch_a.finalized() && sketch_b.finalized());
  const SketchParams& params = sketch_a.params();
  LDPJS_CHECK(params.k == sketch_b.params().k &&
              params.m == sketch_b.params().m &&
              params.seed == sketch_b.params().seed);
  // Equal (k, m, seed) means equal hash rows, so each row's (bucket, sign)
  // serves both sketches.
  const std::vector<RowHashes>& rows = sketch_a.row_hashes();
  const int k = params.k;
  return ScanDomain(
      domain, ScanWork(sketch_a, domain) + ScanWork(sketch_b, domain),
      [&](uint64_t d, BlockMass& mass) {
        // FrequencyEstimate's sum, term for term, for both sketches.
        double acc_a = 0.0;
        double acc_b = 0.0;
        for (int j = 0; j < k; ++j) {
          const RowHashes& row = rows[static_cast<size_t>(j)];
          const int bucket = static_cast<int>(row.bucket(d));
          const int sign = row.sign(d);
          acc_a += sketch_a.cell(j, bucket) * sign;
          acc_b += sketch_b.cell(j, bucket) * sign;
        }
        const double f_a = acc_a / static_cast<double>(k);
        const double f_b = acc_b / static_cast<double>(k);
        const bool frequent = f_a > threshold_a || f_b > threshold_b;
        if (frequent) {
          mass.a += std::max(0.0, f_a);
          mass.b += std::max(0.0, f_b);
        }
        return frequent;
      });
}

}  // namespace ldpjs
