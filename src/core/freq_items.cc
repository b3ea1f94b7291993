#include "core/freq_items.h"

#include <algorithm>
#include <array>

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
static_assert(kFrequentScanBlock % kEstimateRunKeys == 0,
              "a scan block must hold whole estimate runs");

/// The FI set over [0, domain) of N sketches and the clamped f̂ mass of
/// each: key d is frequent when f̂_s(d) > thresholds[s] for some s, and then
/// adds max(0, f̂_s(d)) to mass s. The domain is walked in
/// kFrequentScanBlock-key blocks on the shared pool, a block in
/// kEstimateRunKeys-key runs through FrequencyEstimateRun. Blocks own
/// disjoint bitset words, each block sums in ascending key order and the
/// block masses are added in block order, so the result does not depend on
/// the worker count.
template <size_t N>
FrequentItemsScan ScanDomain(
    const std::array<const LdpJoinSketchServer*, N>& sketches,
    const std::array<double, N>& thresholds, uint64_t domain) {
  std::vector<uint64_t> words(FrequentItems::WordCount(domain), 0);
  const size_t blocks = static_cast<size_t>(
      (domain + kFrequentScanBlock - 1) / kFrequentScanBlock);
  std::vector<std::array<double, N>> masses(blocks);
  const size_t work = static_cast<size_t>(domain) *
                      static_cast<size_t>(sketches[0]->params().k) * N;
  SharedParallelFor(blocks, work, [&](size_t, size_t begin, size_t end) {
    std::array<std::array<double, kEstimateRunKeys>, N> f;
    std::array<double*, N> out;
    for (size_t s = 0; s < N; ++s) out[s] = f[s].data();
    for (size_t block = begin; block < end; ++block) {
      const uint64_t last = std::min(domain, (block + 1) * kFrequentScanBlock);
      std::array<double, N>& mass = masses[block];
      for (uint64_t run = block * kFrequentScanBlock; run < last;
           run += kEstimateRunKeys) {
        const uint64_t n = std::min(kEstimateRunKeys, last - run);
        FrequencyEstimateRun<N>(sketches, run, n, out);
        for (uint64_t i = 0; i < n; ++i) {
          bool frequent = false;
          for (size_t s = 0; s < N; ++s) {
            frequent = frequent || f[s][i] > thresholds[s];
          }
          if (!frequent) continue;
          const uint64_t d = run + i;
          words[d >> 6] |= uint64_t{1} << (d & 63);
          for (size_t s = 0; s < N; ++s) mass[s] += std::max(0.0, f[s][i]);
        }
      }
    }
  });
  FrequentItemsScan scan;
  scan.items = FrequentItems(domain, std::move(words));
  for (const std::array<double, N>& mass : masses) {
    scan.mass_a += mass[0];
    if constexpr (N == 2) scan.mass_b += mass[1];
  }
  return scan;
}

}  // namespace

FrequentItems FindFrequentItems(const LdpJoinSketchServer& sketch,
                                uint64_t domain, double threshold) {
  return ScanDomain<1>({&sketch}, {threshold}, domain).items;
}

FrequentItemsScan FindFrequentItemsUnion(const LdpJoinSketchServer& sketch_a,
                                         const LdpJoinSketchServer& sketch_b,
                                         uint64_t domain, double threshold_a,
                                         double threshold_b) {
  return ScanDomain<2>({&sketch_a, &sketch_b}, {threshold_a, threshold_b},
                       domain);
}

}  // namespace ldpjs
