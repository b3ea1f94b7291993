// Phase 1 of LDPJoinSketch+ (paper §V-C): find the frequent join values from
// the LDPJoinSketches built over sampled users, using the unbiased frequency
// estimator of Theorem 7, and estimate their total mass (Algorithm 5 lines
// 1-4).
//
// The FI set is a dense bitset over the domain (FrequentItems): on skewed
// data with a small θ it can hold a large share of the domain, and phase 2
// probes it once per report, so membership is one bit test. The union scan
// does all of phase 1's server-side work in one pass over the domain. The
// pass runs on the shared pool in fixed blocks of kFrequentScanBlock keys,
// and a block in 256-key runs: FrequencyEstimateRun evaluates a run's f̂
// for both sketches, each row hashed once per run for the two of them
// (RowHashes::ForEachInRun), and then each key of the run, in ascending
// order, sets its FI bit and adds its clamped estimates to the FI mass.
// Every f̂ is bit-identical to FrequencyEstimate's. The mass is summed in
// ascending key order within a block and the block sums are added in block
// order, so it does not depend on the worker count. FindFrequentItems is
// the same scan over one sketch.
#ifndef LDPJS_CORE_FREQ_ITEMS_H_
#define LDPJS_CORE_FREQ_ITEMS_H_

#include <algorithm>
#include <bit>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <ranges>
#include <type_traits>
#include <vector>

#include "core/ldp_join_sketch.h"

namespace ldpjs {

/// A set of keys in [0, domain) held as a bitset, one uint64_t per 64 keys:
/// key d is bit d % 64 of word d / 64. contains() is one bit test, size()
/// is O(1) and iteration is ascending. A copy costs domain / 8 bytes.
class FrequentItems {
 public:
  /// Iterates the members in ascending order.
  class Iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = uint64_t;
    using difference_type = std::ptrdiff_t;
    using reference = uint64_t;

    Iterator() = default;
    uint64_t operator*() const { return key_; }
    Iterator& operator++() {
      key_ = set_->NextMember(key_ + 1);
      return *this;
    }
    Iterator operator++(int) {
      Iterator old = *this;
      ++*this;
      return old;
    }
    bool operator==(const Iterator& other) const { return key_ == other.key_; }

   private:
    friend class FrequentItems;
    Iterator(const FrequentItems* set, uint64_t key) : set_(set), key_(key) {}

    const FrequentItems* set_ = nullptr;
    uint64_t key_ = 0;
  };

  /// The empty set over an empty domain.
  FrequentItems() = default;

  /// Adopts `words` as the set over [0, domain): words.size() must be
  /// ceil(domain / 64) and no bit at or past `domain` may be set.
  FrequentItems(uint64_t domain, std::vector<uint64_t> words);

  /// The set of `keys` over [0, max key + 1). Implicit, like the range
  /// constructor below, so callers holding a brace list or a hash set of
  /// keys pass it where a FrequentItems is expected.
  FrequentItems(std::initializer_list<uint64_t> keys) { InsertAll(keys); }

  /// The set of the keys in any range (a hash set, a vector), over
  /// [0, max key + 1).
  template <std::ranges::forward_range Keys>
    requires(!std::same_as<std::remove_cvref_t<Keys>, FrequentItems> &&
             std::convertible_to<std::ranges::range_value_t<Keys>, uint64_t>)
  FrequentItems(const Keys& keys) {
    InsertAll(keys);
  }

  bool contains(uint64_t d) const {
    return d < domain_ && ((words_[d >> 6] >> (d & 63)) & 1) != 0;
  }
  size_t size() const { return size_; }

  Iterator begin() const { return Iterator(this, NextMember(0)); }
  Iterator end() const { return Iterator(this, domain_); }

  /// Words needed to hold a set over [0, domain).
  static size_t WordCount(uint64_t domain) {
    return static_cast<size_t>((domain + 63) / 64);
  }

 private:
  /// The smallest member >= `from`, or domain_ if there is none.
  uint64_t NextMember(uint64_t from) const;

  template <typename Keys>
  void InsertAll(const Keys& keys) {
    for (const auto key : keys) {
      LDPJS_CHECK(static_cast<uint64_t>(key) < UINT64_MAX);
      domain_ = std::max<uint64_t>(domain_, static_cast<uint64_t>(key) + 1);
    }
    words_.assign(WordCount(domain_), 0);
    for (const auto key : keys) {
      const uint64_t d = static_cast<uint64_t>(key);
      words_[d >> 6] |= uint64_t{1} << (d & 63);
    }
    for (const uint64_t word : words_) size_ += std::popcount(word);
  }

  uint64_t domain_ = 0;
  size_t size_ = 0;
  std::vector<uint64_t> words_;
};

/// Keys per block of the phase-1 scan: the unit of parallel work and of the
/// FI mass's summation order.
inline constexpr uint64_t kFrequentScanBlock = uint64_t{1} << 16;

/// Values d in [0, domain) with estimated sketch frequency > threshold.
/// `threshold` is in *sample counts*: for full-table threshold θ·|A| and a
/// sample of |S_A| users, pass θ·|S_A| (the two are equivalent because the
/// sketch estimates sample frequencies).
FrequentItems FindFrequentItems(const LdpJoinSketchServer& sketch,
                                uint64_t domain, double threshold);

/// Result of the phase-1 union scan.
struct FrequentItemsScan {
  FrequentItems items;  ///< FI = FI_A ∪ FI_B
  /// Σ_{d ∈ FI} max(0, f̂_A(d)) in sample counts; scale by |A|/|S_A| for the
  /// full-table FI mass of Algorithm 5 lines 1-4. Clamped below at 0 per
  /// item because sketch estimates of infrequent items can be negative.
  double mass_a = 0.0;
  double mass_b = 0.0;  ///< the same over sketch B
};

/// FI = FI_A ∪ FI_B with per-attribute thresholds (paper: θ·|S_A|, θ·|S_B|)
/// and both FI masses, in one pass over [0, domain). The sketches must be
/// finalized and share k, m and the hash seed. Membership and every f̂ are
/// exactly LdpJoinSketchServer::FrequencyEstimate's.
FrequentItemsScan FindFrequentItemsUnion(const LdpJoinSketchServer& sketch_a,
                                         const LdpJoinSketchServer& sketch_b,
                                         uint64_t domain, double threshold_a,
                                         double threshold_b);

}  // namespace ldpjs

#endif  // LDPJS_CORE_FREQ_ITEMS_H_
