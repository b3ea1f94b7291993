#include "obs/metrics.h"

#include <time.h>

namespace ldpjs {

namespace {
std::atomic<bool> g_obs_enabled{true};
std::atomic<uint32_t> g_next_stripe{0};
}  // namespace

uint64_t NowNanos() {
  timespec ts;
  clock_gettime(CLOCK_REALTIME, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

bool ObsEnabled() { return g_obs_enabled.load(std::memory_order_relaxed); }

void SetObsEnabled(bool enabled) {
  g_obs_enabled.store(enabled, std::memory_order_relaxed);
}

uint64_t HistogramSnapshot::Percentile(double p) const {
  if (count == 0) return 0;
  if (p < 0.0) p = 0.0;
  if (p > 1.0) p = 1.0;
  // Rank of the target observation, 1-based; ceil so p50 of two samples is
  // the first, not an interpolation the buckets cannot support anyway.
  uint64_t rank = static_cast<uint64_t>(p * static_cast<double>(count));
  if (rank * 1.0 < p * static_cast<double>(count)) ++rank;
  if (rank == 0) rank = 1;
  uint64_t seen = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    seen += buckets[i];
    if (seen >= rank) {
      if (i == 0) return 0;
      if (i >= 64) return ~0ull;
      return (1ull << i) - 1;  // inclusive upper bound of bucket i
    }
  }
  return ~0ull;  // unreachable when count == sum of buckets
}

HistogramSnapshot MergeHistogram(const HistogramSnapshot& a,
                                 const HistogramSnapshot& b) {
  HistogramSnapshot merged;
  merged.sum = a.sum + b.sum;
  for (size_t i = 0; i < HistogramSnapshot::kBuckets; ++i) {
    merged.buckets[i] = a.buckets[i] + b.buckets[i];
    merged.count += merged.buckets[i];
  }
  return merged;
}

size_t ObsHistogram::ThreadStripe() {
  thread_local const uint32_t slot =
      g_next_stripe.fetch_add(1, std::memory_order_relaxed);
  return slot % kStripes;
}

HistogramSnapshot ObsHistogram::Snapshot() const {
  HistogramSnapshot snap;
  for (const Stripe& stripe : stripes_) {
    snap.sum += stripe.sum.load(std::memory_order_relaxed);
    for (size_t i = 0; i < HistogramSnapshot::kBuckets; ++i) {
      snap.buckets[i] += stripe.buckets[i].load(std::memory_order_relaxed);
    }
  }
  // Derived, not read from a separate counter: the snapshot can never claim
  // more (or fewer) observations than the buckets it just handed out.
  for (size_t i = 0; i < HistogramSnapshot::kBuckets; ++i) {
    snap.count += snap.buckets[i];
  }
  return snap;
}

ObsCounter* MetricsRegistry::GetCounter(std::string_view name) {
  MutexLock lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_
             .emplace(std::string(name), std::make_unique<ObsCounter>())
             .first;
  }
  return it->second.get();
}

ObsGauge* MetricsRegistry::GetGauge(std::string_view name) {
  MutexLock lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<ObsGauge>())
             .first;
  }
  return it->second.get();
}

ObsHistogram* MetricsRegistry::GetHistogram(std::string_view name) {
  MutexLock lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name), std::make_unique<ObsHistogram>())
             .first;
  }
  return it->second.get();
}

MetricsRegistry::Snapshot MetricsRegistry::TakeSnapshot() const {
  Snapshot snap;
  MutexLock lock(mu_);
  snap.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    snap.counters.emplace_back(name, counter->value());
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges.emplace_back(name, gauge->value());
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    snap.histograms.emplace_back(name, histogram->Snapshot());
  }
  return snap;
}

HistogramSnapshot MetricsRegistry::HistogramByName(
    std::string_view name) const {
  MutexLock lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) return HistogramSnapshot{};
  return it->second->Snapshot();
}

}  // namespace ldpjs
