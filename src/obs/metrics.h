// Hot-path observability primitives: lock-free counters, gauges, and
// log2-bucketed latency histograms, collected behind a MetricsRegistry.
// There is no process-wide registry: each node (FrameServer, and the
// RegionalNode around one) owns its own, so nodes sharing a process keep
// their series apart and a pushed snapshot holds one node's records only.
//
// Design constraints, in order:
//   1. Recording must be nanosecond-cheap on ingest/query hot paths — one
//      relaxed atomic add into a thread-striped bucket, no locks, no
//      allocation. When observability is disabled (SetObsEnabled(false))
//      every Record()/Add() is a single relaxed load and a branch.
//   2. Snapshots must be consistent without stopping writers: a histogram
//      snapshot derives its count from the bucket array it just read, so
//      "count != sum of buckets" (a torn snapshot) is impossible by
//      construction, and once writers quiesce the totals are exact.
//   3. Instrument pointers are stable for the registry's lifetime
//      (instruments are never erased), so components look an instrument up
//      once at construction and record through the raw pointer forever —
//      the registry mutex is touched only at registration and snapshot.
//
// Bucketing: value v lands in bucket bit_width(v) (0 for v == 0), i.e.
// bucket i holds values in [2^(i-1), 2^i). 65 buckets cover the full u64
// range, so a percentile read is exact to within one power of two — the
// right resolution for latency SLOs (a p99 of "under 2ms" is actionable;
// "1.93ms vs 1.94ms" is noise).
#ifndef LDPJS_OBS_METRICS_H_
#define LDPJS_OBS_METRICS_H_

#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/thread_annotations.h"

namespace ldpjs {

/// Wall-clock nanoseconds (CLOCK_REALTIME). Trace origins use wall time so
/// a timestamp stamped on one host is comparable on another; cross-host
/// skew (NTP-bounded) is therefore part of any cross-tier latency reading.
uint64_t NowNanos();

/// Global observability switch, default on. When off, every instrument's
/// record path is one relaxed load plus an untaken branch — the "within 2%
/// of disabled" bench pin measures exactly this pair of modes.
bool ObsEnabled();
void SetObsEnabled(bool enabled);

/// Monotone event counter.
class ObsCounter {
 public:
  void Add(uint64_t delta) {
    if (!ObsEnabled()) return;
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-writer-wins instantaneous value (e.g. "wall time of the last view
/// publication").
class ObsGauge {
 public:
  void Set(uint64_t value) {
    if (!ObsEnabled()) return;
    value_.store(value, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Consistent read of one histogram: count is derived from the buckets, so
/// it always equals their sum.
struct HistogramSnapshot {
  static constexpr size_t kBuckets = 65;
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t buckets[kBuckets] = {};

  /// Exact rank-walk percentile over the log2 buckets: the value returned
  /// is the inclusive upper bound of the bucket holding the p-quantile
  /// observation (0 on an empty histogram).
  uint64_t Percentile(double p) const;
  double mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
};

/// Lossless merge of two histogram snapshots: elementwise bucket addition
/// plus sum addition, count re-derived from the merged buckets. Because the
/// buckets are raw observation counts (never precomputed percentiles), the
/// merge of N regions' snapshots is bit-identical to one histogram fed the
/// union of their records — the same mergeability argument that lets the
/// LDP sketches federate, applied to the telemetry.
HistogramSnapshot MergeHistogram(const HistogramSnapshot& a,
                                 const HistogramSnapshot& b);

/// Log2-bucketed latency histogram, striped 8 ways so concurrent writers
/// on different cores do not bounce one cache line.
class ObsHistogram {
 public:
  void Record(uint64_t value) {
    if (!ObsEnabled()) return;
    Stripe& stripe = stripes_[ThreadStripe()];
    stripe.buckets[BucketOf(value)].fetch_add(1, std::memory_order_relaxed);
    stripe.sum.fetch_add(value, std::memory_order_relaxed);
  }

  HistogramSnapshot Snapshot() const;

  static size_t BucketOf(uint64_t value) {
    return static_cast<size_t>(std::bit_width(value));
  }

 private:
  static constexpr size_t kStripes = 8;
  // Each stripe ends in a cache line of padding, so no line holds fields
  // of two stripes whatever the base address. The type is deliberately not
  // over-aligned: aligned operator new leaves split-off fragments that can
  // keep glibc from trimming the heap when servers (and their registries)
  // are built and torn down between large transient buffers.
  struct Stripe {
    std::atomic<uint64_t> sum{0};
    std::atomic<uint64_t> buckets[HistogramSnapshot::kBuckets] = {};
    char pad[64] = {};
  };
  static size_t ThreadStripe();

  Stripe stripes_[kStripes];
};

/// One named instrument set, snapshot-able as a whole. Instruments are
/// created on first lookup and never erased, so the returned pointers are
/// stable for the registry's lifetime — cache them at construction.
class MetricsRegistry {
 public:
  ObsCounter* GetCounter(std::string_view name);
  ObsGauge* GetGauge(std::string_view name);
  ObsHistogram* GetHistogram(std::string_view name);

  struct Snapshot {
    std::vector<std::pair<std::string, uint64_t>> counters;
    std::vector<std::pair<std::string, uint64_t>> gauges;
    std::vector<std::pair<std::string, HistogramSnapshot>> histograms;
  };
  Snapshot TakeSnapshot() const;

  /// Snapshot of one histogram by name (empty snapshot when absent) — reads
  /// a single series without walking the whole registry.
  HistogramSnapshot HistogramByName(std::string_view name) const;

 private:
  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<ObsCounter>, std::less<>> counters_
      LDPJS_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<ObsGauge>, std::less<>> gauges_
      LDPJS_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<ObsHistogram>, std::less<>> histograms_
      LDPJS_GUARDED_BY(mu_);
};

/// The value of series `name` in one of a snapshot's series lists — 0 for
/// a counter or gauge, an empty histogram — when the series is absent. The
/// one lookup every reader of a snapshot (health rules, fleet store, stats
/// serializer, dashboards) goes through.
template <typename T>
T SeriesValue(const std::vector<std::pair<std::string, T>>& series,
              std::string_view name) {
  for (const auto& [key, value] : series) {
    if (key == name) return value;
  }
  return T{};
}

}  // namespace ldpjs

#endif  // LDPJS_OBS_METRICS_H_
