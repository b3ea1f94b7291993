// Capped exponential backoff with decorrelated jitter, plus the retry
// budget accounting every retry loop in the wire stack shares.
//
// Every retry loop uses it: RegionalNode's ship retries, FrameServer's
// accept retries and the CLI's reconnecting scrapers. A fixed interval
// would synchronize every retrying peer into thundering herds against a
// recovering central and waste the whole interval when the peer comes
// back early. Decorrelated jitter (the AWS "decorrelated" recipe:
// sleep = min(cap, uniform(base, 3 * previous_sleep))) spreads retriers
// apart while still growing the wait exponentially toward the cap.
//
// Determinism: the jitter stream is a seeded Xoshiro256, so a retry
// sequence — and therefore a chaos schedule's retry counters — replays
// bit-exactly from the seed. Production callers that want wall-clock
// entropy can seed from any nonce; the *durations* vary but the retry
// *counts* are driven by peer behavior either way.
#ifndef LDPJS_COMMON_BACKOFF_H_
#define LDPJS_COMMON_BACKOFF_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <thread>

#include "common/random.h"
#include "common/status.h"

namespace ldpjs {

struct BackoffOptions {
  int64_t base_micros = 1000;    ///< first sleep, and the jitter floor
  int64_t cap_micros = 1000000;  ///< no single sleep exceeds this
  uint64_t seed = 0x0BACC0FFULL; ///< jitter stream (deterministic replay)
};

/// One retry loop's backoff state. Next() returns the duration to sleep
/// before the following attempt; SleepNext() sleeps it and accumulates the
/// total, the figure NetMetrics surfaces as cumulative backoff time.
class Backoff {
 public:
  explicit Backoff(const BackoffOptions& options)
      : options_(options), rng_(options.seed) {
    LDPJS_CHECK(options_.base_micros >= 0);
    LDPJS_CHECK(options_.cap_micros >= options_.base_micros);
  }

  /// Next sleep duration: uniform in [base, 3 * previous], capped.
  std::chrono::microseconds Next() {
    const int64_t base = options_.base_micros;
    if (base == 0) return std::chrono::microseconds(0);
    const int64_t ceiling = std::min(options_.cap_micros, 3 * prev_micros_);
    int64_t sleep = base;
    if (ceiling > base) {
      sleep = base + static_cast<int64_t>(
                         rng_.NextBounded(static_cast<uint64_t>(
                             ceiling - base + 1)));
    }
    prev_micros_ = sleep;
    ++attempts_;
    return std::chrono::microseconds(sleep);
  }

  /// Sleep the next interval and fold it into the cumulative total.
  void SleepNext() {
    const std::chrono::microseconds interval = Next();
    total_micros_ += interval.count();
    if (interval.count() > 0) std::this_thread::sleep_for(interval);
  }

  /// Back to the first-attempt state (a success ends the incident; the
  /// next failure starts from base again, not from the old ceiling).
  void Reset() { prev_micros_ = 0; }

  int attempts() const { return attempts_; }
  uint64_t total_micros() const { return total_micros_; }

 private:
  BackoffOptions options_;
  Xoshiro256 rng_;
  int64_t prev_micros_ = 0;
  int attempts_ = 0;
  uint64_t total_micros_ = 0;
};

}  // namespace ldpjs

#endif  // LDPJS_COMMON_BACKOFF_H_
