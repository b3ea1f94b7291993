// Performance ledger: shared constants, result records, timing helpers and
// the benchmark's own span recorder.
//
// The ledger drives libldpjs from outside: every number it reports times
// calls into a module's public functions (core/, service/, net/,
// federation/, obs/). Nothing inside the library is instrumented, so the
// same binary measures any commit of the library.
#ifndef LDPJS_BENCH_LEDGER_LEDGER_H_
#define LDPJS_BENCH_LEDGER_LEDGER_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/ldp_join_sketch.h"
#include "core/params.h"
#include "net/frame_sender.h"
#include "net/frame_server.h"

namespace ledger {

// ---- Fixed load shape -----------------------------------------------------
// Every workload uses the paper's default sketch (k=18, m=1024, ε=4) over
// Zipf(1.1) keys from a 3e6 domain. Thread, shard and connection counts are
// constants sized for a 4-core host, never derived from nproc, so a result
// means the same load on any machine.
inline constexpr int kSketchRows = 18;
inline constexpr int kSketchCols = 1024;
inline constexpr double kEpsilon = 4.0;
inline constexpr double kZipfAlpha = 1.1;
inline constexpr uint64_t kZipfDomain = 3'000'000;
inline constexpr uint64_t kHashSeed = 0x1EDC3;
inline constexpr size_t kDesignCores = 4;

ldpjs::SketchParams Params();

// ---- Timing ---------------------------------------------------------------
using Clock = std::chrono::steady_clock;

/// Steady-clock nanoseconds (the span and latency time base).
uint64_t NowNs();
double SecondsSince(Clock::time_point start);
/// Process CPU time (user + system, all threads) in nanoseconds.
uint64_t ProcessCpuNs();
/// CPU time of the calling thread in nanoseconds.
uint64_t ThreadCpuNs();
/// Peak resident set size of the process in MB.
double PeakRssMb();

/// Nearest-rank percentile (p in [0, 100]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);

/// `items` units of work that finished at `at_ns`.
struct Completion {
  uint64_t at_ns = 0;
  uint64_t items = 0;
};
/// Work completed per second: the median, over kRateWindows equal windows
/// of [start_ns, end_ns), of the items completed in each window. A burst of
/// interference from outside the process moves one window, not the rate.
inline constexpr int kRateWindows = 10;
double WindowedRate(const std::vector<Completion>& completions,
                    uint64_t start_ns, uint64_t end_ns);

// ---- Results --------------------------------------------------------------
struct Metric {
  double value = 0.0;
  std::string unit;
};
using MetricMap = std::map<std::string, Metric>;

/// What one measured window of a workload produced.
struct Measurement {
  /// Work items completed per second: table rows, reports or queries,
  /// depending on the workload (see README.md).
  double rate_per_s = 0.0;
  /// One latency sample per operation, in milliseconds.
  std::vector<double> latency_ms;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Per-layer metrics the workload measured itself (a traced run reports
  /// them; an untraced one ignores them).
  MetricMap layer;
};

/// A workload's inputs and running system. Construction is the set-up the
/// `setup_s` metric times; destruction stops every server and thread.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Runs the load for `seconds`. May be called more than once on one
  /// instance (the traced run measures an untraced and a traced window);
  /// Verify covers everything every call sent.
  virtual Measurement Measure(double seconds) = 0;
  /// Checks the system's outputs against a direct computation of the same
  /// inputs. Returns the number of failed checks, each explained on stderr.
  virtual uint64_t Verify() = 0;
};

/// Names of the five workloads, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();
/// Builds (sets up) the named workload from `seed`; nullptr if unknown.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed);

// ---- System under test ----------------------------------------------------
/// Throws std::runtime_error naming `what` unless `status` is OK: for set-up
/// and probe calls, whose failure leaves nothing to measure.
void Check(const ldpjs::Status& status, const std::string& what);
/// A started kBlock FrameServer with `shards` shards on an ephemeral port.
std::unique_ptr<ldpjs::FrameServer> StartServer(size_t shards);
/// A FrameSender session with the server at 127.0.0.1:`port`.
ldpjs::FrameSender ConnectTo(uint16_t port);

// ---- Inputs ---------------------------------------------------------------
/// `count` Zipf(kZipfAlpha) keys over kZipfDomain, deterministic in `seed`.
std::vector<uint64_t> ZipfKeys(uint64_t count, uint64_t seed);
/// Perturbs `keys` in 4096-report blocks, block b drawing from stream b of
/// `run_seed` — the simulation's stream layout.
std::vector<ldpjs::LdpReport> PerturbKeys(std::span<const uint64_t> keys,
                                          uint64_t run_seed);
/// Encodes `reports` as LJSB envelopes of `per_frame` reports each (the last
/// may be shorter): the DATA payloads FrameSender::SendEncodedBatch takes.
std::vector<std::vector<uint8_t>> EncodeFrames(
    std::span<const ldpjs::LdpReport> reports, size_t per_frame);
/// Raw lanes (k·m int64, row-major) of `reports` absorbed once.
std::vector<int64_t> LanesOf(std::span<const ldpjs::LdpReport> reports);
/// Raw lanes of an un-finalized sketch.
std::vector<int64_t> LanesOf(const ldpjs::LdpJoinSketchServer& sketch);

// ---- Spans ----------------------------------------------------------------
// The traced run records one span around every call into a layer. Spans go
// to a per-thread buffer (no lock on the hot path), stay in memory, and are
// summarized and written out when the run ends. With tracing off a span is
// one relaxed atomic load.

struct SpanRecord {
  const char* name = "";  ///< "<layer>.<call>", a string literal
  uint64_t id = 0;
  uint64_t parent = 0;    ///< 0 = no enclosing span on this thread
  uint32_t thread = 0;
  bool wait = false;      ///< time spent blocked on another party
  uint64_t items = 0;     ///< reports/rows the call handled (0 = n/a)
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

void EnableSpans(bool enabled);
/// Every span recorded so far, across threads (call after they joined).
std::vector<SpanRecord> CollectSpans();
/// Drops every recorded span (threads that recorded must have joined).
void ClearSpans();

/// Records a span for the enclosing scope.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, uint64_t items = 0, bool wait = false);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecord record_;
  bool active_ = false;
};

/// Records a span with explicit bounds (e.g. measured from a due time).
void RecordSpan(const char* name, uint64_t start_ns, uint64_t end_ns,
                bool wait = false);

/// Per-layer totals over a span set: calls, busy (top-level time in the
/// layer), self (span minus time covered by child spans), wait.
std::string LayerSummaryJson(const std::vector<SpanRecord>& spans);
/// Writes every span as one JSON array per line. False on I/O error.
bool WriteSpans(const std::vector<SpanRecord>& spans, const std::string& path);

// ---- Per-layer metrics ----------------------------------------------------
/// Every per-layer metric name, in BENCHMARK.json order.
const std::vector<std::string>& LayerMetricNames();
/// Per-layer metrics read off the workload's own spans (calls with enough
/// samples only).
MetricMap SpanLayerMetrics(const std::vector<SpanRecord>& spans);
/// Fills every per-layer metric still missing from `metrics` by running the
/// isolated single-threaded probes that measure it, then the derived ledger
/// metrics. `sources` records where each metric came from.
void CompleteLayerMetrics(uint64_t seed, MetricMap& metrics,
                          std::map<std::string, std::string>& sources);

// ---- Host -----------------------------------------------------------------
/// nproc, CPU model, caches, compiler, build type and `git describe`.
std::string HostJson();

}  // namespace ledger

#endif  // LDPJS_BENCH_LEDGER_LEDGER_H_
