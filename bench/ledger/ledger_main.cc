// ldpjs_ledger: runs one ledger workload and prints its metrics.
//
//   ldpjs_ledger --workload <name> --seed <n> [--seconds <s>] [--trace <file>]
//
// Untraced (the default): sets the workload up five times (setup_s is the
// median), measures for --seconds, verifies the outputs and prints the
// end-to-end metrics. Traced (--trace <file>): sets up once, measures half
// the time untraced and half traced, writes every span to <file>, and
// prints the per-layer metrics. End-to-end metrics only ever come from
// untraced measurement.
//
// Output: info lines, then {"host": ...}, then — as the last line — one JSON
// object {"correct", "attempted", "failed", "metrics"}. The exit code is 0
// only when every operation and every output check succeeded.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "ledger.h"

namespace ledger {
namespace {

constexpr int kSetupRepeats = 5;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  std::string trace_path;  ///< empty = untraced run
};

[[noreturn]] void Usage(const char* message) {
  std::fprintf(stderr, "ldpjs_ledger: %s\nusage: ldpjs_ledger --workload <",
               message);
  for (size_t i = 0; i < WorkloadNames().size(); ++i) {
    std::fprintf(stderr, "%s%s", i == 0 ? "" : "|", WorkloadNames()[i].c_str());
  }
  std::fprintf(stderr, "> --seed <n> [--seconds <s>] [--trace <file>]\n");
  std::exit(2);
}

Options ParseArgs(int argc, char** argv) {
  Options options;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
      if (!have_seed) Usage("--seed takes a whole number");
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(options.seconds > 0.0)) {
        Usage("--seconds takes a positive number");
      }
    } else if (flag == "--trace") {
      options.trace_path = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  bool known = false;
  for (const std::string& name : WorkloadNames()) known |= name == options.workload;
  if (!known) Usage("unknown or missing --workload");
  if (!have_seed) Usage("--seed is required");
  return options;
}

std::string MetricsJson(const MetricMap& metrics,
                        const std::vector<std::string>& order) {
  std::string json = "{";
  for (const std::string& name : order) {
    const Metric& metric = metrics.at(name);
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metric.value);
    json += (json.size() > 1 ? ", \"" : "\"") + name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metric.unit + "\"}";
  }
  return json + "}";
}

void PrintResult(uint64_t attempted, uint64_t failed, const MetricMap& metrics,
                 const std::vector<std::string>& order) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": %s}\n",
              failed == 0 ? "true" : "false", attempted, failed,
              MetricsJson(metrics, order).c_str());
  std::fflush(stdout);
}

int RunUntraced(const Options& options) {
  std::unique_ptr<Workload> workload;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    workload.reset();  // stop the previous instance before timing the next
    const auto start = Clock::now();
    workload = MakeWorkload(options.workload, options.seed);
    setup_s.push_back(SecondsSince(start));
  }
  const Measurement measured = workload->Measure(options.seconds);
  const uint64_t failed = measured.failed + workload->Verify();
  workload.reset();

  MetricMap metrics;
  metrics["setup_s"] = {Median(setup_s), "s"};
  metrics["peak_rss_mb"] = {PeakRssMb(), "MB"};
  metrics["rate_per_s"] = {measured.rate_per_s, "1/s"};
  metrics["latency_p50_ms"] = {Percentile(measured.latency_ms, 50), "ms"};
  metrics["latency_p99_ms"] = {Percentile(measured.latency_ms, 99), "ms"};
  std::printf("ledger: %zu latency samples\n", measured.latency_ms.size());
  PrintResult(std::max<uint64_t>(measured.attempted, 1), failed, metrics,
              {"setup_s", "peak_rss_mb", "rate_per_s", "latency_p50_ms",
               "latency_p99_ms"});
  return failed == 0 ? 0 : 1;
}

int RunTraced(const Options& options) {
  std::unique_ptr<Workload> workload = MakeWorkload(options.workload, options.seed);
  const double half = options.seconds / 2.0;
  const Measurement plain = workload->Measure(half);
  ClearSpans();
  EnableSpans(true);
  Measurement traced = workload->Measure(half);
  EnableSpans(false);
  uint64_t failed = plain.failed + traced.failed + workload->Verify();
  workload.reset();

  const std::vector<SpanRecord> spans = CollectSpans();
  ClearSpans();
  std::printf("{\"trace\": %s}\n", LayerSummaryJson(spans).c_str());
  if (!WriteSpans(spans, options.trace_path)) {
    std::fprintf(stderr, "ledger: cannot write %s\n", options.trace_path.c_str());
    ++failed;
  }

  MetricMap metrics = traced.layer;
  for (auto& [name, metric] : SpanLayerMetrics(spans)) metrics.emplace(name, metric);
  std::map<std::string, std::string> sources;
  CompleteLayerMetrics(options.seed, metrics, sources);
  // Tracing cost on the workload's own latency: traced p50 against the
  // untraced window just before it.
  metrics["trace_overhead_pct"] = {
      100.0 * (Percentile(traced.latency_ms, 50) /
                   Percentile(plain.latency_ms, 50) -
               1.0),
      "%"};
  sources["trace_overhead_pct"] = "workload";
  std::string source_json = "{";
  for (const auto& [name, source] : sources) {
    source_json += (source_json.size() > 1 ? ", \"" : "\"") + name + "\": \"" +
                   source + "\"";
  }
  std::printf("{\"sources\": %s}\n", (source_json + "}").c_str());
  PrintResult(std::max<uint64_t>(plain.attempted + traced.attempted, 1), failed,
              metrics, LayerMetricNames());
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace ledger

int main(int argc, char** argv) {
  using namespace ledger;
  const Options options = ParseArgs(argc, argv);
  std::printf("ledger: workload=%s seed=%" PRIu64 " seconds=%g traced=%d\n",
              options.workload.c_str(), options.seed, options.seconds,
              options.trace_path.empty() ? 0 : 1);
  const unsigned nproc = std::thread::hardware_concurrency();
  if (nproc < kDesignCores) {
    // Printed with the result, not just to the terminal: a result file from
    // a smaller host must say so.
    std::printf("ledger: WARNING: %u cores; the load is sized for %zu, so "
                "threads share cores and results are not comparable with a "
                "%zu-core host\n",
                nproc, kDesignCores, kDesignCores);
  }
  std::printf("{\"host\": %s}\n", HostJson().c_str());
  std::fflush(stdout);
  try {
    return options.trace_path.empty() ? RunUntraced(options)
                                      : RunTraced(options);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "ledger: error: %s\n", error.what());
    return 1;
  }
}
