// Per-layer metrics: the table of names and units, the metrics read off a
// workload's spans, and the isolated probes that measure the rest.
//
// A per-layer metric comes from the workload's own traced run when that
// workload makes the call (e.g. federation.cut_and_ship_ms in
// federated_live); otherwise an isolated probe measures it. Probes run on
// one thread with nothing else in the process, with fixed sizes and inputs
// from the seed, so a probe value means the same thing in every workload.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_set>

#include "common/serialize.h"
#include "core/fap.h"
#include "core/ldp_join_sketch_plus.h"
#include "data/datasets.h"
#include "federation/central_node.h"
#include "federation/windowed_view.h"
#include "ledger.h"
#include "net/frame_sender.h"
#include "net/frame_server.h"
#include "obs/metrics.h"
#include "service/query_engine.h"
#include "service/sharded_aggregator.h"

namespace ledger {
namespace {

struct LayerMetricSpec {
  const char* name;
  const char* unit;
};

// Every per-layer metric, in BENCHMARK.json order.
constexpr LayerMetricSpec kLayerMetrics[] = {
    {"core.perturb_ns", "ns"},
    {"core.fap_perturb_ns", "ns"},
    {"core.absorb_ns", "ns"},
    {"core.finalize_us", "us"},
    {"core.join_estimate_us", "us"},
    {"core.plus_offline_s", "s"},
    {"core.plus_online_s", "s"},
    {"service.decode_ns", "ns"},
    {"service.ingest_frame_ns", "ns"},
    {"service.ingest_small_frame_ns", "ns"},
    {"service.shard_speedup_2", "x"},
    {"service.shard_speedup_4", "x"},
    {"service.answer_freq_us", "us"},
    {"service.answer_range_us", "us"},
    {"service.answer_join_us", "us"},
    {"net.send_us.p50", "us"},
    {"net.send_us.p99", "us"},
    {"net.connect_us.p99", "us"},
    {"net.finish_us.p99", "us"},
    {"net.query_rtt_us.freq", "us"},
    {"net.query_rtt_us.range", "us"},
    {"net.query_rtt_us.join", "us"},
    {"net.ping_us.p50", "us"},
    {"net.ping_us.p99", "us"},
    {"net.cut_epoch_us", "us"},
    {"net.shard_speedup_2", "x"},
    {"net.shard_speedup_4", "x"},
    {"net.queue_high_water", "count"},
    {"federation.cut_and_ship_ms.p50", "ms"},
    {"federation.cut_and_ship_ms.p99", "ms"},
    {"federation.push_epoch_ms", "ms"},
    {"federation.window_apply_us", "us"},
    {"federation.epoch_lag_ms.p50", "ms"},
    {"federation.epoch_lag_ms.p99", "ms"},
    {"federation.snapshot_bytes_per_epoch", "B"},
    {"obs.record_ns", "ns"},
    {"ledger.send_ns", "ns"},
    {"ledger.cpu_ns_per_report", "ns"},
    {"ledger.stage_sum_ns_per_report", "ns"},
    {"ledger.unaccounted_share", "fraction"},
    {"gen.late_p99_ms", "ms"},
    {"trace_overhead_pct", "%"},
};

const char* UnitOf(const std::string& name) {
  for (const LayerMetricSpec& spec : kLayerMetrics) {
    if (name == spec.name) return spec.unit;
  }
  return "";
}

// Span-derived metrics: the p50 or p99 duration of one span name.
struct SpanStat {
  const char* metric;
  const char* span;
  double percentile;
};
constexpr SpanStat kSpanStats[] = {
    {"net.send_us.p50", "net.send", 50},
    {"net.send_us.p99", "net.send", 99},
    {"net.connect_us.p99", "net.connect", 99},
    {"net.finish_us.p99", "net.finish", 99},
    {"net.query_rtt_us.freq", "net.query.freq", 50},
    {"net.query_rtt_us.range", "net.query.range", 50},
    {"net.query_rtt_us.join", "net.query.join", 50},
    {"net.ping_us.p50", "net.ping", 50},
    {"net.ping_us.p99", "net.ping", 99},
    {"federation.cut_and_ship_ms.p50", "federation.cut_and_ship", 50},
    {"federation.cut_and_ship_ms.p99", "federation.cut_and_ship", 99},
    {"federation.epoch_lag_ms.p50", "federation.epoch_lag", 50},
    {"federation.epoch_lag_ms.p99", "federation.epoch_lag", 99},
};
/// Fewer samples than this and the workload's spans do not define the
/// statistic; the probe measures it instead.
constexpr size_t kMinSpanSamples = 20;

double NsToUnit(double ns, const std::string& unit) {
  if (unit == "us") return ns / 1e3;
  if (unit == "ms") return ns / 1e6;
  if (unit == "s") return ns / 1e9;
  return ns;
}

void Put(MetricMap& out, const std::string& name, double value) {
  out[name] = Metric{value, UnitOf(name)};
}

/// Runs `fn` `reps` times and returns the median wall time in ns.
double MedianNs(int reps, const std::function<void()>& fn) {
  std::vector<double> samples;
  for (int i = 0; i < reps; ++i) {
    const uint64_t t0 = NowNs();
    fn();
    samples.push_back(static_cast<double>(NowNs() - t0));
  }
  return Median(samples);
}

// Inputs every probe shares: 2^22 reports, as 4096-report and as 64-report
// frames. Built once per traced run, on first use.
constexpr uint64_t kProbeReports = uint64_t{1} << 22;
constexpr uint64_t kProbeCoreReports = uint64_t{1} << 20;

struct ProbeInputs {
  std::vector<uint64_t> keys;
  std::vector<ldpjs::LdpReport> reports;
  std::vector<std::vector<uint8_t>> frames;        // 4096 reports each
  std::vector<std::vector<uint8_t>> small_frames;  // 64 reports each
  std::vector<std::span<const uint8_t>> frame_spans;

  explicit ProbeInputs(uint64_t seed)
      : keys(ZipfKeys(kProbeReports, ldpjs::DeriveStreamSeed(seed, 900))),
        reports(PerturbKeys(keys, ldpjs::DeriveStreamSeed(seed, 901))),
        frames(EncodeFrames(reports, ldpjs::kMaxWireBatchReports)),
        small_frames(EncodeFrames(
            std::span(reports).first(kProbeCoreReports / 16), 64)) {
    for (const auto& frame : frames) frame_spans.emplace_back(frame);
  }
  std::span<const uint64_t> core_keys() const {
    return std::span(keys).first(kProbeCoreReports);
  }
  std::span<const ldpjs::LdpReport> core_reports() const {
    return std::span(reports).first(kProbeCoreReports);
  }
};

/// ns per item of one pass over `items` items, median of 3 passes.
double PerItemNs(uint64_t items, const std::function<void()>& pass) {
  return MedianNs(3, pass) / static_cast<double>(items);
}

// ---- Probes ---------------------------------------------------------------

void ProbeCore(uint64_t, const ProbeInputs& in, MetricMap& out) {
  const auto keys = in.core_keys();
  const auto reports = in.core_reports();
  const size_t block = ldpjs::kMaxWireBatchReports;
  std::vector<ldpjs::LdpReport> perturbed(keys.size());

  const ldpjs::LdpJoinSketchClient client(Params(), kEpsilon);
  Put(out, "core.perturb_ns", PerItemNs(keys.size(), [&] {
        for (size_t first = 0; first < keys.size(); first += block) {
          ldpjs::Xoshiro256 rng = ldpjs::MakeStreamRng(1, first / block);
          client.PerturbBatch(keys.subspan(first, block),
                              std::span(perturbed).subspan(first, block), rng);
        }
      }));
  // FAP's low-frequency sketch with the 100 most frequent ranks as FI.
  std::unordered_set<uint64_t> frequent;
  for (uint64_t key = 0; key < 100; ++key) frequent.insert(key);
  const ldpjs::FapClient fap(Params(), kEpsilon, ldpjs::FapMode::kLow, frequent);
  Put(out, "core.fap_perturb_ns", PerItemNs(keys.size(), [&] {
        for (size_t first = 0; first < keys.size(); first += block) {
          ldpjs::Xoshiro256 rng = ldpjs::MakeStreamRng(2, first / block);
          fap.PerturbBatch(keys.subspan(first, block),
                           std::span(perturbed).subspan(first, block), rng);
        }
      }));
  ldpjs::LdpJoinSketchServer sketch(Params(), kEpsilon);
  Put(out, "core.absorb_ns", PerItemNs(reports.size(), [&] {
        for (size_t first = 0; first < reports.size(); first += block) {
          sketch.AbsorbBatch(reports.subspan(first, block));
        }
      }));
  std::vector<double> finalize_ns;
  for (int i = 0; i < 21; ++i) {
    ldpjs::LdpJoinSketchServer copy = sketch;
    const uint64_t t0 = NowNs();
    copy.Finalize();
    finalize_ns.push_back(static_cast<double>(NowNs() - t0));
  }
  Put(out, "core.finalize_us", Median(finalize_ns) / 1e3);
  ldpjs::LdpJoinSketchServer left = sketch;
  ldpjs::LdpJoinSketchServer right(Params(), kEpsilon);
  right.AbsorbBatch(in.core_reports().last(reports.size() / 2));
  left.Finalize();
  right.Finalize();
  Put(out, "core.join_estimate_us",
      MedianNs(51, [&] { static_cast<void>(left.JoinEstimate(right)); }) / 1e3);

  const size_t core_frames = reports.size() / block;
  std::vector<ldpjs::LdpReport> decoded(block);
  Put(out, "service.decode_ns", PerItemNs(reports.size(), [&] {
        for (size_t f = 0; f < core_frames; ++f) {
          ldpjs::BinaryReader reader(in.frames[f]);
          Check(ldpjs::DecodeReportBatch(reader, decoded).status(),
                "DecodeReportBatch");
        }
      }));
  ldpjs::ShardedAggregator aggregator(Params(), kEpsilon, 1);
  Put(out, "service.ingest_frame_ns", PerItemNs(reports.size(), [&] {
        for (size_t f = 0; f < core_frames; ++f) {
          Check(aggregator.IngestFrameToShard(0, in.frames[f]), "IngestFrameToShard");
        }
      }));
  Put(out, "service.ingest_small_frame_ns",
      PerItemNs(in.small_frames.size(), [&] {
        for (const auto& frame : in.small_frames) {
          Check(aggregator.IngestFrameToShard(0, frame), "IngestFrameToShard");
        }
      }));

  // Recording cost: enabled minus disabled (the disabled path is the one
  // relaxed load + branch every instrument pays when obs is off).
  ldpjs::ObsHistogram histogram;
  constexpr uint64_t kRecords = 4'000'000;
  auto per_record_ns = [&](bool enabled) {
    ldpjs::SetObsEnabled(enabled);
    return PerItemNs(kRecords, [&] {
      for (uint64_t i = 0; i < kRecords; ++i) histogram.Record(i & 0xFFFF);
    });
  };
  const double disabled = per_record_ns(false);
  const double enabled = per_record_ns(true);
  ldpjs::SetObsEnabled(true);
  Put(out, "obs.record_ns", enabled - disabled);
}

void ProbePlus(uint64_t seed, const ProbeInputs&, MetricMap& out) {
  // The FI search scans the whole key domain, so the probe uses a 3e5-key
  // domain to stay under a second; plus_batch itself runs at 3e6.
  const ldpjs::JoinWorkload tables = ldpjs::MakeZipfWorkload(
      kZipfAlpha, 300'000, uint64_t{1} << 20, ldpjs::DeriveStreamSeed(seed, 902));
  ldpjs::LdpJoinSketchPlusParams params;
  params.sketch = Params();
  params.epsilon = kEpsilon;
  params.simulation.run_seed = ldpjs::DeriveStreamSeed(seed, 903);
  params.simulation.num_threads = kDesignCores;
  const auto result =
      ldpjs::EstimateJoinSizePlus(tables.table_a, tables.table_b, params);
  Put(out, "core.plus_offline_s", result.offline_seconds);
  Put(out, "core.plus_online_s", result.online_seconds);
}

// Shard sweep {1, 2, 4} of the in-process service (IngestFrames) and of the
// full TCP path (one sender into a kBlock FrameServer), plus the CPU stage
// ledger of the TCP path.
void ProbeShardSweep(uint64_t, const ProbeInputs& in, MetricMap& out) {
  const double reports = static_cast<double>(in.reports.size());
  std::map<size_t, double> service_rps, net_rps;
  std::vector<double> send_ns, cpu_ns;
  uint64_t high_water = 0;
  for (const size_t shards : {size_t{1}, size_t{2}, size_t{4}}) {
    std::vector<double> service, net;
    for (int rep = 0; rep < 3; ++rep) {
      ldpjs::ShardedAggregator aggregator(Params(), kEpsilon, shards);
      const uint64_t t0 = NowNs();
      Check(aggregator.IngestFrames(in.frame_spans), "IngestFrames");
      service.push_back(reports / (static_cast<double>(NowNs() - t0) / 1e9));

      auto server = StartServer(shards);
      ldpjs::FrameSender sender = ConnectTo(server->port());
      const uint64_t cpu0 = ProcessCpuNs();
      const uint64_t thread0 = ThreadCpuNs();
      const uint64_t t1 = NowNs();
      for (const auto& frame : in.frames) {
        Check(sender.SendEncodedBatch(frame), "SendEncodedBatch");
      }
      Check(sender.Finish(), "Finish");
      net.push_back(reports / (static_cast<double>(NowNs() - t1) / 1e9));
      if (shards == 1) {
        send_ns.push_back(static_cast<double>(ThreadCpuNs() - thread0) / reports);
      }
      if (shards == 4) {
        cpu_ns.push_back(static_cast<double>(ProcessCpuNs() - cpu0) / reports);
        high_water = std::max(high_water, server->metrics().queue_high_water);
      }
    }
    service_rps[shards] = Median(service);
    net_rps[shards] = Median(net);
  }
  std::printf("ledger: shard sweep reports/s  IngestFrames 1:%.4g 2:%.4g 4:%.4g"
              "  TCP 1:%.4g 2:%.4g 4:%.4g\n",
              service_rps[1], service_rps[2], service_rps[4], net_rps[1],
              net_rps[2], net_rps[4]);
  Put(out, "service.shard_speedup_2", service_rps[2] / service_rps[1]);
  Put(out, "service.shard_speedup_4", service_rps[4] / service_rps[1]);
  Put(out, "net.shard_speedup_2", net_rps[2] / net_rps[1]);
  Put(out, "net.shard_speedup_4", net_rps[4] / net_rps[1]);
  Put(out, "ledger.send_ns", Median(send_ns));
  Put(out, "ledger.cpu_ns_per_report", Median(cpu_ns));
  Put(out, "net.queue_high_water", static_cast<double>(high_water));
}

// One 4-shard server: isolated timings of every session call and of
// AnswerQuery on the server's published view.
void ProbeNet(uint64_t, const ProbeInputs& in, MetricMap& out) {
  auto server = StartServer(4);
  ldpjs::FrameSender sender = ConnectTo(server->port());
  std::vector<double> send_ns;
  for (const auto& frame : in.frames) {
    const uint64_t t0 = NowNs();
    Check(sender.SendEncodedBatch(frame), "SendEncodedBatch");
    send_ns.push_back(static_cast<double>(NowNs() - t0));
  }
  std::vector<double> ping_ns;
  for (int i = 0; i < 200; ++i) {
    const uint64_t t0 = NowNs();
    Check(sender.Ping(), "Ping");
    ping_ns.push_back(static_cast<double>(NowNs() - t0));
  }
  Put(out, "net.send_us.p50", Percentile(send_ns, 50) / 1e3);
  Put(out, "net.send_us.p99", Percentile(send_ns, 99) / 1e3);
  Put(out, "net.ping_us.p50", Percentile(ping_ns, 50) / 1e3);
  Put(out, "net.ping_us.p99", Percentile(ping_ns, 99) / 1e3);

  ldpjs::LdpJoinSketchServer probe(Params(), kEpsilon);
  probe.AbsorbBatch(in.core_reports());
  ldpjs::QueryRequest requests[3];
  requests[0].kind = ldpjs::QueryKind::kFrequency;
  requests[1].kind = ldpjs::QueryKind::kRangeCount;
  requests[2].kind = ldpjs::QueryKind::kJoinSize;
  requests[2].probe_sketch = probe.Serialize();
  const char* wire_names[3] = {"net.query_rtt_us.freq", "net.query_rtt_us.range",
                               "net.query_rtt_us.join"};
  const char* local_names[3] = {"service.answer_freq_us", "service.answer_range_us",
                                "service.answer_join_us"};
  const int counts[3] = {400, 200, 100};
  const auto view = server->CurrentPublishedView();
  for (int kind = 0; kind < 3; ++kind) {
    std::vector<double> wire_ns, local_ns;
    for (int i = 0; i < counts[kind]; ++i) {
      const uint64_t key = in.keys[static_cast<size_t>(i)];
      requests[kind].key = key;
      requests[kind].range_lo = std::min(key, kZipfDomain - 1024);
      requests[kind].range_hi = requests[kind].range_lo + 1023;
      uint64_t t0 = NowNs();
      Check(sender.Query(requests[kind]).status(), "Query");
      wire_ns.push_back(static_cast<double>(NowNs() - t0));
      t0 = NowNs();
      Check(ldpjs::AnswerQuery(*view, requests[kind]).status(), "AnswerQuery");
      local_ns.push_back(static_cast<double>(NowNs() - t0));
    }
    Put(out, wire_names[kind], Median(wire_ns) / 1e3);
    Put(out, local_names[kind], Median(local_ns) / 1e3);
  }

  std::vector<double> cut_ns;
  for (int i = 0; i < 40; ++i) {
    Check(sender.SendEncodedBatch(in.frames[static_cast<size_t>(i)]), "SendEncodedBatch");
    Check(sender.Ping(), "Ping");
    const uint64_t t0 = NowNs();
    const auto cut = server->CutEpochSnapshot();
    cut_ns.push_back(static_cast<double>(NowNs() - t0));
    if (cut.reports == 0) std::abort();
  }
  Put(out, "net.cut_epoch_us", Median(cut_ns) / 1e3);
  Check(sender.Finish(), "Finish");

  std::vector<double> connect_ns, finish_ns;
  for (int i = 0; i < 200; ++i) {
    const uint64_t t0 = NowNs();
    ldpjs::FrameSender session = ConnectTo(server->port());
    const uint64_t t1 = NowNs();
    Check(session.Finish(), "Finish");
    connect_ns.push_back(static_cast<double>(t1 - t0));
    finish_ns.push_back(static_cast<double>(NowNs() - t1));
  }
  Put(out, "net.connect_us.p99", Percentile(connect_ns, 99) / 1e3);
  Put(out, "net.finish_us.p99", Percentile(finish_ns, 99) / 1e3);
}

void ProbeFederation(uint64_t seed, const ProbeInputs& in, MetricMap& out) {
  // A 1-second federated_live window traced on its own: cut_and_ship and
  // epoch lag from its spans, snapshot bytes and generator lateness from it.
  {
    auto live = MakeWorkload("federated_live", seed);
    ClearSpans();
    EnableSpans(true);
    const Measurement measured = live->Measure(1.0);
    EnableSpans(false);
    const MetricMap spans = SpanLayerMetrics(CollectSpans());
    ClearSpans();
    for (const char* name :
         {"federation.cut_and_ship_ms.p50", "federation.cut_and_ship_ms.p99",
          "federation.epoch_lag_ms.p50", "federation.epoch_lag_ms.p99"}) {
      const auto it = spans.find(name);
      if (it != spans.end()) out[name] = it->second;
    }
    for (const char* name : {"federation.snapshot_bytes_per_epoch", "gen.late_p99_ms"}) {
      out[name] = measured.layer.at(name);
    }
    if (live->Verify() != 0) throw std::runtime_error("federated_live probe failed its checks");
  }

  ldpjs::LdpJoinSketchServer epoch(Params(), kEpsilon);
  epoch.AbsorbBatch(in.core_reports().first(uint64_t{1} << 16));
  const std::vector<uint8_t> snapshot = epoch.Serialize();

  ldpjs::CentralNodeOptions options;
  options.server.num_shards = 2;
  options.window_epochs = 8;
  options.window_expected_regions = 1;
  ldpjs::CentralNode central(Params(), kEpsilon, options);
  Check(central.Start(), "CentralNode::Start");
  ldpjs::FrameSender sender = ConnectTo(central.port());
  std::vector<double> push_ns;
  for (uint64_t e = 0; e < 40; ++e) {
    const uint64_t t0 = NowNs();
    Check(sender.PushEpochSnapshot(0, e, snapshot).status(), "PushEpochSnapshot");
    push_ns.push_back(static_cast<double>(NowNs() - t0));
  }
  Check(sender.Finish(), "Finish");
  Put(out, "federation.push_epoch_ms", Median(push_ns) / 1e6);

  // Steady-state slide: past W epochs every apply merges one epoch,
  // subtracts the expired one and publishes.
  ldpjs::WindowedView window(Params(), kEpsilon, 8, 1);
  std::vector<double> apply_ns;
  for (uint64_t e = 0; e < 48; ++e) {
    ldpjs::LdpJoinSketchServer copy = epoch;
    const uint64_t t0 = NowNs();
    window.OnEpochApplied(0, e, &copy);
    if (e >= 16) apply_ns.push_back(static_cast<double>(NowNs() - t0));
  }
  Put(out, "federation.window_apply_us", Median(apply_ns) / 1e3);
}

/// An isolated probe and the per-layer metrics it measures.
struct Probe {
  std::vector<const char*> metrics;
  void (*run)(uint64_t seed, const ProbeInputs& in, MetricMap& out);
};

}  // namespace

const std::vector<std::string>& LayerMetricNames() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const LayerMetricSpec& spec : kLayerMetrics) out.emplace_back(spec.name);
    return out;
  }();
  return names;
}

MetricMap SpanLayerMetrics(const std::vector<SpanRecord>& spans) {
  std::map<std::string, std::vector<double>> durations;
  for (const SpanRecord& span : spans) {
    durations[span.name].push_back(static_cast<double>(span.end_ns - span.start_ns));
  }
  MetricMap out;
  for (const SpanStat& stat : kSpanStats) {
    const auto it = durations.find(stat.span);
    if (it == durations.end() || it->second.size() < kMinSpanSamples) continue;
    const std::string unit = UnitOf(stat.metric);
    out[stat.metric] =
        Metric{NsToUnit(Percentile(it->second, stat.percentile), unit), unit};
  }
  return out;
}

void CompleteLayerMetrics(uint64_t seed, MetricMap& metrics,
                          std::map<std::string, std::string>& sources) {
  for (const auto& [name, metric] : metrics) sources.emplace(name, "workload");
  const std::vector<Probe> probes = {
      {{"core.perturb_ns", "core.fap_perturb_ns", "core.absorb_ns",
        "core.finalize_us", "core.join_estimate_us", "service.decode_ns",
        "service.ingest_frame_ns", "service.ingest_small_frame_ns",
        "obs.record_ns"},
       ProbeCore},
      {{"core.plus_offline_s", "core.plus_online_s"}, ProbePlus},
      {{"service.shard_speedup_2", "service.shard_speedup_4",
        "net.shard_speedup_2", "net.shard_speedup_4", "ledger.send_ns",
        "ledger.cpu_ns_per_report", "net.queue_high_water"},
       ProbeShardSweep},
      {{"net.send_us.p50", "net.send_us.p99", "net.connect_us.p99",
        "net.finish_us.p99", "net.query_rtt_us.freq", "net.query_rtt_us.range",
        "net.query_rtt_us.join", "net.ping_us.p50", "net.ping_us.p99",
        "net.cut_epoch_us", "service.answer_freq_us", "service.answer_range_us",
        "service.answer_join_us"},
       ProbeNet},
      {{"federation.cut_and_ship_ms.p50", "federation.cut_and_ship_ms.p99",
        "federation.epoch_lag_ms.p50", "federation.epoch_lag_ms.p99",
        "federation.snapshot_bytes_per_epoch", "gen.late_p99_ms",
        "federation.push_epoch_ms", "federation.window_apply_us"},
       ProbeFederation},
  };
  std::optional<ProbeInputs> inputs;
  for (const Probe& probe : probes) {
    const bool needed = std::any_of(
        probe.metrics.begin(), probe.metrics.end(),
        [&](const char* name) { return metrics.count(name) == 0; });
    if (!needed) continue;
    if (!inputs) inputs.emplace(seed);
    MetricMap measured;
    probe.run(seed, *inputs, measured);
    for (auto& [name, metric] : measured) {
      if (metrics.emplace(name, metric).second) sources.emplace(name, "probe");
    }
  }
  // The stage ledger: isolated decode + absorb and send costs against the
  // process CPU per report; what they leave unexplained is the layers not
  // yet timed from outside (reader recv, queue hand-off, kernel TCP).
  const double stage_sum = metrics.at("service.ingest_frame_ns").value +
                           metrics.at("ledger.send_ns").value;
  Put(metrics, "ledger.stage_sum_ns_per_report", stage_sum);
  Put(metrics, "ledger.unaccounted_share",
      1.0 - stage_sum / metrics.at("ledger.cpu_ns_per_report").value);
  sources["ledger.stage_sum_ns_per_report"] = "derived";
  sources["ledger.unaccounted_share"] = "derived";
}

}  // namespace ledger
