// The five ledger workloads. Each one is a class whose constructor is the
// set-up (inputs generated from the seed, servers started on 127.0.0.1),
// whose Measure() runs the load for a fixed time, and whose Verify() checks
// what the system computed against a direct computation of the same inputs.
//
// Why these five (see README.md for the long form):
//   plus_batch     the paper's offline estimator; core only, no serving code;
//   ingest_bulk    per-report ingest cost, amortized over 4096-report frames;
//   ingest_small   the same layers paid per frame and per session;
//   federated_live the cut → ship → merge → window → publish path, open loop;
//   query_mix      the read path while writes keep forcing republishes.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "core/ldp_join_sketch_plus.h"
#include "data/datasets.h"
#include "data/join.h"
#include "federation/central_node.h"
#include "federation/regional_node.h"
#include "ledger.h"
#include "net/frame_sender.h"
#include "net/frame_server.h"
#include "service/query_engine.h"

namespace ledger {
namespace {

using ldpjs::FrameSender;
using ldpjs::FrameServer;
using ldpjs::LdpReport;

/// Seed of an independent input stream `tag` of the run seeded `seed`.
uint64_t SubSeed(uint64_t seed, uint64_t tag) {
  return ldpjs::DeriveStreamSeed(seed, tag);
}

/// Explains a failed operation or check on stderr.
void Complain(const std::string& what) {
  std::fprintf(stderr, "ledger: FAILED: %s\n", what.c_str());
}

/// The raw lanes a server holds, read back over the wire (SNAPSHOT is
/// ordered after everything the snapshotting connection sent, and every
/// other connection has finished or pinged before this is called).
std::optional<std::vector<int64_t>> WireLanes(uint16_t port) {
  FrameSender sender = ConnectTo(port);
  auto bytes = sender.SnapshotRawSketch();
  if (!bytes.ok()) return std::nullopt;
  auto sketch = ldpjs::LdpJoinSketchServer::Deserialize(*bytes);
  if (!sketch.ok() || !sender.Finish().ok()) return std::nullopt;
  return LanesOf(*sketch);
}

/// lanes += times · delta, lane by lane.
void AddScaled(std::vector<int64_t>& lanes, const std::vector<int64_t>& delta,
               uint64_t times) {
  lanes.resize(delta.size(), 0);
  for (size_t i = 0; i < delta.size(); ++i) {
    lanes[i] += static_cast<int64_t>(times) * delta[i];
  }
}

/// The per-thread sample vectors of one measurement, joined.
template <typename T>
std::vector<T> Concat(const std::vector<std::vector<T>>& parts) {
  std::vector<T> all;
  for (const auto& part : parts) all.insert(all.end(), part.begin(), part.end());
  return all;
}

/// `ns` spread over `items` (CPU per report), as a "ns" metric.
Metric NsPerItem(uint64_t ns, uint64_t items) {
  return {static_cast<double>(ns) / static_cast<double>(std::max<uint64_t>(items, 1)),
          "ns"};
}

void SleepUntilNs(uint64_t due_ns) {
  std::this_thread::sleep_until(
      Clock::time_point(std::chrono::nanoseconds(due_ns)));
}

// ---------------------------------------------------------------------------
// plus_batch: EstimateJoinSizePlus (r=0.1, θ=0.001) on two Zipf tables.
// ---------------------------------------------------------------------------

constexpr uint64_t kPlusRows = uint64_t{1} << 22;  // per table
constexpr uint64_t kPlusWarmupRows = uint64_t{1} << 16;
constexpr int kPlusMinTrials = 3;
/// A trial whose estimate is further than this from the exact join size
/// counts as failed: at these sizes the paper's estimator lands within a
/// few percent, so 0.5 only catches a broken estimator, not bad luck.
constexpr double kPlusMaxRelError = 0.5;

class PlusBatch final : public Workload {
 public:
  explicit PlusBatch(uint64_t seed)
      : seed_(seed),
        tables_(ldpjs::MakeZipfWorkload(kZipfAlpha, kZipfDomain, kPlusRows,
                                        seed)),
        exact_(ldpjs::ExactJoinSize(tables_.table_a, tables_.table_b)) {}

  Measurement Measure(double seconds) override {
    if (!warmed_up_) {
      // One untimed small trial: faults in the thread pool and allocator.
      ldpjs::LdpJoinSketchPlusParams params = TrialParams(0);
      ldpjs::EstimateJoinSizePlus(tables_.table_a.Prefix(kPlusWarmupRows),
                                  tables_.table_b.Prefix(kPlusWarmupRows),
                                  params);
      warmed_up_ = true;
    }
    Measurement out;
    std::vector<double> offline_s, online_s;
    const auto start = Clock::now();
    while (out.attempted < kPlusMinTrials || SecondsSince(start) < seconds) {
      const ldpjs::LdpJoinSketchPlusParams params = TrialParams(++trials_);
      const auto trial_start = Clock::now();
      ldpjs::LdpJoinSketchPlusResult result;
      {
        ScopedSpan span("core.plus_trial", 2 * kPlusRows);
        result = ldpjs::EstimateJoinSizePlus(tables_.table_a, tables_.table_b,
                                             params);
      }
      out.latency_ms.push_back(SecondsSince(trial_start) * 1e3);
      offline_s.push_back(result.offline_seconds);
      online_s.push_back(result.online_seconds);
      const double rel_error = std::fabs(result.estimate - exact_) / exact_;
      rel_errors_.push_back(rel_error);
      ++out.attempted;
      if (!(rel_error <= kPlusMaxRelError)) {
        ++out.failed;
        Complain("plus_batch trial relative error " + std::to_string(rel_error));
      }
    }
    out.rate_per_s = static_cast<double>(2 * kPlusRows * out.attempted) /
                     SecondsSince(start);
    out.layer["core.plus_offline_s"] = {Median(offline_s), "s"};
    out.layer["core.plus_online_s"] = {Median(online_s), "s"};
    return out;
  }

  uint64_t Verify() override {
    double sum = 0.0;
    for (const double e : rel_errors_) sum += e;
    std::printf("ledger: plus_batch join_re (mean relative error against "
                "ExactJoinSize) %.5f over %zu trials\n",
                sum / static_cast<double>(rel_errors_.size()),
                rel_errors_.size());
    return 0;  // every trial was checked as it ran
  }

 private:
  ldpjs::LdpJoinSketchPlusParams TrialParams(uint64_t trial) const {
    ldpjs::LdpJoinSketchPlusParams params;
    params.sketch = Params();
    params.epsilon = kEpsilon;
    params.sample_rate = 0.1;
    params.threshold = 0.001;
    params.simulation.run_seed = SubSeed(seed_, 1000 + trial);
    params.simulation.num_threads = kDesignCores;
    return params;
  }

  uint64_t seed_;
  ldpjs::JoinWorkload tables_;
  double exact_;
  bool warmed_up_ = false;
  uint64_t trials_ = 0;
  std::vector<double> rel_errors_;
};

// ---------------------------------------------------------------------------
// ingest_bulk: 2 connections stream a pre-encoded pool of 4096-report frames
// into a 4-shard kBlock FrameServer, closed loop, whole pool passes.
// ---------------------------------------------------------------------------

constexpr uint64_t kBulkPoolReports = uint64_t{1} << 22;
constexpr size_t kBulkFrameReports = 4096;
constexpr size_t kBulkSenders = 2;
constexpr size_t kBulkShards = 4;

class IngestBulk final : public Workload {
 public:
  explicit IngestBulk(uint64_t seed) {
    const std::vector<uint64_t> keys = ZipfKeys(kBulkPoolReports, seed);
    const std::vector<LdpReport> reports = PerturbKeys(keys, SubSeed(seed, 1));
    frames_ = EncodeFrames(reports, kBulkFrameReports);
    // Sender s owns frames s, s + kBulkSenders, ...: one pass of its share
    // adds exactly share_lanes_[s] to the server.
    for (size_t s = 0; s < kBulkSenders; ++s) {
      ldpjs::LdpJoinSketchServer share(Params(), kEpsilon);
      for (size_t f = s; f < frames_.size(); f += kBulkSenders) {
        share.AbsorbBatch(std::span(reports).subspan(
            f * kBulkFrameReports,
            std::min(kBulkFrameReports, reports.size() - f * kBulkFrameReports)));
      }
      share_lanes_.push_back(LanesOf(share));
      share_reports_.push_back(share.total_reports());
    }
    server_ = StartServer(kBulkShards);
    for (size_t s = 0; s < kBulkSenders; ++s) {
      senders_.push_back(ConnectTo(server_->port()));
    }
    passes_.assign(kBulkSenders, 0);
  }

  Measurement Measure(double seconds) override {
    // One operation is one pass of a connection over its half of the pool
    // (2^21 reports); the rate counts reports as their frames are sent.
    std::vector<std::vector<double>> pass_ms(kBulkSenders);
    std::vector<std::vector<Completion>> sent(kBulkSenders);
    std::vector<uint64_t> passes(kBulkSenders, 0);
    std::atomic<uint64_t> failed{0};
    const uint64_t cpu_start = ProcessCpuNs();
    const uint64_t start = NowNs();
    const uint64_t end = start + static_cast<uint64_t>(seconds * 1e9);
    std::vector<std::thread> threads;
    for (size_t s = 0; s < kBulkSenders; ++s) {
      threads.emplace_back([&, s] {
        FrameSender& sender = senders_[s];
        for (uint64_t pass_start = start; pass_start < end;) {
          for (size_t f = s; f < frames_.size(); f += kBulkSenders) {
            ScopedSpan span("net.send", kBulkFrameReports);
            if (!sender.SendEncodedBatch(frames_[f]).ok()) {
              failed.fetch_add(1);
              return;
            }
            sent[s].push_back({NowNs(), kBulkFrameReports});
          }
          ++passes[s];
          const uint64_t now = NowNs();
          pass_ms[s].push_back(static_cast<double>(now - pass_start) / 1e6);
          pass_start = now;
        }
        ScopedSpan span("net.ping", 0, /*wait=*/true);
        if (!sender.Ping().ok()) failed.fetch_add(1);
      });
    }
    for (std::thread& thread : threads) thread.join();
    const uint64_t cpu_ns = ProcessCpuNs() - cpu_start;

    Measurement out;
    uint64_t reports = 0;
    for (size_t s = 0; s < kBulkSenders; ++s) {
      passes_[s] += passes[s];
      reports += passes[s] * share_reports_[s];
    }
    out.latency_ms = Concat(pass_ms);
    out.attempted = out.latency_ms.size() + failed.load();
    out.failed = failed.load();
    if (out.failed != 0) Complain("ingest_bulk send or ping failed");
    out.rate_per_s = WindowedRate(Concat(sent), start, end);
    out.layer["net.queue_high_water"] = {
        static_cast<double>(server_->metrics().queue_high_water), "count"};
    out.layer["ledger.cpu_ns_per_report"] = NsPerItem(cpu_ns, reports);
    return out;
  }

  uint64_t Verify() override {
    std::vector<int64_t> expected;
    for (size_t s = 0; s < kBulkSenders; ++s) {
      AddScaled(expected, share_lanes_[s], passes_[s]);
    }
    const auto actual = WireLanes(server_->port());
    if (!actual || *actual != expected) {
      Complain("ingest_bulk: server lanes differ from the reports sent");
      return 1;
    }
    return 0;
  }

 private:
  std::vector<std::vector<uint8_t>> frames_;
  std::vector<std::vector<int64_t>> share_lanes_;
  std::vector<uint64_t> share_reports_;
  std::vector<uint64_t> passes_;
  std::unique_ptr<FrameServer> server_;
  std::vector<FrameSender> senders_;  // after server_: closed first
};

// ---------------------------------------------------------------------------
// ingest_small: 4 connections, each looping sessions of Connect (HELLO),
// 32 frames of 64 reports, Finish (BYE) against a 4-shard kBlock server.
// ---------------------------------------------------------------------------

constexpr uint64_t kSmallPoolReports = uint64_t{1} << 20;
constexpr size_t kSmallFrameReports = 64;
constexpr size_t kSmallFramesPerSession = 32;
constexpr size_t kSmallConnections = 4;
constexpr size_t kSmallShards = 4;

class IngestSmall final : public Workload {
 public:
  explicit IngestSmall(uint64_t seed) {
    const std::vector<uint64_t> keys = ZipfKeys(kSmallPoolReports, seed);
    reports_ = PerturbKeys(keys, SubSeed(seed, 2));
    frames_ = EncodeFrames(reports_, kSmallFrameReports);
    frames_per_connection_ = frames_.size() / kSmallConnections;
    for (size_t c = 0; c < kSmallConnections; ++c) {
      cycle_lanes_.push_back(LanesOf(ConnectionReports(c, frames_per_connection_)));
    }
    sent_frames_.assign(kSmallConnections, 0);
    server_ = StartServer(kSmallShards);
  }

  Measurement Measure(double seconds) override {
    std::vector<std::vector<double>> latency(kSmallConnections);
    std::vector<std::vector<Completion>> sessions(kSmallConnections);
    std::atomic<uint64_t> failed{0};
    const uint64_t cpu_start = ProcessCpuNs();
    const uint64_t start = NowNs();
    const uint64_t end = start + static_cast<uint64_t>(seconds * 1e9);
    std::vector<std::thread> threads;
    for (size_t c = 0; c < kSmallConnections; ++c) {
      threads.emplace_back([&, c] {
        while (NowNs() < end && failed.load(std::memory_order_relaxed) == 0) {
          if (RunSession(c, latency[c], sessions[c])) continue;
          failed.fetch_add(1);
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    const uint64_t cpu_ns = ProcessCpuNs() - cpu_start;

    Measurement out;
    out.latency_ms = Concat(latency);
    out.attempted = out.latency_ms.size() + failed.load();
    out.failed = failed.load();
    if (out.failed != 0) Complain("ingest_small session failed");
    const uint64_t reports = out.latency_ms.size() * kSmallFramesPerSession *
                             kSmallFrameReports;
    out.rate_per_s = WindowedRate(Concat(sessions), start, end);
    out.layer["net.queue_high_water"] = {
        static_cast<double>(server_->metrics().queue_high_water), "count"};
    out.layer["ledger.cpu_ns_per_report"] = NsPerItem(cpu_ns, reports);
    return out;
  }

  uint64_t Verify() override {
    std::vector<int64_t> expected;
    for (size_t c = 0; c < kSmallConnections; ++c) {
      AddScaled(expected, cycle_lanes_[c], sent_frames_[c] / frames_per_connection_);
      AddScaled(expected,
                LanesOf(ConnectionReports(c, sent_frames_[c] % frames_per_connection_)),
                1);
    }
    const auto actual = WireLanes(server_->port());
    if (!actual || *actual != expected) {
      Complain("ingest_small: server lanes differ from the reports sent");
      return 1;
    }
    return 0;
  }

 private:
  /// Connection c's i-th frame in its cyclic send order.
  size_t FrameIndex(size_t c, uint64_t i) const {
    return c + kSmallConnections * (i % frames_per_connection_);
  }

  /// The reports of connection c's first `count` frames.
  std::vector<LdpReport> ConnectionReports(size_t c, uint64_t count) const {
    std::vector<LdpReport> out;
    for (uint64_t i = 0; i < count; ++i) {
      const size_t first = FrameIndex(c, i) * kSmallFrameReports;
      out.insert(out.end(), reports_.begin() + first,
                 reports_.begin() + first + kSmallFrameReports);
    }
    return out;
  }

  /// One session; false (after which nothing more is sent) on any error.
  bool RunSession(size_t c, std::vector<double>& latency,
                  std::vector<Completion>& sessions) {
    ScopedSpan session_span("net.session", kSmallFramesPerSession * kSmallFrameReports);
    const uint64_t t0 = NowNs();
    std::optional<FrameSender> sender;
    {
      ScopedSpan span("net.connect");
      auto connected = FrameSender::Connect("127.0.0.1", server_->port(), Params(),
                                            kEpsilon);
      if (!connected.ok()) return false;
      sender.emplace(std::move(*connected));
    }
    for (size_t i = 0; i < kSmallFramesPerSession; ++i) {
      ScopedSpan span("net.send", kSmallFrameReports);
      if (!sender->SendEncodedBatch(frames_[FrameIndex(c, sent_frames_[c])]).ok()) {
        return false;
      }
      ++sent_frames_[c];
    }
    {
      ScopedSpan span("net.finish", 0, /*wait=*/true);
      if (!sender->Finish().ok()) return false;
    }
    const uint64_t done = NowNs();
    latency.push_back(static_cast<double>(done - t0) / 1e6);
    sessions.push_back({done, kSmallFramesPerSession * kSmallFrameReports});
    return true;
  }

  std::vector<LdpReport> reports_;
  std::vector<std::vector<uint8_t>> frames_;
  size_t frames_per_connection_ = 0;
  std::vector<std::vector<int64_t>> cycle_lanes_;
  std::vector<uint64_t> sent_frames_;  // per connection, owned by its thread
  std::unique_ptr<FrameServer> server_;
};

// ---------------------------------------------------------------------------
// federated_live: 2 RegionalNodes (2 shards each) feed a windowed
// CentralNode (2 shards, W=8). One open-loop generator per region sends
// 1024-report frames on a fixed schedule (1e7 reports/s in total); one
// ticker thread cuts and ships both regions every 20 ms.
// ---------------------------------------------------------------------------

constexpr size_t kFedRegions = 2;
constexpr size_t kFedShards = 2;
constexpr uint64_t kFedWindowEpochs = 8;
constexpr uint64_t kFedPoolReports = uint64_t{1} << 20;  // per region
constexpr size_t kFedFrameReports = 1024;
constexpr double kFedReportsPerSecond = 1e7;  // all regions together
constexpr uint64_t kFedTickNs = 20'000'000;   // one epoch
constexpr uint64_t kFedFrameIntervalNs = static_cast<uint64_t>(
    1e9 * kFedFrameReports * kFedRegions / kFedReportsPerSecond);

class FederatedLive final : public Workload {
 public:
  explicit FederatedLive(uint64_t seed) {
    ldpjs::CentralNodeOptions central_options;
    central_options.server.num_shards = kFedShards;
    central_options.finalize_after = kFedRegions;
    central_options.window_epochs = kFedWindowEpochs;
    central_options.window_expected_regions = kFedRegions;
    central_ = std::make_unique<ldpjs::CentralNode>(Params(), kEpsilon,
                                                    central_options);
    Check(central_->Start(), "CentralNode::Start");
    for (size_t r = 0; r < kFedRegions; ++r) {
      Region& region = regions_[r];
      const std::vector<uint64_t> keys =
          ZipfKeys(kFedPoolReports, SubSeed(seed, 10 + r));
      region.reports = PerturbKeys(keys, SubSeed(seed, 20 + r));
      region.frames = EncodeFrames(region.reports, kFedFrameReports);
      region.pool = std::make_unique<ldpjs::LdpJoinSketchServer>(Params(), kEpsilon);
      region.pool->AbsorbBatch(region.reports);
      ldpjs::RegionalNodeOptions options;
      options.region_id = static_cast<uint32_t>(r);
      options.central_port = central_->port();
      options.server.num_shards = kFedShards;
      options.epoch_millis = 0;
      options.push_stats = false;
      region.node = std::make_unique<ldpjs::RegionalNode>(Params(), kEpsilon, options);
      Check(region.node->Start(), "RegionalNode::Start");
      region.sender.emplace(ConnectTo(region.node->port()));
    }
  }

  Measurement Measure(double seconds) override {
    const uint64_t frames_per_region = static_cast<uint64_t>(
        seconds * 1e9 / static_cast<double>(kFedFrameIntervalNs));
    for (Region& region : regions_) {
      region.due_ns.assign(frames_per_region, 0);
      region.cum_reports.assign(frames_per_region, 0);
      region.published.store(0);
      region.covered = 0;
      region.late_ms.clear();
    }
    std::atomic<uint64_t> failed{0};
    std::atomic<size_t> generators_done{0};
    const uint64_t cpu_start = ProcessCpuNs();
    const uint64_t t0 = NowNs() + 5'000'000;
    std::vector<std::thread> threads;
    for (size_t r = 0; r < kFedRegions; ++r) {
      threads.emplace_back([&, r] {
        Generate(regions_[r], t0, frames_per_region, failed);
        generators_done.fetch_add(1);
      });
    }
    Measurement out;
    uint64_t last_cover_ns = t0;
    threads.emplace_back([&] {
      // The ticker: one tick per epoch until the generators are done, then
      // one last tick that must cover every frame they sent.
      for (uint64_t tick = 1;; ++tick) {
        const bool last = generators_done.load() == kFedRegions;
        const uint64_t due = last ? NowNs() : t0 + tick * kFedTickNs;
        if (!last) {
          ScopedSpan idle("gen.idle", 0, /*wait=*/true);
          SleepUntilNs(due);
        }
        for (Region& region : regions_) {
          ScopedSpan span("federation.cut_and_ship");
          if (!region.node->CutAndShip().ok()) failed.fetch_add(1);
        }
        const ldpjs::NetMetrics central = central_->metrics();
        const uint64_t shipped = NowNs();
        RecordSpan("federation.epoch_lag", due, shipped);
        for (const ldpjs::RegionMetrics& row : central.regions) {
          Cover(regions_[row.region_id], row.reports_merged, shipped,
                out.latency_ms);
        }
        last_cover_ns = shipped;
        if (last) break;
      }
    });
    for (std::thread& thread : threads) thread.join();
    const uint64_t cpu_ns = ProcessCpuNs() - cpu_start;

    std::vector<double> late_ms;
    uint64_t reports = 0;
    for (Region& region : regions_) {
      const uint64_t sent = region.published.load();
      out.attempted += sent;
      if (region.covered != sent) {
        out.failed += sent - region.covered;
        Complain("federated_live: frames never became queryable");
      }
      late_ms.insert(late_ms.end(), region.late_ms.begin(), region.late_ms.end());
      reports += sent * kFedFrameReports;
    }
    out.failed += failed.load();
    if (failed.load() != 0) Complain("federated_live: a send or ship failed");
    // The generator counts as behind schedule when 1 % of its frames went
    // out more than an epoch late: a backlog it could not work off, which
    // means the stated load was not offered. One short pause of the host
    // delays only the few frames due during it and does not fail the run.
    const double late_p99_ms = Percentile(late_ms, 99);
    if (late_p99_ms > static_cast<double>(kFedTickNs) / 1e6) {
      ++out.failed;
      Complain("federated_live: generator fell " + std::to_string(late_p99_ms) +
               " ms behind schedule (p99)");
    }
    // Delivered rate: reports made queryable per second, up to the tick
    // that covered the last frame.
    out.rate_per_s =
        static_cast<double>(reports) / (static_cast<double>(last_cover_ns - t0) / 1e9);
    uint64_t bytes = 0, epochs = 0, high_water = 0;
    for (const Region& region : regions_) {
      bytes += region.node->snapshot_bytes_shipped();
      epochs += region.node->epochs_shipped();
      high_water = std::max(high_water, region.node->server().metrics().queue_high_water);
    }
    out.layer["gen.late_p99_ms"] = {late_p99_ms, "ms"};
    out.layer["federation.snapshot_bytes_per_epoch"] = {
        static_cast<double>(bytes) / static_cast<double>(std::max<uint64_t>(epochs, 1)),
        "B"};
    out.layer["net.queue_high_water"] = {static_cast<double>(high_water), "count"};
    out.layer["ledger.cpu_ns_per_report"] = NsPerItem(cpu_ns, reports);
    return out;
  }

  uint64_t Verify() override {
    uint64_t failed = 0;
    ldpjs::LdpJoinSketchServer expected(Params(), kEpsilon);
    for (Region& region : regions_) {
      if (!region.sender->Finish().ok()) ++failed;
      region.sender.reset();
      if (!region.node->FlushAndStop().ok()) ++failed;
      if (region.node->ship_retries() != 0) {
        ++failed;
        Complain("federated_live: a region had to retry a ship");
      }
      const uint64_t frames = region.frames.size();
      for (uint64_t i = 0; i < region.total_sent / frames; ++i) {
        expected.Merge(*region.pool);
      }
      expected.AbsorbBatch(std::span<const LdpReport>(region.reports).first(
          (region.total_sent % frames) * kFedFrameReports));
    }
    central_->Stop();
    const ldpjs::LdpJoinSketchServer actual = central_->Finalize();
    expected.Finalize();
    bool equal = actual.total_reports() == expected.total_reports();
    for (int row = 0; equal && row < kSketchRows; ++row) {
      for (int col = 0; equal && col < kSketchCols; ++col) {
        const double a = actual.cell(row, col), b = expected.cell(row, col);
        equal = std::memcmp(&a, &b, sizeof(double)) == 0;
      }
    }
    if (!equal) {
      ++failed;
      Complain("federated_live: central Finalize() differs from a direct absorb");
    }
    return failed;
  }

 private:
  struct Region {
    std::vector<LdpReport> reports;
    std::vector<std::vector<uint8_t>> frames;
    std::unique_ptr<ldpjs::LdpJoinSketchServer> pool;  ///< lanes of one pass
    std::unique_ptr<ldpjs::RegionalNode> node;
    std::optional<FrameSender> sender;  ///< the generator's connection
    uint64_t total_sent = 0;            ///< frames, across Measure calls
    // Per Measure call: frame i's due time and the region's cumulative
    // report count once it is sent; `published` frames are readable by
    // the ticker, which covers them in order.
    std::vector<uint64_t> due_ns;
    std::vector<uint64_t> cum_reports;
    std::atomic<uint64_t> published{0};
    uint64_t covered = 0;
    std::vector<double> late_ms;
  };

  void Generate(Region& region, uint64_t t0, uint64_t frames,
                std::atomic<uint64_t>& failed) {
    for (uint64_t i = 0; i < frames; ++i) {
      const uint64_t due = t0 + i * kFedFrameIntervalNs;
      {
        ScopedSpan idle("gen.idle", 0, /*wait=*/true);
        SleepUntilNs(due);
      }
      region.late_ms.push_back(static_cast<double>(NowNs() - due) / 1e6);
      {
        ScopedSpan span("net.send", kFedFrameReports);
        const auto& frame = region.frames[region.total_sent % region.frames.size()];
        if (!region.sender->SendEncodedBatch(frame).ok()) {
          failed.fetch_add(1);
          break;
        }
      }
      ++region.total_sent;
      region.due_ns[i] = due;
      region.cum_reports[i] = region.total_sent * kFedFrameReports;
      region.published.store(i + 1, std::memory_order_release);
    }
    // Barrier: everything sent is in the region's lanes before the ticker's
    // last cut.
    ScopedSpan span("net.ping", 0, /*wait=*/true);
    if (!region.sender->Ping().ok()) failed.fetch_add(1);
  }

  /// Marks every frame whose cumulative report count the central has
  /// merged as queryable at `now_ns`, timed from its scheduled send time.
  static void Cover(Region& region, uint64_t merged, uint64_t now_ns,
                    std::vector<double>& fresh_ms) {
    const uint64_t published = region.published.load(std::memory_order_acquire);
    while (region.covered < published &&
           region.cum_reports[region.covered] <= merged) {
      fresh_ms.push_back(
          static_cast<double>(now_ns - region.due_ns[region.covered]) / 1e6);
      ++region.covered;
    }
  }

  std::unique_ptr<ldpjs::CentralNode> central_;
  Region regions_[kFedRegions];
};

// ---------------------------------------------------------------------------
// query_mix: 2 query connections, closed loop, against a 4-shard server
// preloaded with 2^22 reports; one writer sends a frame + PING every 10 ms.
// ---------------------------------------------------------------------------

constexpr uint64_t kQueryPreloadReports = uint64_t{1} << 22;
constexpr uint64_t kQueryProbeReports = uint64_t{1} << 21;
constexpr size_t kQueryConnections = 2;
constexpr size_t kQueryShards = 4;
constexpr uint64_t kQueryRangeWidth = 1024;
constexpr uint64_t kQueryWriterPeriodNs = 10'000'000;

enum QueryType { kFreq = 0, kRange = 1, kJoin = 2 };
constexpr const char* kQuerySpan[] = {"net.query.freq", "net.query.range",
                                      "net.query.join"};

class QueryMix final : public Workload {
 public:
  explicit QueryMix(uint64_t seed) : seed_(seed) {
    keys_ = ZipfKeys(kQueryPreloadReports, seed);
    const std::vector<LdpReport> reports = PerturbKeys(keys_, SubSeed(seed, 3));
    frames_ = EncodeFrames(reports, ldpjs::kMaxWireBatchReports);
    server_ = StartServer(kQueryShards);
    {
      FrameSender loader = ConnectTo(server_->port());
      for (const auto& frame : frames_) {
        Check(loader.SendEncodedBatch(frame), "query_mix preload");
      }
      Check(loader.Ping(), "query_mix preload barrier");
      Check(loader.Finish(), "query_mix preload barrier");
    }
    const std::vector<uint64_t> probe_keys =
        ZipfKeys(kQueryProbeReports, SubSeed(seed, 4));
    ldpjs::LdpJoinSketchServer probe(Params(), kEpsilon);
    probe.AbsorbBatch(PerturbKeys(probe_keys, SubSeed(seed, 5)));
    probe_ = probe.Serialize();
    for (size_t c = 0; c < kQueryConnections; ++c) {
      readers_.push_back(ConnectTo(server_->port()));
    }
    writer_.emplace(ConnectTo(server_->port()));
  }

  Measurement Measure(double seconds) override {
    std::vector<std::vector<double>> latency(kQueryConnections);
    std::vector<std::vector<Completion>> answered(kQueryConnections);
    std::vector<double> late_ms;
    std::atomic<uint64_t> failed{0};
    std::atomic<bool> stop{false};
    const uint64_t start = NowNs();
    std::vector<std::thread> threads;
    for (size_t c = 0; c < kQueryConnections; ++c) {
      threads.emplace_back([&, c] {
        ldpjs::Xoshiro256 rng(SubSeed(seed_, 100 + c + 16 * ++rounds_[c]));
        RequestSet requests = MakeRequests();
        while (!stop.load(std::memory_order_relaxed)) {
          const QueryType type = Draw(rng, requests);
          ScopedSpan span(kQuerySpan[type]);
          const uint64_t t0 = NowNs();
          if (!readers_[c].Query(requests.by_type[type]).ok()) {
            failed.fetch_add(1);
            return;
          }
          const uint64_t done = NowNs();
          latency[c].push_back(static_cast<double>(done - t0) / 1e6);
          answered[c].push_back({done, 1});
        }
      });
    }
    threads.emplace_back([&] {
      const uint64_t t0 = NowNs();
      for (uint64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        const uint64_t due = t0 + i * kQueryWriterPeriodNs;
        {
          ScopedSpan idle("gen.idle", 0, /*wait=*/true);
          SleepUntilNs(due);
        }
        late_ms.push_back(static_cast<double>(NowNs() - due) / 1e6);
        const auto& frame = frames_[writes_++ % frames_.size()];
        {
          ScopedSpan span("net.send", ldpjs::kMaxWireBatchReports);
          if (!writer_->SendEncodedBatch(frame).ok()) {
            failed.fetch_add(1);
            return;
          }
        }
        ScopedSpan span("net.ping");
        if (!writer_->Ping().ok()) {
          failed.fetch_add(1);
          return;
        }
      }
    });
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    const uint64_t end = NowNs();
    stop.store(true);
    for (std::thread& thread : threads) thread.join();

    Measurement out;
    out.latency_ms = Concat(latency);
    out.attempted = out.latency_ms.size() + failed.load();
    out.failed = failed.load();
    if (out.failed != 0) Complain("query_mix: a query or write failed");
    out.rate_per_s = WindowedRate(Concat(answered), start, end);
    out.layer["gen.late_p99_ms"] = {Percentile(late_ms, 99), "ms"};
    out.layer["net.queue_high_water"] = {
        static_cast<double>(server_->metrics().queue_high_water), "count"};
    return out;
  }

  uint64_t Verify() override {
    // The writer has stopped and its last PING republished the view, so the
    // wire answers and the in-process ones read the same publication.
    if (!writer_->Ping().ok()) {
      Complain("query_mix: final ping failed");
      return 1;
    }
    const auto view = server_->CurrentPublishedView();
    RequestSet requests = MakeRequests();
    requests.by_type[kFreq].key = keys_[0];
    const uint64_t lo = std::min(keys_[1], kZipfDomain - kQueryRangeWidth);
    requests.by_type[kRange].range_lo = lo;
    requests.by_type[kRange].range_hi = lo + kQueryRangeWidth - 1;
    uint64_t failed = 0;
    for (const ldpjs::QueryRequest& request : requests.by_type) {
      auto wire = readers_[0].Query(request);
      auto local = ldpjs::AnswerQuery(*view, request);
      if (!wire.ok() || !local.ok() || wire->view_sequence != view->sequence ||
          std::memcmp(&wire->value, &local->value, sizeof(double)) != 0) {
        ++failed;
        Complain("query_mix: a wire answer differs from AnswerQuery");
      }
    }
    return failed;
  }

 private:
  struct RequestSet {
    ldpjs::QueryRequest by_type[3];
  };

  RequestSet MakeRequests() const {
    RequestSet requests;
    requests.by_type[kFreq].kind = ldpjs::QueryKind::kFrequency;
    requests.by_type[kRange].kind = ldpjs::QueryKind::kRangeCount;
    requests.by_type[kJoin].kind = ldpjs::QueryKind::kJoinSize;
    requests.by_type[kJoin].probe_sketch = probe_;
    return requests;
  }

  /// The fixed mix: 70 % frequency, 20 % range count, 10 % join size, with
  /// keys and range starts drawn from the preloaded data.
  QueryType Draw(ldpjs::Xoshiro256& rng, RequestSet& requests) const {
    const uint64_t roll = rng.NextBounded(10);
    const uint64_t key = keys_[rng.NextBounded(keys_.size())];
    if (roll < 7) {
      requests.by_type[kFreq].key = key;
      return kFreq;
    }
    if (roll < 9) {
      const uint64_t lo = std::min(key, kZipfDomain - kQueryRangeWidth);
      requests.by_type[kRange].range_lo = lo;
      requests.by_type[kRange].range_hi = lo + kQueryRangeWidth - 1;
      return kRange;
    }
    return kJoin;
  }

  uint64_t seed_;
  std::vector<uint64_t> keys_;
  std::vector<std::vector<uint8_t>> frames_;
  std::vector<uint8_t> probe_;
  uint64_t rounds_[kQueryConnections] = {};
  uint64_t writes_ = 0;
  std::unique_ptr<FrameServer> server_;
  std::vector<FrameSender> readers_;
  std::optional<FrameSender> writer_;
};

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "plus_batch", "ingest_bulk", "ingest_small", "federated_live", "query_mix"};
  return names;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  if (name == "plus_batch") return std::make_unique<PlusBatch>(seed);
  if (name == "ingest_bulk") return std::make_unique<IngestBulk>(seed);
  if (name == "ingest_small") return std::make_unique<IngestSmall>(seed);
  if (name == "federated_live") return std::make_unique<FederatedLive>(seed);
  if (name == "query_mix") return std::make_unique<QueryMix>(seed);
  return nullptr;
}

}  // namespace ledger
