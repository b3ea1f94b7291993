// Micro-benchmarks (google-benchmark): hashing, Hadamard transforms, client
// perturbation and server absorption — the building blocks whose O(1)/
// O(m log m) costs the DESIGN.md claims rest on.
//
// After the registered benchmarks run, main() executes an ingestion-pipeline
// comparison on LDPJS_MICRO_REPORTS synthetic reports (default 1M): the
// pre-integer-lane scalar absorb path (double FMA per report, replicated
// below), the current scalar path, and the batched integer-lane path, plus
// end-to-end perturb+absorb with per-user vs. per-block RNG streams. The
// results — reports/sec, finalize ms, and estimate agreement — are written
// to BENCH_micro.json (override with LDPJS_BENCH_JSON) so CI can track the
// perf trajectory across PRs.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/hadamard.h"
#include "common/hash.h"
#include "common/random.h"
#include "common/serialize.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "core/fap.h"
#include "core/ldp_join_sketch.h"
#include "core/simulation.h"
#include "data/zipf.h"
#include "federation/central_node.h"
#include "federation/windowed_view.h"
#include "net/frame_sender.h"
#include "net/frame_server.h"
#include "obs/fleet_stats.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "seed_baseline.h"
#include "service/sharded_aggregator.h"

namespace ldpjs {
namespace {

void BM_BucketHash(benchmark::State& state) {
  BucketHash h(1, 1024);
  uint64_t x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(h(x++));
  }
}
BENCHMARK(BM_BucketHash);

void BM_SignHash(benchmark::State& state) {
  SignHash xi(2);
  uint64_t x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(xi(x++));
  }
}
BENCHMARK(BM_SignHash);

void BM_TabulationHash(benchmark::State& state) {
  TabulationHash h(3);
  uint64_t x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(h(x++));
  }
}
BENCHMARK(BM_TabulationHash);

void BM_HadamardEntry(benchmark::State& state) {
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(HadamardEntry(i, i + 1));
    ++i;
  }
}
BENCHMARK(BM_HadamardEntry);

void BM_Fwht(benchmark::State& state) {
  const size_t m = static_cast<size_t>(state.range(0));
  std::vector<double> data(m, 1.0);
  for (auto _ : state) {
    FastWalshHadamardTransform(std::span<double>(data));
    benchmark::DoNotOptimize(data.data());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Fwht)->RangeMultiplier(4)->Range(64, 16384)->Complexity();

void BM_ClientPerturbFast(benchmark::State& state) {
  SketchParams params;
  params.k = 18;
  params.m = static_cast<int>(state.range(0));
  LdpJoinSketchClient client(params, 4.0);
  Xoshiro256 rng(1);
  uint64_t v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(client.Perturb(v++, rng));
  }
}
BENCHMARK(BM_ClientPerturbFast)->Arg(1024)->Arg(16384);

void BM_ClientPerturbReference(benchmark::State& state) {
  SketchParams params;
  params.k = 18;
  params.m = static_cast<int>(state.range(0));
  LdpJoinSketchClient client(params, 4.0);
  Xoshiro256 rng(1);
  uint64_t v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(client.PerturbReference(v++, rng));
  }
}
BENCHMARK(BM_ClientPerturbReference)->Arg(1024)->Arg(16384);

void BM_ClientPerturbBatch(benchmark::State& state) {
  SketchParams params;
  params.k = 18;
  params.m = 1024;
  LdpJoinSketchClient client(params, 4.0);
  std::vector<uint64_t> values(kIngestBlockSize);
  for (size_t i = 0; i < values.size(); ++i) values[i] = i * 31;
  std::vector<LdpReport> reports(values.size());
  uint64_t block = 0;
  for (auto _ : state) {
    Xoshiro256 rng = MakeStreamRng(7, block++);
    client.PerturbBatch(values, reports, rng);
    benchmark::DoNotOptimize(reports.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(values.size()));
}
BENCHMARK(BM_ClientPerturbBatch);

void BM_FapPerturbNonTarget(benchmark::State& state) {
  SketchParams params;
  params.k = 18;
  params.m = 1024;
  FapClient client(params, 4.0, FapMode::kHigh, {});  // everything non-target
  Xoshiro256 rng(1);
  uint64_t v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(client.Perturb(v++, rng));
  }
}
BENCHMARK(BM_FapPerturbNonTarget);

void BM_ServerAbsorb(benchmark::State& state) {
  SketchParams params;
  params.k = 18;
  params.m = 1024;
  LdpJoinSketchServer server(params, 4.0);
  LdpReport report{1, 3, 17};
  for (auto _ : state) {
    server.Absorb(report);
  }
  benchmark::DoNotOptimize(server.total_reports());
}
BENCHMARK(BM_ServerAbsorb);

void BM_ServerAbsorbBatch(benchmark::State& state) {
  SketchParams params;
  params.k = 18;
  params.m = 1024;
  LdpJoinSketchServer server(params, 4.0);
  LdpJoinSketchClient client(params, 4.0);
  std::vector<uint64_t> values(kIngestBlockSize);
  for (size_t i = 0; i < values.size(); ++i) values[i] = i * 17;
  std::vector<LdpReport> reports(values.size());
  Xoshiro256 rng(3);
  client.PerturbBatch(values, reports, rng);
  for (auto _ : state) {
    server.AbsorbBatch(reports);
  }
  benchmark::DoNotOptimize(server.total_reports());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(reports.size()));
}
BENCHMARK(BM_ServerAbsorbBatch);

void BM_DecodeReportBatch(benchmark::State& state) {
  SketchParams params;
  params.k = 18;
  params.m = 1024;
  LdpJoinSketchClient client(params, 4.0);
  std::vector<uint64_t> values(kMaxWireBatchReports);
  for (size_t i = 0; i < values.size(); ++i) values[i] = i * 13;
  std::vector<LdpReport> reports(values.size());
  Xoshiro256 rng(9);
  client.PerturbBatch(values, reports, rng);
  BinaryWriter writer;
  EncodeReportBatch(reports, writer);
  std::vector<LdpReport> decoded(kMaxWireBatchReports);
  for (auto _ : state) {
    BinaryReader reader(writer.buffer());
    auto count = DecodeReportBatch(reader, decoded);
    if (!count.ok()) std::abort();
    benchmark::DoNotOptimize(decoded.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(reports.size()));
}
BENCHMARK(BM_DecodeReportBatch);

void BM_ServerFinalize(benchmark::State& state) {
  SketchParams params;
  params.k = 18;
  params.m = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    LdpJoinSketchServer server(params, 4.0);
    state.ResumeTiming();
    server.Finalize();
  }
}
BENCHMARK(BM_ServerFinalize)->Arg(1024)->Arg(4096);

void BM_ZipfGeneration(benchmark::State& state) {
  ZipfParams params;
  params.alpha = 1.1;
  params.domain = 100000;
  params.rows = static_cast<uint64_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(GenerateZipf(params));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ZipfGeneration)->Arg(100000);

// ---------------------------------------------------------------------------
// Ingestion-pipeline comparison (BENCH_micro.json).
// ---------------------------------------------------------------------------

using Clock = std::chrono::steady_clock;
using bench::SeedClient;
using bench::SeedServer;
using bench::SeedXoshiro;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Runs `pass` (one full sweep over the report set) until enough wall time
/// accumulates for a stable rate; returns reports/sec.
template <typename PassFn>
double MeasureReportsPerSec(size_t reports_per_pass, const PassFn& pass) {
  int passes = 0;
  const auto start = Clock::now();
  double elapsed = 0.0;
  do {
    pass();
    ++passes;
    elapsed = SecondsSince(start);
  } while (elapsed < 0.3 || passes < 3);
  return static_cast<double>(reports_per_pass) * passes / elapsed;
}

/// Paired measurement: alternates one pass of A with one pass of B inside
/// the same window, so both see the same machine conditions (CPU frequency,
/// noisy neighbours) and their ratio is meaningful even on a busy host.
/// Returns {reports/sec A, reports/sec B}.
template <typename PassA, typename PassB>
std::pair<double, double> MeasurePairedReportsPerSec(size_t reports_per_pass,
                                                     const PassA& pass_a,
                                                     const PassB& pass_b) {
  pass_a();  // warm both paths before timing
  pass_b();
  double seconds_a = 0.0, seconds_b = 0.0;
  int pairs = 0;
  do {
    const auto start_a = Clock::now();
    pass_a();
    seconds_a += SecondsSince(start_a);
    const auto start_b = Clock::now();
    pass_b();
    seconds_b += SecondsSince(start_b);
    ++pairs;
  } while (seconds_a + seconds_b < 0.6 || pairs < 3);
  return {static_cast<double>(reports_per_pass) * pairs / seconds_a,
          static_cast<double>(reports_per_pass) * pairs / seconds_b};
}

void RunIngestionComparison() {
  // LDPJS_MICRO_REPORTS=0 skips the comparison (it takes seconds and writes
  // BENCH_micro.json — unwanted when only a registered benchmark or a
  // listing was asked for).
  const size_t n = bench::EnvU64("LDPJS_MICRO_REPORTS", 1'000'000);
  if (n == 0) return;
  const char* json_path_env = std::getenv("LDPJS_BENCH_JSON");
  const std::string json_path =
      (json_path_env != nullptr && *json_path_env != '\0') ? json_path_env
                                                           : "BENCH_micro.json";
  SketchParams params;
  params.k = 18;
  params.m = 1024;
  params.seed = 5;
  const double epsilon = 4.0;
  LdpJoinSketchClient client(params, epsilon);

  std::printf("\n== ingestion pipeline comparison (%zu reports) ==\n", n);

  // Synthetic skewed values (so the join estimates carry signal) and their
  // perturbed reports, generated once.
  ZipfParams zipf;
  zipf.alpha = 1.2;
  zipf.domain = 10000;
  zipf.rows = n;
  zipf.seed = 1;
  const std::vector<uint64_t> values_a = GenerateZipf(zipf).values();
  zipf.seed = 2;
  const std::vector<uint64_t> values_b = GenerateZipf(zipf).values();
  std::vector<LdpReport> reports_a(n), reports_b(n);
  Xoshiro256 rng_a(11), rng_b(12);
  client.PerturbBatch(values_a, reports_a, rng_a);
  client.PerturbBatch(values_b, reports_b, rng_b);

  // --- absorb-only rates (seed vs batch paired; scalar informational). ----
  SeedServer seed_server(params, epsilon);
  LdpJoinSketchServer batch_server(params, epsilon);
  const auto [seed_rps, batch_rps] = MeasurePairedReportsPerSec(
      n,
      [&] {
        for (const LdpReport& r : reports_a) seed_server.Absorb(r);
      },
      [&] { batch_server.AbsorbBatch(reports_a); });

  LdpJoinSketchServer scalar_server(params, epsilon);
  const double scalar_rps = MeasureReportsPerSec(n, [&] {
    for (const LdpReport& r : reports_a) scalar_server.Absorb(r);
  });

  // --- end-to-end perturb+absorb: the seed pipeline (per-user engine
  // re-seed, three draws, out-of-line hashes, double-FMA absorb) vs. the
  // batched integer-lane pipeline (block streams + PerturbBatch +
  // AbsorbBatch). --------------------------------------------------------
  const size_t ingest_n = std::min<size_t>(n, 200'000);
  const std::span<const uint64_t> ingest_values(values_a.data(), ingest_n);
  SeedClient seed_client(params, epsilon);
  const auto [ingest_seed_rps, ingest_block_rps] = MeasurePairedReportsPerSec(
      ingest_n,
      [&] {
        SeedServer server(params, epsilon);
        for (size_t i = 0; i < ingest_n; ++i) {
          SeedXoshiro rng(DeriveStreamSeed(42, i));
          server.Absorb(seed_client.Perturb(ingest_values[i], rng));
        }
        benchmark::DoNotOptimize(server.total_reports());
      },
      [&] {
        LdpJoinSketchServer server(params, epsilon);
        std::vector<LdpReport> block(kIngestBlockSize);
        for (size_t first = 0; first < ingest_n; first += kIngestBlockSize) {
          const size_t count = std::min(kIngestBlockSize, ingest_n - first);
          Xoshiro256 rng = MakeStreamRng(42, first / kIngestBlockSize);
          std::span<LdpReport> out(block.data(), count);
          client.PerturbBatch(ingest_values.subspan(first, count), out, rng);
          server.AbsorbBatch(out);
        }
        benchmark::DoNotOptimize(server.total_reports());
      });

  // --- wire decode: per-report DecodeReport loop vs DecodeReportBatch. ----
  // Same 9-byte records on both sides; the batch side adds one envelope
  // (9 bytes) per 4096-report frame, so the byte streams are comparable.
  BinaryWriter frames_a_writer, frames_b_writer, naked_writer;
  for (size_t first = 0; first < n; first += kMaxWireBatchReports) {
    const size_t count = std::min(kMaxWireBatchReports, n - first);
    BinaryWriter frame;
    EncodeReportBatch({reports_a.data() + first, count}, frame);
    frames_a_writer.PutFrame(frame.buffer());
    BinaryWriter frame_b;
    EncodeReportBatch({reports_b.data() + first, count}, frame_b);
    frames_b_writer.PutFrame(frame_b.buffer());
    for (size_t i = first; i < first + count; ++i) {
      EncodeReport(reports_a[i], naked_writer);
    }
  }
  const std::vector<uint8_t> wire_frames_a = frames_a_writer.TakeBuffer();
  const std::vector<uint8_t> wire_frames_b = frames_b_writer.TakeBuffer();
  const std::vector<uint8_t> wire_naked = naked_writer.TakeBuffer();

  std::vector<LdpReport> decode_buffer(kMaxWireBatchReports);
  uint64_t decode_sink = 0;
  const auto [decode_scalar_rps, decode_batch_rps] = MeasurePairedReportsPerSec(
      n,
      [&] {
        BinaryReader reader(wire_naked);
        while (!reader.AtEnd()) {
          auto report = DecodeReport(reader);
          if (!report.ok()) std::abort();
          decode_sink += report->l;
        }
      },
      [&] {
        BinaryReader reader(wire_frames_a);
        while (!reader.AtEnd()) {
          auto frame = reader.GetFrame();
          if (!frame.ok()) std::abort();
          BinaryReader frame_reader(*frame);
          auto count = DecodeReportBatch(frame_reader, decode_buffer);
          if (!count.ok()) std::abort();
          decode_sink += *count;
        }
      });
  benchmark::DoNotOptimize(decode_sink);

  // --- service ingest: one shard vs SharedThreadPool-wide sharding, both
  // over the full wire path (frame scan + batch decode + lane absorb). -----
  const size_t service_shards = SharedThreadPool().num_threads();
  const auto [single_shard_rps, sharded_rps] = MeasurePairedReportsPerSec(
      n,
      [&] {
        ShardedAggregator aggregator(params, epsilon, 1);
        if (!aggregator.IngestStream(wire_frames_a).ok()) std::abort();
        benchmark::DoNotOptimize(aggregator.reports_ingested());
      },
      [&] {
        ShardedAggregator aggregator(params, epsilon, service_shards);
        if (!aggregator.IngestStream(wire_frames_a).ok()) std::abort();
        benchmark::DoNotOptimize(aggregator.reports_ingested());
      });

  // --- Lane-add loop-shape study, pinning that the shipped shapes are the
  // not-slower ones. Absorb: the shipped fused branch-per-report RMW loop
  // vs the split "SIMD" alternative (branchless vectorizable validate pass
  // + bare scatter, chunked L1-resident) — the fused loop must win or tie,
  // which is why AbsorbBatch keeps it. Merge: vector-indexed add (compiler
  // must emit an aliasing check) vs the restrict-qualified AddLanes shape
  // Merge now ships — AddLanes must not be slower. -------------------------
  const size_t lane_count = size_t{1} << 20;  // a wide-sketch merge
  const int m_log2 = std::countr_zero(static_cast<uint64_t>(params.m));
  const uint32_t k_bound = static_cast<uint32_t>(params.k);
  const uint32_t m_bound = static_cast<uint32_t>(params.m);
  std::vector<int64_t> lanes_prev(lane_count, 0), lanes_simd(lane_count, 0);
  const auto [absorb_fused_rps, absorb_split_rps] = MeasurePairedReportsPerSec(
      n,
      [&] {
        int64_t* lanes = lanes_prev.data();
        for (const LdpReport& r : reports_a) {
          if (r.j >= k_bound) std::abort();
          if (r.l >= m_bound) std::abort();
          if (r.y != 1 && r.y != -1) std::abort();
          lanes[(static_cast<size_t>(r.j) << m_log2) | r.l] += r.y;
        }
      },
      [&] {
        int64_t* __restrict lanes = lanes_simd.data();
        constexpr size_t kChunk = 1024;
        const std::span<const LdpReport> all(reports_a);
        for (size_t first = 0; first < all.size(); first += kChunk) {
          const std::span<const LdpReport> chunk =
              all.subspan(first, std::min(kChunk, all.size() - first));
          uint32_t bad = 0;
          for (const LdpReport& r : chunk) {
            bad |= static_cast<uint32_t>(r.j >= k_bound) |
                   static_cast<uint32_t>(r.l >= m_bound) |
                   (static_cast<uint32_t>(r.y != 1) &
                    static_cast<uint32_t>(r.y != -1));
          }
          if (bad != 0) std::abort();
          for (const LdpReport& r : chunk) {
            lanes[(static_cast<size_t>(r.j) << m_log2) | r.l] += r.y;
          }
        }
      });

  std::vector<int64_t> merge_dst(lane_count, 1), merge_src(lane_count, 2);
  const auto [merge_indexed_lps, merge_addlanes_lps] =
      MeasurePairedReportsPerSec(
      lane_count,
      [&] {
        for (size_t i = 0; i < lane_count; ++i) merge_dst[i] += merge_src[i];
      },
      [&] {
        int64_t* __restrict dst = merge_dst.data();
        const int64_t* __restrict src = merge_src.data();
        for (size_t i = 0; i < lane_count; ++i) dst[i] += src[i];
      });
  benchmark::DoNotOptimize(merge_dst.data());
  benchmark::DoNotOptimize(lanes_prev.data());
  benchmark::DoNotOptimize(lanes_simd.data());

  // --- TCP loopback ingest: the full network front end (LJSP session over
  // 127.0.0.1, per-shard queues, one ingest pump per shard). One pass
  // streams every frame and Finish() is the ingest barrier. Measured at
  // one shard (the old single-pump shape) and at pool width (multi-pump),
  // so net_ingest_multipump_speedup tracks how ingest scales past a core.
  std::vector<std::span<const uint8_t>> net_frames;
  {
    BinaryReader reader(wire_frames_a);
    while (!reader.AtEnd()) {
      auto frame = reader.GetFrame();
      if (!frame.ok()) std::abort();
      net_frames.push_back(*frame);
    }
  }
  auto measure_net_ingest = [&](size_t shards) {
    const auto start = Clock::now();
    int passes = 0;
    double elapsed = 0.0;
    do {
      FrameServerOptions options;
      options.num_shards = shards;
      FrameServer server(params, epsilon, options);
      if (!server.Start().ok()) std::abort();
      auto sender =
          FrameSender::Connect("127.0.0.1", server.port(), params, epsilon);
      if (!sender.ok()) std::abort();
      for (const auto& frame : net_frames) {
        if (!sender->SendEncodedBatch(frame).ok()) std::abort();
      }
      if (!sender->Finish().ok()) std::abort();
      server.Stop();
      if (server.metrics().reports_ingested != n) std::abort();
      ++passes;
      elapsed = SecondsSince(start);
    } while (elapsed < 0.5 || passes < 2);
    return static_cast<double>(n) * passes / elapsed;
  };
  const double net_single_pump_rps = measure_net_ingest(1);
  const double net_rps = measure_net_ingest(service_shards);

  // --- Federation snapshot shipping: raw-lane epoch snapshots (k·m int64
  // lanes each) pushed over a loopback LJSP session into a central
  // aggregator, with the (region, epoch) dedup and per-shard merge on the
  // receiving side — the regional→central uplink hot path. ----------------
  double snapshot_ship_bps = 0.0;
  {
    LdpJoinSketchServer epoch_sketch(params, epsilon);
    epoch_sketch.AbsorbBatch(
        std::span<const LdpReport>(reports_a.data(),
                                   std::min<size_t>(n, 100'000)));
    const std::vector<uint8_t> snapshot = epoch_sketch.Serialize();
    FrameServerOptions options;
    options.num_shards = service_shards;
    FrameServer central(params, epsilon, options);
    if (!central.Start().ok()) std::abort();
    auto sender =
        FrameSender::Connect("127.0.0.1", central.port(), params, epsilon);
    if (!sender.ok()) std::abort();
    uint64_t epoch = 0;
    const auto start = Clock::now();
    double elapsed = 0.0;
    do {
      auto applied = sender->PushEpochSnapshot(0, epoch++, snapshot);
      if (!applied.ok() || applied->code != EpochPushAckCode::kApplied) {
        std::abort();
      }
      elapsed = SecondsSince(start);
    } while (elapsed < 0.5 || epoch < 8);
    snapshot_ship_bps =
        static_cast<double>(epoch) * snapshot.size() / elapsed;
    if (!sender->Finish().ok()) std::abort();
    central.Stop();
    if (central.metrics().epochs_applied != epoch) std::abort();
  }

  // --- Fleet stats shipping overhead: the snapshot-ship loop with a
  // STATS_PUSH interleaved every 128 epochs on the session, paired against
  // a plain loop so both see identical machine conditions. Telemetry must
  // never tax the data path — the bench aborts past 1% throughput cost.
  // Also times the central-side exact histogram merge of two full registry
  // snapshots (the per-region cost of rendering the cluster view). --------
  double stats_push_overhead_pct = 0.0;
  double fleet_merge_ns = 0.0;
  {
    LdpJoinSketchServer epoch_sketch(params, epsilon);
    epoch_sketch.AbsorbBatch(
        std::span<const LdpReport>(reports_a.data(),
                                   std::min<size_t>(n, 100'000)));
    const std::vector<uint8_t> snapshot = epoch_sketch.Serialize();
    FrameServerOptions options;
    options.num_shards = service_shards;
    FrameServer central_with(params, epsilon, options);
    FrameServer central_plain(params, epsilon, options);
    if (!central_with.Start().ok() || !central_plain.Start().ok()) {
      std::abort();
    }
    auto with_sender = FrameSender::Connect(
        "127.0.0.1", central_with.port(), params, epsilon);
    auto plain_sender = FrameSender::Connect(
        "127.0.0.1", central_plain.port(), params, epsilon);
    if (!with_sender.ok() || !plain_sender.ok()) std::abort();
    uint64_t epoch_with = 0, epoch_plain = 0;
    auto push_one = [&](FrameSender& sender, uint64_t* epoch) {
      auto applied = sender.PushEpochSnapshot(0, (*epoch)++, snapshot);
      if (!applied.ok() || applied->code != EpochPushAckCode::kApplied) {
        std::abort();
      }
    };
    const auto [with_bps, plain_bps] = MeasurePairedReportsPerSec(
        snapshot.size(),
        [&] {
          push_one(*with_sender, &epoch_with);
          if (epoch_with % 128 == 0) {
            FleetSnapshot stats;
            stats.region_id = 0;
            stats.captured_unix_ns = NowNanos();
            stats.stats = MetricsRegistry::Default().TakeSnapshot();
            if (!with_sender->PushStats(stats).ok()) std::abort();
          }
        },
        [&] { push_one(*plain_sender, &epoch_plain); });
    stats_push_overhead_pct =
        std::max(0.0, (plain_bps - with_bps) / plain_bps * 100.0);
    if (!with_sender->Finish().ok() || !plain_sender->Finish().ok()) {
      std::abort();
    }
    central_with.Stop();
    central_plain.Stop();
    if (central_with.CurrentFleetView().regions.size() != 1) std::abort();
    if (stats_push_overhead_pct > 1.0) {
      std::fprintf(stderr,
                   "STATS_PUSH costs %.2f%% of ship throughput "
                   "(budget: 1%%)\n",
                   stats_push_overhead_pct);
      std::abort();
    }

    // Merge cost: one region's full registry snapshot folded into a
    // cluster accumulator, the unit of work FLEET_STATS pays per region.
    const MetricsRegistry::Snapshot one =
        MetricsRegistry::Default().TakeSnapshot();
    int merges = 0;
    const auto merge_start = Clock::now();
    double merge_elapsed = 0.0;
    do {
      MetricsRegistry::Snapshot accumulator = one;
      MergeSnapshotInto(accumulator, one);
      benchmark::DoNotOptimize(accumulator);
      ++merges;
      merge_elapsed = SecondsSince(merge_start);
    } while (merge_elapsed < 0.2 || merges < 100);
    fleet_merge_ns = merge_elapsed * 1e9 / merges;
  }

  // --- Central windowed estimates: the incrementally cached WindowedView
  // vs a full re-merge of the lifetime view, answering the same kind of
  // query (finalized view + join estimate against a fixed sketch) on a
  // central that has applied several epoch pushes. The cached path pays one
  // lane copy + the estimate; the re-merge path pays a PublishView (shard
  // merges + the k Hadamard transforms of a fresh finalize) + the same copy
  // every query. ---------------------------------------------------------
  double windowed_estimate_qps = 0.0;
  double view_cache_speedup = 0.0;
  {
    const size_t epoch_reports = std::min<size_t>(n, 100'000);
    LdpJoinSketchServer epoch_sketch(params, epsilon);
    epoch_sketch.AbsorbBatch(
        std::span<const LdpReport>(reports_a.data(), epoch_reports));
    const std::vector<uint8_t> snapshot = epoch_sketch.Serialize();

    LdpJoinSketchServer estimate_against(params, epsilon);
    estimate_against.AbsorbBatch(
        std::span<const LdpReport>(reports_b.data(), epoch_reports));
    estimate_against.Finalize();

    CentralNodeOptions central_options;
    central_options.server.num_shards = service_shards;
    central_options.finalize_after = 1;
    central_options.window_epochs = 4;
    CentralNode central(params, epsilon, central_options);
    if (!central.Start().ok()) std::abort();
    auto sender =
        FrameSender::Connect("127.0.0.1", central.port(), params, epsilon);
    if (!sender.ok()) std::abort();
    for (uint64_t epoch = 0; epoch < 6; ++epoch) {  // 2 epochs slide out
      auto applied = sender->PushEpochSnapshot(0, epoch, snapshot);
      if (!applied.ok()) std::abort();
    }
    const auto [cached_qps, remerge_qps] = MeasurePairedReportsPerSec(
        1,
        [&] {
          const LdpJoinSketchServer view =
              central.WindowedPublishedView()->sketch;
          benchmark::DoNotOptimize(view.JoinEstimate(estimate_against));
        },
        [&] {
          central.server_mutable().PublishView();
          const LdpJoinSketchServer view =
              central.server().CurrentPublishedView()->sketch;
          benchmark::DoNotOptimize(view.JoinEstimate(estimate_against));
        });
    windowed_estimate_qps = cached_qps;
    view_cache_speedup = cached_qps / remerge_qps;
    // Sanity: the window really slid — 4 of 6 epochs in the view.
    if (central.window()->epochs_expired() != 2) std::abort();
    if (central.WindowedPublishedView()->reports() != 4 * epoch_reports) {
      std::abort();
    }
    if (!sender->Finish().ok()) std::abort();
    central.Stop();
  }

  // --- RCU published views: the steady-state read path must be one atomic
  // shared_ptr load — pointer-stable while the view is clean, cost
  // independent of sketch size, and far cheaper than copying the published
  // sketch out. The old copy-on-read cache copied the whole k·m sketch
  // under the writer mutex on EVERY call, so its cost scaled linearly with
  // m; these aborts keep that regression out. ----------------------------
  double published_reads_per_sec = 0.0;
  double published_vs_copy_speedup = 0.0;
  {
    auto loaded_window = [&](int m) {
      SketchParams view_params = params;
      view_params.m = m;
      auto window =
          std::make_unique<WindowedView>(view_params, epsilon, 4, 1);
      const size_t epoch_reports = std::min<size_t>(n, 50'000);
      LdpJoinSketchClient view_client(view_params, epsilon);
      std::vector<LdpReport> epoch_batch(epoch_reports);
      Xoshiro256 rng = MakeStreamRng(77, static_cast<uint64_t>(m));
      view_client.PerturbBatch(
          std::span<const uint64_t>(values_a.data(), epoch_reports),
          epoch_batch, rng);
      LdpJoinSketchServer epoch(view_params, epsilon);
      epoch.AbsorbBatch(epoch_batch);
      window->OnEpochApplied(0, 0, &epoch);
      return window;
    };
    auto read_rate = [&](const WindowedView& window) {
      size_t reads = 0;
      const auto start = Clock::now();
      double elapsed = 0.0;
      do {
        for (int i = 0; i < 4096; ++i) {
          benchmark::DoNotOptimize(window.Published().get());
        }
        reads += 4096;
        elapsed = SecondsSince(start);
      } while (elapsed < 0.2);
      return static_cast<double>(reads) / elapsed;
    };
    const auto narrow = loaded_window(1024);
    const auto wide = loaded_window(16384);
    // Clean view ⇒ consecutive reads return the SAME snapshot object —
    // reference equality, not a fresh copy per call.
    if (narrow->Published().get() != narrow->Published().get()) std::abort();
    if (wide->Published().get() != wide->Published().get()) std::abort();
    const double narrow_rate = read_rate(*narrow);
    const double wide_rate = read_rate(*wide);
    published_reads_per_sec = wide_rate;
    // Size independence: a 16x wider sketch may not slow acquisition by
    // even 8x (the copy-on-read path scaled ~16x here; an atomic load is
    // flat, so 8x is pure noise headroom).
    if (wide_rate * 8.0 < narrow_rate) std::abort();
    // And the zero-copy path must beat copying the sketch out handily.
    size_t copies = 0;
    const auto copy_start = Clock::now();
    double copy_elapsed = 0.0;
    do {
      const LdpJoinSketchServer view = wide->Published()->sketch;
      benchmark::DoNotOptimize(view.total_reports());
      ++copies;
      copy_elapsed = SecondsSince(copy_start);
    } while (copy_elapsed < 0.2);
    const double copy_rate = static_cast<double>(copies) / copy_elapsed;
    published_vs_copy_speedup = wide_rate / copy_rate;
    if (published_vs_copy_speedup < 4.0) std::abort();
  }

  // --- LJSP QUERY serving: frequency queries answered from the
  // server's published view while a DATA session streams sustained ingest
  // the whole time — the concurrent-read-under-write shape the RCU
  // publication exists for. Measured at one client thread (per-query
  // round-trip latency bound) and at several, whose aggregate shows the
  // read side scaling past a single connection. ---------------------------
  double query_qps_1thread = 0.0;
  double query_qps_nthreads = 0.0;
  double query_qps_scaling = 0.0;
  const size_t query_threads =
      std::clamp<size_t>(service_shards, 2, 8);
  {
    FrameServerOptions options;
    options.num_shards = service_shards;
    FrameServer server(params, epsilon, options);
    if (!server.Start().ok()) std::abort();

    std::atomic<bool> stop_ingest{false};
    std::thread ingest([&] {
      auto sender =
          FrameSender::Connect("127.0.0.1", server.port(), params, epsilon);
      if (!sender.ok()) std::abort();
      size_t i = 0;
      while (!stop_ingest.load(std::memory_order_relaxed)) {
        const auto& frame = net_frames[i++ % net_frames.size()];
        if (!sender->SendEncodedBatch(frame).ok()) std::abort();
      }
      if (!sender->Finish().ok()) std::abort();
    });

    auto measure_qps = [&](size_t threads) {
      std::atomic<uint64_t> queries{0};
      std::atomic<bool> done{false};
      const auto start = Clock::now();
      std::vector<std::thread> workers;
      for (size_t t = 0; t < threads; ++t) {
        workers.emplace_back([&, t] {
          auto sender = FrameSender::Connect("127.0.0.1", server.port(),
                                             params, epsilon);
          if (!sender.ok()) std::abort();
          QueryRequest request;
          request.kind = QueryKind::kFrequency;
          request.key = 1 + t;
          uint64_t local = 0;
          while (!done.load(std::memory_order_relaxed)) {
            auto response = sender->Query(request);
            if (!response.ok()) std::abort();
            benchmark::DoNotOptimize(response->value);
            ++local;
          }
          queries.fetch_add(local, std::memory_order_relaxed);
          if (!sender->Finish().ok()) std::abort();
        });
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(400));
      done.store(true, std::memory_order_relaxed);
      for (auto& worker : workers) worker.join();
      return static_cast<double>(queries.load()) / SecondsSince(start);
    };
    query_qps_1thread = measure_qps(1);
    query_qps_nthreads = measure_qps(query_threads);
    query_qps_scaling = query_qps_nthreads / query_qps_1thread;

    stop_ingest.store(true, std::memory_order_relaxed);
    ingest.join();
    server.Stop();
    const NetMetrics served = server.metrics();
    if (served.query_frames == 0) std::abort();
    if (served.views_published == 0) std::abort();
  }

  // --- Observability cost + the ingest-to-queryable SLO. Two pins:
  //   1. Recording into a hot-path histogram with metrics ON, versus the
  //      single-branch disabled path, must cost less than 2% of one wire
  //      frame's absorb budget (kMaxWireBatchReports reports at the
  //      measured batch absorb rate) — instrumentation stays in the noise.
  //   2. A traced loopback round (one TRACED frame + the PING barrier that
  //      forces the publish closing the SLO clock) must land a finite
  //      origin-to-queryable latency in the registry every time. ----------
  double metrics_record_overhead_ns = 0.0;
  double ingest_to_queryable_p50_ms = 0.0;
  double ingest_to_queryable_p99_ms = 0.0;
  double query_latency_p99_us = 0.0;
  {
    ObsHistogram overhead_hist;
    auto per_record_ns = [&](bool enabled) {
      SetObsEnabled(enabled);
      constexpr uint64_t kRecords = 2'000'000;
      const auto start = Clock::now();
      for (uint64_t i = 0; i < kRecords; ++i) {
        overhead_hist.Record(i & 0xFFFF);
      }
      return SecondsSince(start) * 1e9 / static_cast<double>(kRecords);
    };
    const double disabled_ns = per_record_ns(false);
    const double enabled_ns = per_record_ns(true);
    SetObsEnabled(true);
    metrics_record_overhead_ns = std::max(0.0, enabled_ns - disabled_ns);
    const double frame_budget_ns =
        1e9 / batch_rps * static_cast<double>(kMaxWireBatchReports);
    if (metrics_record_overhead_ns >= 0.02 * frame_budget_ns) std::abort();

    const HistogramSnapshot i2q_before =
        MetricsRegistry::Default().HistogramByName("ingest_to_queryable_ns");
    const HistogramSnapshot query_before =
        MetricsRegistry::Default().HistogramByName("query_latency_ns");
    constexpr int kTracedRounds = 20;
    {
      FrameServerOptions options;
      options.num_shards = 2;
      FrameServer server(params, epsilon, options);
      if (!server.Start().ok()) std::abort();
      auto sender =
          FrameSender::Connect("127.0.0.1", server.port(), params, epsilon);
      if (!sender.ok()) std::abort();
      QueryRequest request;
      request.kind = QueryKind::kFrequency;
      request.key = 7;
      for (int round = 0; round < kTracedRounds; ++round) {
        TraceContext trace;
        trace.trace_id = 0xB0B00000ull + static_cast<uint64_t>(round) + 1;
        trace.origin_ns = NowNanos();
        const auto& frame = net_frames[round % net_frames.size()];
        if (!sender->SendTracedBatch(frame, trace).ok()) std::abort();
        if (!sender->Ping().ok()) std::abort();
        auto response = sender->Query(request);
        if (!response.ok()) std::abort();
        benchmark::DoNotOptimize(response->value);
      }
      if (!sender->Finish().ok()) std::abort();
      server.Stop();
    }
    auto delta = [](const HistogramSnapshot& after,
                    const HistogramSnapshot& before) {
      HistogramSnapshot d;
      for (size_t i = 0; i < HistogramSnapshot::kBuckets; ++i) {
        d.buckets[i] = after.buckets[i] - before.buckets[i];
        d.count += d.buckets[i];
      }
      d.sum = after.sum - before.sum;
      return d;
    };
    const HistogramSnapshot i2q = delta(
        MetricsRegistry::Default().HistogramByName("ingest_to_queryable_ns"),
        i2q_before);
    const HistogramSnapshot query_lat = delta(
        MetricsRegistry::Default().HistogramByName("query_latency_ns"),
        query_before);
    // Every traced round must close the origin→publish loop, and every
    // query must land in the latency series.
    if (i2q.count < kTracedRounds) std::abort();
    if (query_lat.count < kTracedRounds) std::abort();
    ingest_to_queryable_p50_ms =
        static_cast<double>(i2q.Percentile(0.50)) / 1e6;
    ingest_to_queryable_p99_ms =
        static_cast<double>(i2q.Percentile(0.99)) / 1e6;
    query_latency_p99_us =
        static_cast<double>(query_lat.Percentile(0.99)) / 1e3;
    if (!std::isfinite(ingest_to_queryable_p99_ms) ||
        ingest_to_queryable_p99_ms <= 0.0) {
      std::abort();
    }
  }

  // --- finalize + estimate agreement across the three paths. --------------
  SeedServer seed_a(params, epsilon), seed_b(params, epsilon);
  for (const LdpReport& r : reports_a) seed_a.Absorb(r);
  for (const LdpReport& r : reports_b) seed_b.Absorb(r);
  seed_a.Finalize();
  seed_b.Finalize();
  const double estimate_seed = seed_a.JoinEstimate(seed_b);

  LdpJoinSketchServer scalar_a(params, epsilon), scalar_b(params, epsilon);
  for (const LdpReport& r : reports_a) scalar_a.Absorb(r);
  for (const LdpReport& r : reports_b) scalar_b.Absorb(r);
  scalar_a.Finalize();
  scalar_b.Finalize();
  const double estimate_scalar = scalar_a.JoinEstimate(scalar_b);

  LdpJoinSketchServer batch_a(params, epsilon), batch_b(params, epsilon);
  batch_a.AbsorbBatch(reports_a);
  batch_b.AbsorbBatch(reports_b);
  const auto finalize_start = Clock::now();
  batch_a.Finalize();
  const double finalize_ms = SecondsSince(finalize_start) * 1e3;
  batch_b.Finalize();
  const double estimate_batch = batch_a.JoinEstimate(batch_b);

  // Sharded service ingest of the same wire streams must reproduce the
  // batch estimate exactly (raw-lane exactness invariant).
  ShardedAggregator service_a(params, epsilon, service_shards);
  ShardedAggregator service_b(params, epsilon, service_shards);
  if (!service_a.IngestStream(wire_frames_a).ok()) std::abort();
  if (!service_b.IngestStream(wire_frames_b).ok()) std::abort();
  const LdpJoinSketchServer sharded_a = service_a.Finalize();
  const LdpJoinSketchServer sharded_b = service_b.Finalize();
  const double estimate_sharded = sharded_a.JoinEstimate(sharded_b);

  const double batch_vs_seed = batch_rps / seed_rps;
  const double estimate_rel_gap =
      std::abs(estimate_batch - estimate_seed) /
      std::max(1.0, std::abs(estimate_seed));

  std::printf("seed scalar absorb  : %.3e reports/sec\n", seed_rps);
  std::printf("scalar absorb       : %.3e reports/sec\n", scalar_rps);
  std::printf("batch absorb        : %.3e reports/sec (%.2fx vs seed)\n",
              batch_rps, batch_vs_seed);
  std::printf("seed ingest         : %.3e reports/sec\n", ingest_seed_rps);
  std::printf("batched ingest      : %.3e reports/sec (%.2fx)\n",
              ingest_block_rps, ingest_block_rps / ingest_seed_rps);
  std::printf("wire decode scalar  : %.3e reports/sec\n", decode_scalar_rps);
  std::printf("wire decode batch   : %.3e reports/sec (%.2fx)\n",
              decode_batch_rps, decode_batch_rps / decode_scalar_rps);
  std::printf("service 1 shard     : %.3e reports/sec\n", single_shard_rps);
  std::printf("service %zu shards    : %.3e reports/sec (%.2fx)\n",
              service_shards, sharded_rps, sharded_rps / single_shard_rps);
  std::printf("absorb fused/split  : %.3e / %.3e reports/sec (fused %.2fx)\n",
              absorb_fused_rps, absorb_split_rps,
              absorb_fused_rps / absorb_split_rps);
  std::printf("merge indexed/simd  : %.3e / %.3e lanes/sec (simd %.2fx)\n",
              merge_indexed_lps, merge_addlanes_lps,
              merge_addlanes_lps / merge_indexed_lps);
  std::printf("net ingest 1 pump   : %.3e reports/sec\n",
              net_single_pump_rps);
  std::printf("net ingest %zu pumps  : %.3e reports/sec (%.2fx)\n",
              service_shards, net_rps, net_rps / net_single_pump_rps);
  std::printf("snapshot shipping   : %.3e bytes/sec\n", snapshot_ship_bps);
  std::printf("stats push overhead : %.3f%% of ship throughput (budget 1%%)\n",
              stats_push_overhead_pct);
  std::printf("fleet merge         : %.0f ns per region snapshot\n",
              fleet_merge_ns);
  std::printf("windowed estimates  : %.3e queries/sec (cached %.2fx the "
              "re-merge view)\n",
              windowed_estimate_qps, view_cache_speedup);
  std::printf("published view reads: %.3e /sec (%.1fx the copying "
              "wrapper)\n",
              published_reads_per_sec, published_vs_copy_speedup);
  std::printf("query qps 1 thread  : %.3e\n", query_qps_1thread);
  std::printf("query qps %zu threads : %.3e (%.2fx)\n", query_threads,
              query_qps_nthreads, query_qps_scaling);
  std::printf("metrics record cost : %.2f ns/record (enabled minus "
              "disabled)\n",
              metrics_record_overhead_ns);
  std::printf("ingest→queryable    : p50 %.3f ms, p99 %.3f ms (traced "
              "loopback)\n",
              ingest_to_queryable_p50_ms, ingest_to_queryable_p99_ms);
  std::printf("query latency p99   : %.1f us\n", query_latency_p99_us);
  std::printf("finalize            : %.3f ms (k=%d, m=%d)\n", finalize_ms,
              params.k, params.m);
  std::printf("estimates           : seed=%.6e scalar=%.6e batch=%.6e\n",
              estimate_seed, estimate_scalar, estimate_batch);
  std::printf("batch == scalar     : %s; |batch-seed|/seed = %.2e\n",
              estimate_batch == estimate_scalar ? "yes" : "NO",
              estimate_rel_gap);
  std::printf("sharded == batch    : %s (sharded=%.6e)\n",
              estimate_sharded == estimate_batch ? "yes" : "NO",
              estimate_sharded);

  const std::vector<std::pair<std::string, double>> metrics = {
          {"reports", static_cast<double>(n)},
          {"seed_scalar_absorb_rps", seed_rps},
          {"scalar_absorb_rps", scalar_rps},
          {"batch_absorb_rps", batch_rps},
          {"batch_vs_seed_speedup", batch_vs_seed},
          {"batch_vs_scalar_speedup", batch_rps / scalar_rps},
          {"ingest_seed_rps", ingest_seed_rps},
          {"ingest_batched_rps", ingest_block_rps},
          {"ingest_batched_vs_seed_speedup",
           ingest_block_rps / ingest_seed_rps},
          {"wire_decode_scalar_rps", decode_scalar_rps},
          {"wire_decode_batch_rps", decode_batch_rps},
          {"wire_decode_speedup", decode_batch_rps / decode_scalar_rps},
          {"service_shards", static_cast<double>(service_shards)},
          {"service_single_shard_rps", single_shard_rps},
          {"service_sharded_rps", sharded_rps},
          {"service_sharded_vs_single_speedup",
           sharded_rps / single_shard_rps},
          {"estimate_sharded", estimate_sharded},
          {"estimate_sharded_equals_batch",
           estimate_sharded == estimate_batch ? 1.0 : 0.0},
          {"absorb_fused_rps", absorb_fused_rps},
          {"absorb_split_rps", absorb_split_rps},
          {"absorb_fused_vs_split_speedup",
           absorb_fused_rps / absorb_split_rps},
          {"merge_vector_indexed_lanes_per_sec", merge_indexed_lps},
          {"merge_addlanes_lanes_per_sec", merge_addlanes_lps},
          {"merge_addlanes_vs_indexed_speedup",
           merge_addlanes_lps / merge_indexed_lps},
          {"net_ingest_reports_per_sec", net_rps},
          {"net_ingest_single_pump_rps", net_single_pump_rps},
          {"net_ingest_multipump_speedup", net_rps / net_single_pump_rps},
          {"federation_snapshot_ship_bytes_per_sec", snapshot_ship_bps},
          {"stats_push_overhead_pct", stats_push_overhead_pct},
          {"fleet_merge_ns", fleet_merge_ns},
          {"central_windowed_estimate_per_sec", windowed_estimate_qps},
          {"central_view_cache_speedup", view_cache_speedup},
          {"rcu_published_reads_per_sec", published_reads_per_sec},
          {"rcu_published_vs_copy_speedup", published_vs_copy_speedup},
          {"query_qps_1thread", query_qps_1thread},
          {"query_qps_nthreads", query_qps_nthreads},
          {"query_qps_scaling", query_qps_scaling},
          {"query_threads", static_cast<double>(query_threads)},
          {"metrics_record_overhead_ns", metrics_record_overhead_ns},
          {"ingest_to_queryable_p50_ms", ingest_to_queryable_p50_ms},
          {"ingest_to_queryable_p99_ms", ingest_to_queryable_p99_ms},
          {"query_latency_p99_us", query_latency_p99_us},
          {"finalize_ms", finalize_ms},
          {"estimate_seed", estimate_seed},
          {"estimate_scalar", estimate_scalar},
          {"estimate_batch", estimate_batch},
          {"estimate_batch_equals_scalar",
           estimate_batch == estimate_scalar ? 1.0 : 0.0},
          {"estimate_batch_vs_seed_rel_gap", estimate_rel_gap},
  };

  // Bench hygiene: the keys earlier PRs established must stay present, so
  // the perf trajectory in CI artifacts remains comparable across PRs. A
  // rename or accidental drop fails the bench loudly instead of silently
  // truncating history.
  static constexpr const char* kRequiredKeys[] = {
      "reports", "seed_scalar_absorb_rps", "scalar_absorb_rps",
      "batch_absorb_rps", "batch_vs_seed_speedup", "batch_vs_scalar_speedup",
      "ingest_seed_rps", "ingest_batched_rps",
      "ingest_batched_vs_seed_speedup", "wire_decode_scalar_rps",
      "wire_decode_batch_rps", "wire_decode_speedup", "service_shards",
      "service_single_shard_rps", "service_sharded_rps",
      "service_sharded_vs_single_speedup", "estimate_sharded",
      "estimate_sharded_equals_batch", "absorb_fused_rps", "absorb_split_rps",
      "absorb_fused_vs_split_speedup", "merge_vector_indexed_lanes_per_sec",
      "merge_addlanes_lanes_per_sec", "merge_addlanes_vs_indexed_speedup",
      "net_ingest_reports_per_sec", "net_ingest_multipump_speedup",
      "federation_snapshot_ship_bytes_per_sec",
      "stats_push_overhead_pct", "fleet_merge_ns",
      "central_windowed_estimate_per_sec", "central_view_cache_speedup",
      "rcu_published_reads_per_sec", "rcu_published_vs_copy_speedup",
      "query_qps_1thread", "query_qps_scaling",
      "metrics_record_overhead_ns", "ingest_to_queryable_p50_ms",
      "ingest_to_queryable_p99_ms", "query_latency_p99_us",
      "finalize_ms",
      "estimate_seed", "estimate_scalar", "estimate_batch",
      "estimate_batch_equals_scalar", "estimate_batch_vs_seed_rel_gap",
  };
  for (const char* key : kRequiredKeys) {
    bool present = false;
    for (const auto& [name, value] : metrics) present |= name == key;
    if (!present) {
      std::fprintf(stderr, "BENCH_micro.json lost required key %s\n", key);
      std::abort();
    }
  }

  bench::WriteBenchJson(json_path, metrics);
  std::printf("wrote %s\n", json_path.c_str());
}

}  // namespace
}  // namespace ldpjs

int main(int argc, char** argv) {
  bool listing_only = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]).starts_with("--benchmark_list_tests")) {
      listing_only = true;
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!listing_only) ldpjs::RunIngestionComparison();
  return 0;
}
