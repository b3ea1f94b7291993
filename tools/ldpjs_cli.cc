// Command-line driver. Two faces:
//
// Experiment mode (no subcommand, the original interface): run any join-
// size method on any of the simulated Table-II workloads.
//
//   ldpjs_cli --method ldpjoinsketch+ --dataset movielens --rows 1000000
//             --epsilon 2 --k 18 --m 1024 --trials 3 [--threads 4]
//
// Network mode (subcommands) — the distributed deployment, on real sockets:
//
//   ldpjs_cli serve --port 7542 --shards 4 --seed 1 --out sketch_a.bin
//   ldpjs_cli send  --port 7542 --table a --rows 200000 --seed 1 --finalize 1
//   ldpjs_cli estimate --sketch-a a.bin --sketch-b b.bin [--check 1 ...]
//
// `serve` aggregates one table's reports until a client sends FINALIZE,
// then drains, finalizes once, writes the sketch's raw lanes to --out, and
// dumps the per-connection/per-shard metrics; `estimate` joins two such
// files on their lanes. `send` replays the
// exact per-block perturbation the in-process simulation would run (same
// counter-based RNG streams, same seed derivations), so `estimate --check`
// can assert the network path reproduced the in-process estimate bit for
// bit.
//
// Federated mode (subcommands) — the two-tier deployment:
//
//   ldpjs_cli federate-central --port 7650 --finalize-after 2 --out a.bin
//   ldpjs_cli federate-region --port 7651 --central-port 7650 --region 0
//             --epoch-ms 200
//   ldpjs_cli send --port 7651 --table a --senders 2 --sender-index 0
//             --finalize 1
//
// Regions ingest client traffic and ship raw-lane epoch snapshots upstream
// on the --epoch-ms cadence; a client FINALIZE makes the region flush its
// final epoch and forward the FINALIZE to the central, which ends
// collection after --finalize-after of them. `send --senders N
// --sender-index i` streams only every Nth client block (same RNG streams),
// so N senders across regions partition exactly one table.
//
// All serving subcommands dump their node's stats JSON on SIGUSR1 and at
// exit (stdout, plus --metrics-json FILE when set) — frame/corrupt/queue-
// high-water/per-region counters, the node's registry histograms, and the
// health/fleet/events sections — and can append the same JSON periodically
// with --stats-jsonl FILE --stats-period N. `ldpjs_cli stats --port P
// [--watch N]` scrapes the identical string from a live server over LJSP
// (see RunStats);
// `stats --cluster` and `top` scrape the central's fleet view — per-region
// STATS_PUSH snapshots, exactly-merged cluster histograms, health states
// (see RunTop).
//
// Chaos mode:
//
//   ldpjs_cli chaos --sweep 4 --fault-rate 0.2 [--spool-dir /tmp/spool]
//
// sweeps seeded fault schedules (drops, delays, torn writes, corrupt
// headers, disconnects) over a loopback federated run and verifies the
// chaos invariants live: bit-identity against a direct absorb, and
// bit-exact replay of every schedule from its seed.
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/backoff.h"

#include "common/stats.h"
#include "core/join_methods.h"
#include "core/multiway.h"
#include "core/simulation.h"
#include "data/datasets.h"
#include "data/join.h"
#include "federation/central_node.h"
#include "federation/chaos_harness.h"
#include "federation/regional_node.h"
#include "net/frame_sender.h"
#include "net/frame_server.h"
#include "obs/fleet_stats.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "service/published_view.h"
#include "service/query_engine.h"
#include "tools/flags.h"

namespace {

using namespace ldpjs;

JoinMethod ParseMethod(const std::string& name) {
  if (name == "fagms") return JoinMethod::kFagms;
  if (name == "krr") return JoinMethod::kKrr;
  if (name == "hcms") return JoinMethod::kAppleHcms;
  if (name == "flh") return JoinMethod::kFlh;
  if (name == "ldpjoinsketch") return JoinMethod::kLdpJoinSketch;
  if (name == "ldpjoinsketch+") return JoinMethod::kLdpJoinSketchPlus;
  std::fprintf(stderr,
               "unknown method '%s' (fagms|krr|hcms|flh|ldpjoinsketch|"
               "ldpjoinsketch+)\n",
               name.c_str());
  std::exit(2);
}

DatasetId ParseDataset(const std::string& name) {
  if (name == "zipf") return DatasetId::kZipf;
  if (name == "gaussian") return DatasetId::kGaussian;
  if (name == "movielens") return DatasetId::kMovieLens;
  if (name == "tpcds") return DatasetId::kTpcds;
  if (name == "twitter") return DatasetId::kTwitter;
  if (name == "facebook") return DatasetId::kFacebook;
  std::fprintf(stderr,
               "unknown dataset '%s' "
               "(zipf|gaussian|movielens|tpcds|twitter|facebook)\n",
               name.c_str());
  std::exit(2);
}

/// Workload + sketch-seed derivations shared by every mode, so the network
/// subcommands regenerate exactly what the in-process experiment runs.
void DefineWorkloadFlags(tools::Flags& flags) {
  flags.Define("dataset", "zipf", "workload (Table II)");
  flags.Define("alpha", "1.1", "zipf skew (zipf dataset only)");
  flags.Define("rows", "1000000", "rows per table");
  flags.Define("epsilon", "4.0", "LDP budget");
  flags.Define("k", "18", "sketch rows");
  flags.Define("m", "1024", "sketch columns (power of two)");
  flags.Define("seed", "1", "workload + run seed");
}

JoinWorkload WorkloadFromFlags(const tools::Flags& flags) {
  const DatasetId dataset = ParseDataset(flags.GetString("dataset"));
  const uint64_t rows = static_cast<uint64_t>(flags.GetIntIn("rows", 1));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed"));
  return (dataset == DatasetId::kZipf)
             ? MakeZipfWorkload(flags.GetDoubleIn("alpha", 0.0),
                                GetDatasetSpec(dataset).domain, rows, seed)
             : MakeWorkload(dataset, rows, seed);
}

SketchParams SketchFromFlags(const tools::Flags& flags) {
  SketchParams params;
  params.k = static_cast<int>(flags.GetIntIn("k", 1, kMaxSketchRows));
  params.m =
      static_cast<int>(flags.GetPowerOfTwoIn("m", 2, kMaxSketchColumns));
  params.seed =
      Mix64(static_cast<uint64_t>(flags.GetInt("seed")) ^ 0x5EEDULL);
  return params;
}

double EpsilonFromFlags(const tools::Flags& flags) {
  return flags.GetDoubleIn("epsilon", 0.0, kMaxEpsilon);
}

bool WriteFile(const std::string& path, std::span<const uint8_t> bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok = bytes.empty() ||
                  std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  std::fclose(f);
  return ok;
}

bool ReadFile(const std::string& path, std::vector<uint8_t>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  bytes.resize(size < 0 ? 0 : static_cast<size_t>(size));
  const bool ok =
      bytes.empty() || std::fread(bytes.data(), 1, bytes.size(), f) ==
                           bytes.size();
  std::fclose(f);
  return ok;
}

// ---------------------------------------------------------------------------
// Stats JSON for ops: every serving subcommand dumps its node's StatsJson()
// on SIGUSR1 and at exit, to stdout and optionally to --metrics-json FILE.
// ---------------------------------------------------------------------------

volatile std::sig_atomic_t g_metrics_dump_requested = 0;

void HandleSigusr1(int) { g_metrics_dump_requested = 1; }

class MetricsWatcher {
 public:
  MetricsWatcher(const FrameServer& server, std::string json_path,
                 std::string jsonl_path = "", int jsonl_period_seconds = 0)
      : server_(server),
        json_path_(std::move(json_path)),
        jsonl_path_(std::move(jsonl_path)),
        jsonl_period_seconds_(jsonl_period_seconds) {
    std::signal(SIGUSR1, HandleSigusr1);
    poller_ = std::thread([this] {
      // Signal handlers can only set a flag; this thread turns the flag
      // into a dump without restricting what the handler may touch.
      auto last_jsonl = std::chrono::steady_clock::now();
      while (!done_) {
        if (g_metrics_dump_requested != 0) {
          g_metrics_dump_requested = 0;
          Dump();
        }
        if (!jsonl_path_.empty() && jsonl_period_seconds_ > 0) {
          const auto now = std::chrono::steady_clock::now();
          if (now - last_jsonl >=
              std::chrono::seconds(jsonl_period_seconds_)) {
            last_jsonl = now;
            AppendJsonl();
          }
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
      }
    });
  }

  ~MetricsWatcher() {
    done_ = true;
    poller_.join();
    std::signal(SIGUSR1, SIG_DFL);
    Dump();  // the at-exit snapshot
    if (!jsonl_path_.empty()) AppendJsonl();  // the at-exit sample
  }

  void Dump() {
    // The string a STATS scrape returns: the SIGUSR1 dump, the STATS frame
    // and the JSONL export are one rendering, not three.
    const std::string json = server_.StatsJson();
    std::printf("NETMETRICS %s\n", json.c_str());
    std::fflush(stdout);
    if (!json_path_.empty()) {
      std::FILE* f = std::fopen(json_path_.c_str(), "wb");
      if (f != nullptr) {
        std::fwrite(json.data(), 1, json.size(), f);
        std::fputc('\n', f);
        std::fclose(f);
      }
    }
  }

  void AppendJsonl() {
    const std::string json = server_.StatsJson();
    std::FILE* f = std::fopen(jsonl_path_.c_str(), "ab");
    if (f != nullptr) {
      std::fwrite(json.data(), 1, json.size(), f);
      std::fputc('\n', f);
      std::fclose(f);
    }
  }

 private:
  const FrameServer& server_;
  std::string json_path_;
  std::string jsonl_path_;
  int jsonl_period_seconds_;
  std::atomic<bool> done_{false};
  std::thread poller_;
};

void DefineServerFlags(tools::Flags& flags) {
  flags.Define("shards", "1", "aggregation shards (= ingest pumps)");
  flags.Define("queue", "64",
               "per-shard ingest queue capacity; a full queue stops "
               "reading its connection until there is room");
  flags.Define("idle-timeout", "0",
               "reap a client connection silent for this many seconds "
               "(0 = off; regional shippers legitimately idle between "
               "epochs, so arm it only when the traffic cadence is known)");
  flags.Define("metrics-json", "",
               "also write the SIGUSR1/exit stats JSON here");
  flags.Define("stats-jsonl", "",
               "append a stats JSON line (same schema as the STATS frame "
               "and SIGUSR1 dump) here every --stats-period seconds");
  flags.Define("stats-period", "10",
               "seconds between --stats-jsonl samples");
  flags.Define("slo-i2q-ms", "250",
               "ingest-to-queryable p99 SLO target in ms: p99 past it is "
               "DEGRADED, past 4x it is CRITICAL (health shows up in the "
               "stats JSON, the fleet view, and the event log)");
}

MetricsWatcher MakeWatcher(const tools::Flags& flags,
                           const FrameServer& server) {
  return MetricsWatcher(server, flags.GetString("metrics-json"),
                        flags.GetString("stats-jsonl"),
                        static_cast<int>(flags.GetInt("stats-period")));
}

FrameServerOptions ServerOptionsFromFlags(const tools::Flags& flags) {
  FrameServerOptions options;
  options.port = static_cast<uint16_t>(flags.GetInt("port"));
  options.num_shards = static_cast<size_t>(flags.GetInt("shards"));
  options.queue_capacity = static_cast<size_t>(flags.GetIntIn("queue", 1));
  options.idle_timeout_seconds = static_cast<int>(flags.GetInt("idle-timeout"));
  options.health.i2q_p99_target_ms = flags.GetDouble("slo-i2q-ms");
  return options;
}

// ---------------------------------------------------------------------------
// serve: TCP aggregation front end for one table's reports.
// ---------------------------------------------------------------------------
int RunServe(int argc, char** argv) {
  tools::Flags flags;
  DefineWorkloadFlags(flags);
  flags.Define("port", "7542", "TCP port to listen on");
  DefineServerFlags(flags);
  flags.Define("out", "", "write the sketch's raw lanes here when done");
  flags.Parse(argc, argv);

  const FrameServerOptions options = ServerOptionsFromFlags(flags);
  const SketchParams params = SketchFromFlags(flags);
  const double epsilon = EpsilonFromFlags(flags);
  FrameServer server(params, epsilon, options);
  const Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "cannot start server: %s\n",
                 started.ToString().c_str());
    return 1;
  }
  std::printf("serving LJSP on port %u (k=%d, m=%d, shards=%zu, "
              "queue=%zu)\n",
              server.port(), params.k, params.m, options.num_shards,
              options.queue_capacity);
  std::fflush(stdout);

  LdpJoinSketchServer sketch(params, epsilon);
  {
    MetricsWatcher watcher = MakeWatcher(flags, server);
    server.WaitForFinalizeRequest();
    server.Stop();
    sketch = server.Finalize();
  }
  std::printf("finalized sketch: %llu reports\n",
              static_cast<unsigned long long>(sketch.total_reports()));
  const std::string out = flags.GetString("out");
  if (!out.empty()) {
    const std::vector<uint8_t> bytes = sketch.SerializeRaw();
    if (!WriteFile(out, bytes)) {
      std::fprintf(stderr, "cannot write %s\n", out.c_str());
      return 1;
    }
    std::printf("wrote %s (%zu bytes)\n", out.c_str(), bytes.size());
  }
  return 0;
}

// ---------------------------------------------------------------------------
// federate-central: the top of the two-tier topology. Regions push raw-lane
// epoch snapshots here; collection ends after --finalize-after FINALIZEs.
// ---------------------------------------------------------------------------
int RunFederateCentral(int argc, char** argv) {
  tools::Flags flags;
  DefineWorkloadFlags(flags);
  flags.Define("port", "7650", "TCP port to listen on");
  DefineServerFlags(flags);
  flags.Define("finalize-after", "1",
               "end collection after this many FINALIZE requests (one per "
               "region)");
  flags.Define("window", "0",
               "W >= 1 maintains a sliding-window view over the last W "
               "cross-region-aligned epochs and writes ITS raw lanes to "
               "--out instead of the full history");
  flags.Define("window-regions", "0",
               "regions the windowed view's aligned frontier waits for "
               "(0 = --finalize-after; set explicitly when the FINALIZE "
               "quorum is not one per region)");
  flags.Define("out", "", "write the sketch's raw lanes here when done");
  flags.Parse(argc, argv);

  CentralNodeOptions options;
  options.server = ServerOptionsFromFlags(flags);
  options.finalize_after =
      static_cast<size_t>(flags.GetInt("finalize-after"));
  options.window_epochs = static_cast<uint64_t>(flags.GetInt("window"));
  options.window_expected_regions =
      static_cast<size_t>(flags.GetInt("window-regions"));

  const SketchParams params = SketchFromFlags(flags);
  const double epsilon = EpsilonFromFlags(flags);
  CentralNode central(params, epsilon, options);
  const Status started = central.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "cannot start central: %s\n",
                 started.ToString().c_str());
    return 1;
  }
  std::printf("central aggregator on port %u (k=%d, m=%d, shards=%zu, "
              "finalize-after=%zu)\n",
              central.port(), params.k, params.m, options.server.num_shards,
              options.finalize_after);
  std::fflush(stdout);

  LdpJoinSketchServer sketch(params, epsilon);
  {
    MetricsWatcher watcher = MakeWatcher(flags, central.server());
    central.WaitForRegions();
    central.Stop();
    if (central.windowed()) {
      // The windowed deployment's answer: the last --window aligned
      // epochs, from the incrementally cached view.
      sketch = central.WindowedPublishedView()->sketch;
      const WindowedView& window = *central.window();
      std::printf(
          "windowed view: W=%llu frontier=%s epochs_in_window=%llu "
          "expired=%llu pending=%llu reports=%llu\n",
          static_cast<unsigned long long>(window.window_epochs()),
          window.aligned() ? std::to_string(window.frontier()).c_str()
                           : "unaligned",
          static_cast<unsigned long long>(window.epochs_in_window()),
          static_cast<unsigned long long>(window.epochs_expired()),
          static_cast<unsigned long long>(window.epochs_pending()),
          static_cast<unsigned long long>(window.window_reports()));
    } else {
      sketch = central.Finalize();
    }
  }
  std::printf("%s sketch: %llu reports (%llu epochs applied centrally)\n",
              central.windowed() ? "windowed" : "finalized",
              static_cast<unsigned long long>(sketch.total_reports()),
              static_cast<unsigned long long>(
                  central.metrics().epochs_applied));
  const std::string out = flags.GetString("out");
  if (!out.empty()) {
    const std::vector<uint8_t> bytes = sketch.SerializeRaw();
    if (!WriteFile(out, bytes)) {
      std::fprintf(stderr, "cannot write %s\n", out.c_str());
      return 1;
    }
    std::printf("wrote %s (%zu bytes)\n", out.c_str(), bytes.size());
  }
  return 0;
}

// ---------------------------------------------------------------------------
// federate-region: regional ingest tier. Aggregates client traffic, ships
// epoch snapshots upstream on a wall-clock cadence, and on a client's
// FINALIZE flushes the final epoch and forwards the FINALIZE to the
// central.
// ---------------------------------------------------------------------------
int RunFederateRegion(int argc, char** argv) {
  tools::Flags flags;
  DefineWorkloadFlags(flags);
  flags.Define("port", "7651", "region ingest port");
  DefineServerFlags(flags);
  flags.Define("central-host", "127.0.0.1", "central aggregator host");
  flags.Define("central-port", "7650", "central aggregator port");
  flags.Define("region", "0", "this region's id (dedup key upstream)");
  flags.Define("epoch-ms", "200",
               "epoch cut + ship cadence (0 = only the final flush)");
  flags.Define("spool-dir", "",
               "durable spool directory: epoch cuts are fsynced here before "
               "shipping, and a restart resumes un-shipped epochs from it "
               "(empty = in-memory pending queue only)");
  flags.Define("recv-timeout", "30",
               "seconds a ship may wait on a hung central for any ack "
               "before reconnect+retry (0 = wait forever)");
  flags.Define("stats-push-ms", "1000",
               "ship this region's stats snapshot to the central (LJSP "
               "STATS_PUSH) at most every this many ms (0 = off)");
  flags.Parse(argc, argv);

  RegionalNodeOptions options;
  options.server = ServerOptionsFromFlags(flags);
  options.region_id = static_cast<uint32_t>(flags.GetInt("region"));
  options.central_host = flags.GetString("central-host");
  options.central_port = static_cast<uint16_t>(flags.GetInt("central-port"));
  options.epoch_millis = static_cast<int>(flags.GetInt("epoch-ms"));
  options.spool_dir = flags.GetString("spool-dir");
  options.upstream_recv_timeout_seconds =
      static_cast<int>(flags.GetInt("recv-timeout"));
  options.forward_finalize = true;
  const int stats_push_ms = static_cast<int>(flags.GetInt("stats-push-ms"));
  options.push_stats = stats_push_ms > 0;
  options.stats_push_period_ms = stats_push_ms > 0 ? stats_push_ms : 1000;

  const SketchParams params = SketchFromFlags(flags);
  RegionalNode region(params, EpsilonFromFlags(flags), options);
  const Status started = region.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "cannot start region: %s\n",
                 started.ToString().c_str());
    return 1;
  }
  std::printf("region %u on port %u → central %s:%u (shards=%zu, "
              "epoch-ms=%d)\n",
              options.region_id, region.port(), options.central_host.c_str(),
              static_cast<unsigned>(options.central_port),
              options.server.num_shards, options.epoch_millis);
  std::fflush(stdout);

  {
    // The region's server renders region.metrics(), not its bare counters:
    // the dump includes the ship retry/backoff counters and spool traffic.
    MetricsWatcher watcher = MakeWatcher(flags, region.server());
    // A client FINALIZE is the "this region's collection is complete"
    // signal: flush everything upstream and forward the FINALIZE.
    region.server_mutable().WaitForFinalizeRequest();
    // FlushAndStop retains unshipped snapshots across failed attempts, but
    // only within this process — so keep retrying here rather than exiting
    // with data that would die with us.
    Status flushed = region.FlushAndStop();
    for (int attempt = 1; !flushed.ok() && attempt < 5; ++attempt) {
      std::fprintf(stderr,
                   "flush attempt %d failed (%zu snapshots pending, "
                   "retrying): %s\n",
                   attempt, region.pending_snapshots(),
                   flushed.ToString().c_str());
      std::this_thread::sleep_for(std::chrono::milliseconds(500));
      flushed = region.FlushAndStop();
    }
    if (!flushed.ok()) {
      std::fprintf(stderr,
                   "flush failed; %zu pending snapshots are LOST with this "
                   "process: %s\n",
                   region.pending_snapshots(), flushed.ToString().c_str());
      return 1;
    }
  }
  std::printf("region %u flushed: %llu epochs shipped, %llu snapshot bytes, "
              "%llu ship retries\n",
              options.region_id,
              static_cast<unsigned long long>(region.epochs_shipped()),
              static_cast<unsigned long long>(
                  region.snapshot_bytes_shipped()),
              static_cast<unsigned long long>(region.ship_retries()));
  return 0;
}

// ---------------------------------------------------------------------------
// send: perturb one table exactly like the in-process simulation and stream
// the frames to a serve instance.
// ---------------------------------------------------------------------------
int RunSend(int argc, char** argv) {
  tools::Flags flags;
  DefineWorkloadFlags(flags);
  flags.Define("host", "127.0.0.1", "server host");
  flags.Define("port", "7542", "server port");
  flags.Define("table", "a", "which join column to stream: a|b");
  flags.Define("trial", "0", "perturbation trial index (matches --trials)");
  flags.Define("finalize", "0", "send FINALIZE when done (1 = yes)");
  flags.Define("senders", "1",
               "total senders partitioning this table across regions");
  flags.Define("sender-index", "0",
               "this sender's slice: stream blocks where block % senders == "
               "index (RNG streams unchanged, so N slices union to exactly "
               "the full table)");
  flags.Define("trace-every", "32",
               "wrap every Nth DATA batch in a TRACED envelope so the "
               "server can measure ingest-to-queryable latency end to end "
               "(0 = off)");
  flags.Parse(argc, argv);

  const std::string table = flags.GetString("table");
  if (table != "a" && table != "b") {
    std::fprintf(stderr, "--table must be a or b\n");
    return 2;
  }
  const uint64_t senders = static_cast<uint64_t>(flags.GetInt("senders"));
  const uint64_t sender_index =
      static_cast<uint64_t>(flags.GetInt("sender-index"));
  if (senders == 0 || sender_index >= senders) {
    std::fprintf(stderr, "--sender-index must be < --senders (>= 1)\n");
    return 2;
  }
  const JoinWorkload workload = WorkloadFromFlags(flags);
  const Column& column = table == "a" ? workload.table_a : workload.table_b;
  const SketchParams params = SketchFromFlags(flags);
  const double epsilon = EpsilonFromFlags(flags);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed"));
  const uint64_t trial = static_cast<uint64_t>(flags.GetInt("trial"));
  // The exact derivation chain of experiment mode: per-trial run seed, then
  // the per-table tweak LDPJoinSketch applies.
  const uint64_t run_seed = TableRunSeed(TrialRunSeed(seed, trial), table[0]);

  FrameSender::Options sender_options;
  sender_options.trace_every =
      static_cast<uint64_t>(flags.GetInt("trace-every"));
  auto sender = FrameSender::Connect(flags.GetString("host"),
                                     static_cast<uint16_t>(
                                         flags.GetInt("port")),
                                     params, epsilon, sender_options);
  if (!sender.ok()) {
    std::fprintf(stderr, "connect failed: %s\n",
                 sender.status().ToString().c_str());
    return 1;
  }

  LdpJoinSketchClient client(params, epsilon);
  const size_t rows = column.size();
  std::vector<LdpReport> block(kIngestBlockSize);
  BinaryWriter frame;
  uint64_t sent_reports = 0;
  for (size_t block_index = 0; block_index * kIngestBlockSize < rows;
       ++block_index) {
    if (block_index % senders != sender_index) continue;  // another slice
    const std::span<const LdpReport> out = PerturbIngestBlock(
        client, column.values(), run_seed, block_index, block);
    sent_reports += out.size();
    frame = BinaryWriter();
    EncodeReportBatch(out, frame);
    const Status sent = sender->SendEncodedBatch(frame.buffer());
    if (!sent.ok()) {
      std::fprintf(stderr, "send failed at block %zu: %s\n", block_index,
                   sent.ToString().c_str());
      return 1;
    }
  }
  if (sender_options.trace_every > 0) {
    // The PING barrier makes the server absorb (and republish past) every
    // traced batch above, so the final stats already hold their
    // ingest-to-queryable samples when this sender exits.
    const Status pinged = sender->Ping();
    if (!pinged.ok()) {
      std::fprintf(stderr, "ping failed: %s\n", pinged.ToString().c_str());
      return 1;
    }
  }
  // Either exchange is the proof that every streamed frame is in the
  // lanes; FINALIZE additionally ends the server's collection, and is the
  // session's final message (no BYE after it).
  const Status finished = flags.GetInt("finalize") != 0
                              ? sender->RequestFinalize()
                              : sender->Finish();
  if (!finished.ok()) {
    std::fprintf(stderr, "finish failed: %s\n", finished.ToString().c_str());
    return 1;
  }
  std::printf("streamed table %s (slice %llu/%llu): %llu frames, %llu "
              "bytes, %llu reports\n",
              table.c_str(), static_cast<unsigned long long>(sender_index),
              static_cast<unsigned long long>(senders),
              static_cast<unsigned long long>(sender->frames_sent()),
              static_cast<unsigned long long>(sender->bytes_sent()),
              static_cast<unsigned long long>(sent_reports));
  return 0;
}

// ---------------------------------------------------------------------------
// estimate: join two raw sketch files (serve / federate-central --out) on
// their lanes; optionally check against the in-process run of the same
// experiment.
// ---------------------------------------------------------------------------
int RunEstimate(int argc, char** argv) {
  tools::Flags flags;
  DefineWorkloadFlags(flags);
  flags.Define("sketch-a", "", "raw sketch file for table a");
  flags.Define("sketch-b", "", "raw sketch file for table b");
  flags.Define("check", "0",
               "1 = recompute in-process (trial 0) and require a bit-"
               "identical estimate");
  flags.Parse(argc, argv);

  // b decodes against a's shape: a file of another k, m or seed is
  // FailedPrecondition here, not a CHECK failure in JoinEstimate.
  auto load = [](const std::string& path, const LdpJoinSketchServer* like)
      -> Result<LdpJoinSketchServer> {
    std::vector<uint8_t> bytes;
    if (!ReadFile(path, bytes)) {
      return Status::NotFound("cannot read " + path);
    }
    return like == nullptr ? LdpJoinSketchServer::Deserialize(bytes)
                           : like->DeserializeLike(bytes);
  };
  auto sketch_a = load(flags.GetString("sketch-a"), nullptr);
  auto sketch_b = load(flags.GetString("sketch-b"),
                       sketch_a.ok() ? &*sketch_a : nullptr);
  if (!sketch_a.ok() || !sketch_b.ok()) {
    std::fprintf(stderr, "cannot load sketches: %s / %s\n",
                 sketch_a.ok() ? "ok" : sketch_a.status().ToString().c_str(),
                 sketch_b.ok() ? "ok" : sketch_b.status().ToString().c_str());
    return 1;
  }
  if (sketch_a->finalized() || sketch_b->finalized()) {
    std::fprintf(stderr,
                 "estimate joins raw sketch files: a finalized file holds no "
                 "lanes\n");
    return 1;
  }
  const double estimate = sketch_a->JoinEstimate(*sketch_b);
  std::printf("network estimate   : %.17g\n", estimate);

  if (flags.GetInt("check") != 0) {
    JoinMethodConfig config;
    config.epsilon = EpsilonFromFlags(flags);
    config.sketch = SketchFromFlags(flags);
    config.run_seed =
        TrialRunSeed(static_cast<uint64_t>(flags.GetInt("seed")), 0);
    const JoinWorkload workload = WorkloadFromFlags(flags);
    const JoinMethodResult in_process =
        EstimateJoin(JoinMethod::kLdpJoinSketch, workload.table_a,
                     workload.table_b, config);
    std::printf("in-process estimate: %.17g\n", in_process.estimate);
    if (in_process.estimate != estimate) {
      std::printf("MISMATCH: network path diverged from in-process run\n");
      return 1;
    }
    std::printf("bit-identical: yes\n");
    const double truth = ExactJoinSize(workload.table_a, workload.table_b);
    std::printf("true join size     : %.6e (RE %.4f)\n", truth,
                RelativeError(truth, estimate));
  }
  return 0;
}

// ---------------------------------------------------------------------------
// query: the LJSP read path. One query against a live serve /
// federate-central instance's published view — join size, frequency,
// frequent items, multiway chain, or AQP range estimates — without
// interrupting collection. `--check 1` additionally fetches the server's
// raw lanes and requires the served answer to be bit-identical to the
// local evaluation of the same view (lifetime servers only — a windowed
// central's QUERY view is its sliding window, which SNAPSHOT does not
// expose).
// ---------------------------------------------------------------------------
int RunQuery(int argc, char** argv) {
  tools::Flags flags;
  DefineWorkloadFlags(flags);
  flags.Define("host", "127.0.0.1", "server host");
  flags.Define("port", "7542", "server port");
  flags.Define("kind", "freq",
               "what to ask: join|freq|topk|multiway|range|predjoin");
  flags.Define("key", "0", "freq: key to estimate");
  flags.Define("domain", "1024", "topk: scan keys in [0, domain)");
  flags.Define("threshold", "0",
               "topk: report keys with estimated frequency above this");
  flags.Define("lo", "0", "range/predjoin: key range lower bound");
  flags.Define("hi", "0", "range/predjoin: key range upper bound");
  flags.Define("mid-m", "64",
               "multiway: middle sketch right-side width (power of two)");
  flags.Define("trial", "0", "probe perturbation trial (matches send)");
  flags.Define("ping", "1",
               "PING before querying, so the served view includes "
               "everything already ingested (read-your-writes)");
  flags.Define("check", "0",
               "1 = fetch the raw lanes and require the served answer to "
               "be bit-identical to evaluating the same view locally");
  flags.Define("finalize", "0",
               "send FINALIZE after the query (ends the collection)");
  flags.Parse(argc, argv);

  const std::string kind_name = flags.GetString("kind");
  QueryRequest request;
  if (kind_name == "join") {
    request.kind = QueryKind::kJoinSize;
  } else if (kind_name == "freq") {
    request.kind = QueryKind::kFrequency;
  } else if (kind_name == "topk") {
    request.kind = QueryKind::kFrequentItems;
  } else if (kind_name == "multiway") {
    request.kind = QueryKind::kMultiwayChain;
  } else if (kind_name == "range") {
    request.kind = QueryKind::kRangeCount;
  } else if (kind_name == "predjoin") {
    request.kind = QueryKind::kPredicateJoin;
  } else {
    std::fprintf(stderr,
                 "unknown kind '%s' (join|freq|topk|multiway|range|"
                 "predjoin)\n",
                 kind_name.c_str());
    return 2;
  }
  request.key = static_cast<uint64_t>(flags.GetInt("key"));
  request.domain = static_cast<uint64_t>(flags.GetInt("domain"));
  request.threshold = flags.GetDouble("threshold");
  request.range_lo = static_cast<uint64_t>(flags.GetInt("lo"));
  request.range_hi = static_cast<uint64_t>(flags.GetInt("hi"));

  const SketchParams params = SketchFromFlags(flags);
  const double epsilon = EpsilonFromFlags(flags);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed"));
  const uint64_t trial = static_cast<uint64_t>(flags.GetInt("trial"));

  const bool needs_probe = request.kind == QueryKind::kJoinSize ||
                           request.kind == QueryKind::kMultiwayChain ||
                           request.kind == QueryKind::kPredicateJoin;
  if (needs_probe) {
    // The probe is table B perturbed exactly like `send --table b` would
    // (same RNG streams, same seed chain) and absorbed locally, so the
    // served estimate is the one the full network run would produce.
    const JoinWorkload workload = WorkloadFromFlags(flags);
    const uint64_t run_seed = TableRunSeed(TrialRunSeed(seed, trial), 'b');
    SketchParams probe_params = params;
    if (request.kind == QueryKind::kMultiwayChain) {
      // Chain layout: view (left end, hashed on params.seed) ⋈ middle ⋈
      // probe. The middle's left side shares the view's hashes; its right
      // side and the probe share a derived seed.
      const int mid_m = static_cast<int>(
          flags.GetPowerOfTwoIn("mid-m", 2, kMaxSketchColumns));
      MultiwayParams middle_params;
      middle_params.k = params.k;
      middle_params.m_left = params.m;
      middle_params.m_right = mid_m;
      middle_params.left_seed = params.seed;
      middle_params.right_seed = Mix64(params.seed ^ 0x517EULL);
      LdpMultiwayClient middle_client(middle_params, epsilon);
      LdpMultiwayServer middle_server(middle_params, epsilon);
      Xoshiro256 middle_rng = MakeStreamRng(Mix64(seed ^ 0x3D1DULL), trial);
      const std::vector<uint64_t>& a = workload.table_a.values();
      const std::vector<uint64_t>& b = workload.table_b.values();
      for (size_t i = 0; i < a.size(); ++i) {
        middle_server.Absorb(
            middle_client.Perturb(a[i], b[i % b.size()], middle_rng));
      }
      middle_server.Finalize();  // middles must arrive finalized
      request.middles.push_back(middle_server.Serialize());
      probe_params.m = mid_m;
      probe_params.seed = middle_params.right_seed;
    }
    LdpJoinSketchClient probe_client(probe_params, epsilon);
    LdpJoinSketchServer probe_server(probe_params, epsilon);
    const std::vector<uint64_t>& values = workload.table_b.values();
    std::vector<LdpReport> block(kIngestBlockSize);
    for (size_t index = 0; index * kIngestBlockSize < values.size();
         ++index) {
      probe_server.AbsorbBatch(
          PerturbIngestBlock(probe_client, values, run_seed, index, block));
    }
    request.probe_sketch = probe_server.Serialize();  // raw lanes
  }

  auto sender =
      FrameSender::Connect(flags.GetString("host"),
                           static_cast<uint16_t>(flags.GetInt("port")),
                           params, epsilon);
  if (!sender.ok()) {
    std::fprintf(stderr, "connect failed: %s\n",
                 sender.status().ToString().c_str());
    return 1;
  }
  if (flags.GetInt("ping") != 0) {
    const Status pinged = sender->Ping();
    if (!pinged.ok()) {
      std::fprintf(stderr, "ping failed: %s\n", pinged.ToString().c_str());
      return 1;
    }
  }
  auto response = sender->Query(request);
  if (!response.ok()) {
    std::fprintf(stderr, "query failed: %s\n",
                 response.status().ToString().c_str());
    return 1;
  }
  std::printf("kind           : %s (LJSP v%u)\n", kind_name.c_str(),
              static_cast<unsigned>(kNetVersion));
  std::printf("view           : seq=%llu %s reports=%llu\n",
              static_cast<unsigned long long>(response->view_sequence),
              response->view_aligned
                  ? ("frontier=" + std::to_string(response->view_epoch))
                        .c_str()
                  : "lifetime",
              static_cast<unsigned long long>(response->view_reports));
  std::printf("answer         : %.17g\n", response->value);
  if (!response->items.empty()) {
    std::printf("items          :");
    for (const uint64_t item : response->items) {
      std::printf(" %llu", static_cast<unsigned long long>(item));
    }
    std::printf("\n");
  }

  if (flags.GetInt("check") != 0) {
    // Same view, evaluated locally: the lanes fetched right after the
    // query are the ones the PING republished (no concurrent ingest in a
    // checked run), so the served answer must match bit for bit.
    auto raw = sender->SnapshotRawSketch();
    if (!raw.ok()) {
      std::fprintf(stderr, "snapshot failed: %s\n",
                   raw.status().ToString().c_str());
      return 1;
    }
    auto lanes = LdpJoinSketchServer::Deserialize(*raw);
    if (!lanes.ok()) {
      std::fprintf(stderr, "snapshot decode failed: %s\n",
                   lanes.status().ToString().c_str());
      return 1;
    }
    lanes->Finalize();
    const PublishedView local_view(response->view_sequence,
                                   response->view_aligned,
                                   response->view_epoch, std::move(*lanes));
    auto local = AnswerQuery(local_view, request);
    if (!local.ok()) {
      std::fprintf(stderr, "local evaluation failed: %s\n",
                   local.status().ToString().c_str());
      return 1;
    }
    uint64_t served_bits = 0, local_bits = 0;
    std::memcpy(&served_bits, &response->value, sizeof(served_bits));
    std::memcpy(&local_bits, &local->value, sizeof(local_bits));
    std::printf("local answer   : %.17g\n", local->value);
    if (served_bits != local_bits || response->items != local->items ||
        response->view_reports != local_view.reports()) {
      std::printf("MISMATCH: served answer diverged from the local "
                  "evaluation of the same view\n");
      return 1;
    }
    std::printf("bit-identical: yes\n");
  }

  if (flags.GetInt("finalize") != 0) {
    const Status finalized = sender->RequestFinalize();
    if (!finalized.ok()) {
      std::fprintf(stderr, "finalize failed: %s\n",
                   finalized.ToString().c_str());
      return 1;
    }
  } else {
    const Status finished = sender->Finish();
    if (!finished.ok()) {
      std::fprintf(stderr, "finish failed: %s\n",
                   finished.ToString().c_str());
      return 1;
    }
  }
  return 0;
}

// ---------------------------------------------------------------------------
// stats: the LJSP ops path. Scrape a live server's stats snapshot —
// counters, per-tier latency histograms, and the end-to-end
// ingest-to-queryable percentiles — as one JSON line, without interrupting
// collection (STATS is answered immediately, never ordered behind ingest).
// --cluster scrapes the central's FLEET_STATS view instead: every region's
// last STATS_PUSH snapshot plus the exactly-merged cluster histograms and
// the health roll-up. --watch N re-scrapes every N seconds, reconnecting
// with jittered backoff across transient connection loss — a monitor that
// dies with the first server blip is not a monitor.
// ---------------------------------------------------------------------------
int RunStats(int argc, char** argv) {
  tools::Flags flags;
  DefineWorkloadFlags(flags);
  flags.Define("host", "127.0.0.1", "server host");
  flags.Define("port", "7542", "server port");
  flags.Define("ping", "1",
               "PING before each scrape: the barrier republishes the view, "
               "so sampled traced batches already ingested show up in "
               "ingest_to_queryable before the scrape reads it");
  flags.Define("watch", "0",
               "re-scrape every this many seconds (0 = one shot)");
  flags.Define("cluster", "0",
               "1 = scrape the fleet view (per-region STATS_PUSH snapshots "
               "+ exactly-merged cluster histograms + health roll-up) "
               "instead of the server's own stats");
  flags.Parse(argc, argv);

  const SketchParams params = SketchFromFlags(flags);
  const double epsilon = EpsilonFromFlags(flags);
  const std::string host = flags.GetString("host");
  const uint16_t port = static_cast<uint16_t>(flags.GetInt("port"));
  const int watch = static_cast<int>(flags.GetInt("watch"));
  const bool cluster = flags.GetInt("cluster") != 0;
  const bool ping = flags.GetInt("ping") != 0;

  std::optional<FrameSender> sender;
  Backoff backoff(BackoffOptions{.base_micros = 200000,
                                 .cap_micros = 5000000});
  for (;;) {
    if (!sender.has_value()) {
      auto connected = FrameSender::Connect(host, port, params, epsilon);
      if (!connected.ok()) {
        // FailedPrecondition is a refused handshake (params or protocol
        // version mismatch): reconnecting can never fix it, so fail fast
        // even under --watch rather than retrying forever.
        if (watch <= 0 ||
            connected.status().code() == StatusCode::kFailedPrecondition) {
          std::fprintf(stderr, "connect failed: %s\n",
                       connected.status().ToString().c_str());
          return 1;
        }
        std::fprintf(stderr, "connect failed (%s); retrying\n",
                     connected.status().ToString().c_str());
        backoff.SleepNext();
        continue;
      }
      sender.emplace(std::move(*connected));
      backoff.Reset();
    }
    Status scrape = Status::OK();
    if (ping) scrape = sender->Ping();
    if (scrape.ok()) {
      if (cluster) {
        auto view = sender->FleetStats();
        if (view.ok()) {
          std::printf("%s\n", FleetViewToJson(*view).c_str());
        } else {
          scrape = view.status();
        }
      } else {
        auto json = sender->Stats();
        if (json.ok()) {
          std::printf("%s\n", json->c_str());
        } else {
          scrape = json.status();
        }
      }
    }
    if (!scrape.ok()) {
      // A scrape failure on an established session is transport trouble:
      // under --watch, reconnect (the handshake re-checks compatibility).
      if (watch <= 0) {
        std::fprintf(stderr, "stats failed: %s\n",
                     scrape.ToString().c_str());
        return 1;
      }
      std::fprintf(stderr, "scrape failed (%s); reconnecting\n",
                   scrape.ToString().c_str());
      sender.reset();
      backoff.SleepNext();
      continue;
    }
    std::fflush(stdout);
    if (watch <= 0) break;
    std::this_thread::sleep_for(std::chrono::seconds(watch));
  }
  const Status finished = sender->Finish();
  if (!finished.ok()) {
    std::fprintf(stderr, "finish failed: %s\n",
                 finished.ToString().c_str());
    return 1;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// top: live terminal dashboard over the central's fleet view. One row per
// region (health state, frontier epoch, pending depth, i2q/ship-RTT
// percentiles from the pushed raw buckets, snapshot age) plus the cluster
// roll-up from the exactly-merged histograms. Scrapes FLEET_STATS every
// --interval seconds on a reconnecting session.
// ---------------------------------------------------------------------------

/// ns → short human string for a dashboard cell ("-" for an empty series).
std::string FormatNanos(double ns) {
  if (ns <= 0) return "-";
  char buf[32];
  if (ns < 1e3) {
    std::snprintf(buf, sizeof buf, "%.0fns", ns);
  } else if (ns < 1e6) {
    std::snprintf(buf, sizeof buf, "%.1fus", ns / 1e3);
  } else if (ns < 1e9) {
    std::snprintf(buf, sizeof buf, "%.1fms", ns / 1e6);
  } else {
    std::snprintf(buf, sizeof buf, "%.1fs", ns / 1e9);
  }
  return buf;
}

void RenderFleetView(const FleetView& view, const std::string& target) {
  std::printf("ldpjs fleet @ %s    cluster=%s  regions=%zu\n", target.c_str(),
              std::string(HealthStateName(view.cluster.state)).c_str(),
              view.regions.size());
  if (!view.cluster.cause.empty()) {
    std::printf("  cause: %s\n", view.cluster.cause.c_str());
  }
  std::printf("%-8s %-9s %9s %8s %10s %10s %12s %8s\n", "REGION", "STATE",
              "FRONTIER", "PENDING", "I2Q-P50", "I2Q-P99", "SHIP-RTT-P99",
              "AGE");
  for (const FleetRegionView& region : view.regions) {
    const MetricsRegistry::Snapshot& stats = region.snapshot.stats;
    const HistogramSnapshot i2q =
        SeriesValue(stats.histograms, "ingest_to_queryable_ns");
    const HistogramSnapshot rtt = SeriesValue(stats.histograms, "ship_rtt_ns");
    std::printf(
        "%-8u %-9s %9llu %8llu %10s %10s %12s %8s\n",
        region.snapshot.region_id,
        std::string(HealthStateName(region.health.state)).c_str(),
        static_cast<unsigned long long>(
            SeriesValue(stats.gauges, "net_frontier_epoch")),
        static_cast<unsigned long long>(
            SeriesValue(stats.gauges, "net_pending_epochs")),
        FormatNanos(i2q.Percentile(0.50)).c_str(),
        FormatNanos(i2q.Percentile(0.99)).c_str(),
        FormatNanos(rtt.Percentile(0.99)).c_str(),
        FormatNanos(static_cast<double>(region.age_ns)).c_str());
  }
  const HistogramSnapshot merged_i2q =
      SeriesValue(view.merged.histograms, "ingest_to_queryable_ns");
  std::printf("CLUSTER  i2q p50=%s p99=%s (n=%llu)  frames=%llu "
              "reports=%llu\n",
              FormatNanos(merged_i2q.Percentile(0.50)).c_str(),
              FormatNanos(merged_i2q.Percentile(0.99)).c_str(),
              static_cast<unsigned long long>(merged_i2q.count),
              static_cast<unsigned long long>(
                  SeriesValue(view.merged.counters, "net_frames_received")),
              static_cast<unsigned long long>(
                  SeriesValue(view.merged.counters, "net_reports_ingested")));
}

int RunTop(int argc, char** argv) {
  tools::Flags flags;
  DefineWorkloadFlags(flags);
  flags.Define("host", "127.0.0.1", "central host");
  flags.Define("port", "7650", "central port");
  flags.Define("interval", "2", "seconds between scrapes");
  flags.Define("iterations", "0",
               "stop after this many rendered frames (0 = until killed; "
               "CI smoke runs bound it)");
  flags.Define("clear", "1",
               "clear the terminal before each frame (0 = append, for "
               "logs/CI)");
  flags.Parse(argc, argv);

  const SketchParams params = SketchFromFlags(flags);
  const double epsilon = EpsilonFromFlags(flags);
  const std::string host = flags.GetString("host");
  const uint16_t port = static_cast<uint16_t>(flags.GetInt("port"));
  const std::string target = host + ":" + std::to_string(port);
  const int interval = static_cast<int>(flags.GetInt("interval"));
  const uint64_t iterations =
      static_cast<uint64_t>(flags.GetInt("iterations"));
  const bool clear = flags.GetInt("clear") != 0;

  std::optional<FrameSender> sender;
  Backoff backoff(BackoffOptions{.base_micros = 200000,
                                 .cap_micros = 5000000});
  for (uint64_t rendered = 0; iterations == 0 || rendered < iterations;) {
    if (!sender.has_value()) {
      auto connected = FrameSender::Connect(host, port, params, epsilon);
      if (!connected.ok()) {
        if (connected.status().code() == StatusCode::kFailedPrecondition) {
          // A refused handshake (params or protocol version mismatch):
          // reconnecting can never fix it.
          std::fprintf(stderr, "connect failed: %s\n",
                       connected.status().ToString().c_str());
          return 1;
        }
        std::fprintf(stderr, "connect failed (%s); retrying\n",
                     connected.status().ToString().c_str());
        backoff.SleepNext();
        continue;
      }
      sender.emplace(std::move(*connected));
      backoff.Reset();
    }
    auto view = sender->FleetStats();
    if (!view.ok()) {
      // Transport trouble on an established session: reconnect.
      std::fprintf(stderr, "scrape failed (%s); reconnecting\n",
                   view.status().ToString().c_str());
      sender.reset();
      backoff.SleepNext();
      continue;
    }
    if (clear) std::printf("\x1b[H\x1b[2J");
    RenderFleetView(*view, target);
    std::fflush(stdout);
    ++rendered;
    if (iterations != 0 && rendered >= iterations) break;
    std::this_thread::sleep_for(std::chrono::seconds(interval));
  }
  if (sender.has_value()) {
    const Status finished = sender->Finish();
    if (!finished.ok()) {
      std::fprintf(stderr, "finish failed: %s\n",
                   finished.ToString().c_str());
      return 1;
    }
  }
  return 0;
}

// ---------------------------------------------------------------------------
// chaos: sweep seeded fault schedules over a loopback federated run and
// verify the chaos invariants live — bit-identity of the federated (and
// windowed) estimate against a direct single-node absorb, and bit-exact
// replay of every schedule from its seed. Exit 0 only if every scenario
// holds; the ops smoke test CI runs on every change.
// ---------------------------------------------------------------------------
int RunChaos(int argc, char** argv) {
  tools::Flags flags;
  flags.Define("k", "6", "sketch rows");
  flags.Define("m", "256", "sketch columns");
  flags.Define("epsilon", "2", "privacy budget");
  flags.Define("fault-seed", "1", "first fault schedule seed");
  flags.Define("sweep", "4", "number of consecutive seeds to sweep");
  flags.Define("fault-rate", "0.2",
               "per-operation fault probability on the upstream path");
  flags.Define("max-faults", "4", "fault budget per scenario");
  flags.Define("regions", "2", "regional nodes");
  flags.Define("epochs", "2", "epoch cuts per region");
  flags.Define("reports", "800", "reports per region per epoch");
  flags.Define("replay", "1",
               "1 = run each scenario twice and require bit-exact replay "
               "(same faults, same retries, same estimate)");
  flags.Define("spool-dir", "",
               "run the sweep with durable spooling under this directory");
  flags.Parse(argc, argv);

  ChaosScenarioOptions options;
  options.params.k = static_cast<int>(flags.GetIntIn("k", 1, kMaxSketchRows));
  options.params.m =
      static_cast<int>(flags.GetPowerOfTwoIn("m", 2, kMaxSketchColumns));
  options.params.seed = 21;
  options.epsilon = EpsilonFromFlags(flags);
  options.fault_rate = flags.GetDouble("fault-rate");
  options.max_faults = static_cast<uint64_t>(flags.GetInt("max-faults"));
  options.num_regions = static_cast<size_t>(flags.GetInt("regions"));
  options.epochs = static_cast<size_t>(flags.GetInt("epochs"));
  options.reports_per_epoch = static_cast<size_t>(flags.GetInt("reports"));
  options.spool_dir = flags.GetString("spool-dir");

  const uint64_t first_seed =
      static_cast<uint64_t>(flags.GetInt("fault-seed"));
  const uint64_t sweep = static_cast<uint64_t>(flags.GetInt("sweep"));
  const bool replay = flags.GetInt("replay") != 0;
  int failures = 0;
  for (uint64_t seed = first_seed; seed < first_seed + sweep; ++seed) {
    options.fault_seed = seed;
    auto run = RunChaosScenario(options);
    if (!run.ok()) {
      std::fprintf(stderr, "seed %llu: harness error: %s\n",
                   static_cast<unsigned long long>(seed),
                   run.status().ToString().c_str());
      ++failures;
      continue;
    }
    bool ok = run->bit_identical();
    std::printf(
        "seed %llu: %s  faults=%llu/%llu hits, retries=%llu, dups=%llu, "
        "backoff=%llums%s\n",
        static_cast<unsigned long long>(seed),
        ok ? "bit-identical" : "ESTIMATE DIVERGED",
        static_cast<unsigned long long>(run->faults_injected),
        static_cast<unsigned long long>(run->fault_hits),
        static_cast<unsigned long long>(run->ship_retries),
        static_cast<unsigned long long>(run->duplicate_acks),
        static_cast<unsigned long long>(run->backoff_millis),
        run->spool_bytes_written > 0 ? " (spooled)" : "");
    std::printf("  sites: %s\n", run->fault_stats.c_str());
    if (replay) {
      auto again = RunChaosScenario(options);
      if (!again.ok() || !again->bit_identical() ||
          again->fault_stats != run->fault_stats ||
          again->ship_retries != run->ship_retries ||
          again->federated != run->federated) {
        std::printf("  replay: DIVERGED from first run\n");
        ok = false;
      } else {
        std::printf("  replay: bit-exact\n");
      }
    }
    if (!ok) ++failures;
  }
  if (failures > 0) {
    std::fprintf(stderr, "%d scenario(s) FAILED\n", failures);
    return 1;
  }
  std::printf("all %llu scenario(s) held bit-identity under chaos\n",
              static_cast<unsigned long long>(sweep));
  return 0;
}

// ---------------------------------------------------------------------------
// experiment mode (original interface).
// ---------------------------------------------------------------------------
int RunExperiment(int argc, char** argv) {
  tools::Flags flags;
  flags.Define("method", "ldpjoinsketch", "estimator to run");
  DefineWorkloadFlags(flags);
  flags.Define("sample-rate", "0.1", "LDPJoinSketch+ phase-1 rate r");
  flags.Define("threshold", "0.001", "LDPJoinSketch+ FI threshold theta");
  flags.Define("flh-pool", "256", "FLH hash pool size");
  flags.Define("trials", "3", "perturbation repetitions");
  flags.Define("threads", "0", "simulation threads (0 = hardware)");
  flags.Parse(argc, argv);

  const JoinMethod method = ParseMethod(flags.GetString("method"));
  const uint64_t rows = static_cast<uint64_t>(flags.GetIntIn("rows", 1));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed"));

  // Every value is checked before the workload is built, so a bad one
  // exits 2 at once instead of after seconds of data generation.
  JoinMethodConfig config;
  config.epsilon = EpsilonFromFlags(flags);
  config.sketch = SketchFromFlags(flags);
  if (method == JoinMethod::kLdpJoinSketchPlus) {
    config.plus_sample_rate = flags.GetDoubleIn("sample-rate", 0.0, 1.0);
  }
  config.plus_threshold = flags.GetDouble("threshold");
  if (method == JoinMethod::kFlh) {
    config.flh_pool_size = static_cast<uint32_t>(
        flags.GetIntIn("flh-pool", 1, std::numeric_limits<uint32_t>::max()));
  }
  config.num_threads = static_cast<size_t>(flags.GetInt("threads"));
  const int trials = static_cast<int>(
      flags.GetIntIn("trials", 1, std::numeric_limits<int>::max()));

  const JoinWorkload workload = WorkloadFromFlags(flags);
  const double truth = ExactJoinSize(workload.table_a, workload.table_b);

  RunningStats estimates, res, offline, online;
  double comm_bits = 0;
  for (int t = 0; t < trials; ++t) {
    config.run_seed = TrialRunSeed(seed, static_cast<uint64_t>(t));
    const JoinMethodResult result =
        EstimateJoin(method, workload.table_a, workload.table_b, config);
    estimates.Add(result.estimate);
    res.Add(RelativeError(truth, result.estimate));
    offline.Add(result.offline_seconds);
    online.Add(result.online_seconds);
    comm_bits = result.comm_bits;
  }

  std::printf("method         : %s\n",
              std::string(JoinMethodName(method)).c_str());
  std::printf("dataset        : %s (%llu rows/table, domain %llu)\n",
              workload.name.c_str(), static_cast<unsigned long long>(rows),
              static_cast<unsigned long long>(workload.table_a.domain()));
  std::printf("epsilon        : %.3f   sketch (k=%d, m=%d)\n", config.epsilon,
              config.sketch.k, config.sketch.m);
  std::printf("true join size : %.6e\n", truth);
  std::printf("estimate       : %.6e (mean of %d trials, stddev %.3e)\n",
              estimates.mean(), trials, estimates.stddev());
  std::printf("relative error : %.4f (mean)\n", res.mean());
  std::printf("offline/online : %.3f s / %.3f s\n", offline.mean(),
              online.mean());
  std::printf("uplink traffic : %.3e bits total\n", comm_bits);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && argv[1][0] != '-') {
    const std::string subcommand = argv[1];
    if (subcommand == "serve") return RunServe(argc - 1, argv + 1);
    if (subcommand == "send") return RunSend(argc - 1, argv + 1);
    if (subcommand == "estimate") return RunEstimate(argc - 1, argv + 1);
    if (subcommand == "query") return RunQuery(argc - 1, argv + 1);
    if (subcommand == "stats") return RunStats(argc - 1, argv + 1);
    if (subcommand == "top") return RunTop(argc - 1, argv + 1);
    if (subcommand == "federate-central") {
      return RunFederateCentral(argc - 1, argv + 1);
    }
    if (subcommand == "federate-region") {
      return RunFederateRegion(argc - 1, argv + 1);
    }
    if (subcommand == "chaos") return RunChaos(argc - 1, argv + 1);
    std::fprintf(stderr,
                 "unknown subcommand '%s' (serve|send|estimate|query|stats|"
                 "top|federate-central|federate-region|chaos, or flags only "
                 "for experiment mode)\n",
                 subcommand.c_str());
    return 2;
  }
  return RunExperiment(argc, argv);
}
