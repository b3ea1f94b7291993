// Chaos-readiness of the wire stack: deterministic fault injection, the
// jittered-backoff retry machinery, idle-connection reaping, and the
// scenario harness that sweeps fault schedules over a 2-region federated
// run. The acceptance bar everywhere is the repo's north star under
// fire: injected drops, delays, torn writes, corrupt frames, and
// disconnects may delay data and burn retries, but the federated
// estimate — full-history and windowed — stays bit-identical to a
// single node absorbing every report, and the same fault seed replays
// the same faults and the same counters, bit-exactly.
#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/backoff.h"
#include "common/crc32c.h"
#include "common/fault_injector.h"
#include "common/random.h"
#include "common/socket.h"
#include "core/ldp_join_sketch.h"
#include "federation/central_node.h"
#include "federation/chaos_harness.h"
#include "net/frame_sender.h"
#include "net/frame_server.h"

namespace ldpjs {
namespace {

SketchParams TestParams(int k = 6, int m = 256, uint64_t seed = 21) {
  SketchParams params;
  params.k = k;
  params.m = m;
  params.seed = seed;
  return params;
}

// ---- CRC32C ---------------------------------------------------------------

TEST(Crc32cTest, KnownVectorAndChaining) {
  // The canonical CRC-32C check vector.
  const std::string check = "123456789";
  const auto bytes = std::span<const uint8_t>(
      reinterpret_cast<const uint8_t*>(check.data()), check.size());
  EXPECT_EQ(Crc32c(bytes), 0xE3069283u);
  // Chaining a split buffer equals one pass over the whole.
  const uint32_t head = Crc32c(bytes.subspan(0, 4));
  EXPECT_EQ(Crc32c(bytes.subspan(4), head), Crc32c(bytes));
}

// ---- Backoff --------------------------------------------------------------

TEST(BackoffTest, DeterministicJitterWithinBounds) {
  BackoffOptions options;
  options.base_micros = 100;
  options.cap_micros = 5000;
  options.seed = 99;
  Backoff a(options);
  Backoff b(options);
  EXPECT_EQ(a.Next().count(), options.base_micros);  // first wait is base
  EXPECT_EQ(b.Next().count(), options.base_micros);
  for (int i = 0; i < 64; ++i) {
    const int64_t wait = a.Next().count();
    EXPECT_EQ(wait, b.Next().count());  // same seed, same sequence
    EXPECT_GE(wait, options.base_micros);
    EXPECT_LE(wait, options.cap_micros);
  }
  a.Reset();
  EXPECT_EQ(a.Next().count(), options.base_micros);  // Reset restarts ramp
}

// ---- FaultInjector --------------------------------------------------------

TEST(FaultInjectorTest, SeededScheduleReplaysBitExact) {
  const std::vector<std::string> sites = {"r0.up.send", "r0.up.recv",
                                          "r0.up.connect", "r1.up.send"};
  FaultInjector first(/*seed=*/7, /*rate=*/0.5, /*max_faults=*/1000);
  FaultInjector second(/*seed=*/7, /*rate=*/0.5, /*max_faults=*/1000);
  for (int round = 0; round < 50; ++round) {
    for (const std::string& site : sites) {
      const FaultAction a = first.Next(site);
      const FaultAction b = second.Next(site);
      EXPECT_EQ(a.kind, b.kind);
      EXPECT_EQ(a.param, b.param);
    }
  }
  EXPECT_GT(first.total_injected(), 0u);
  EXPECT_EQ(first.total_injected(), second.total_injected());
  EXPECT_EQ(first.StatsString(), second.StatsString());

  // A different seed yields a different schedule (the stats line is the
  // canonical fingerprint).
  FaultInjector other(/*seed=*/8, /*rate=*/0.5, /*max_faults=*/1000);
  for (int round = 0; round < 50; ++round) {
    for (const std::string& site : sites) other.Next(site);
  }
  EXPECT_NE(other.StatsString(), first.StatsString());
}

TEST(FaultInjectorTest, RulesFireAtTheExactHit) {
  FaultInjector injector;  // no seeded schedule
  injector.AddRule("x.send", /*hit=*/2, FaultKind::kDisconnect);
  EXPECT_EQ(injector.Next("x.send").kind, FaultKind::kNone);
  EXPECT_EQ(injector.Next("x.send").kind, FaultKind::kNone);
  EXPECT_EQ(injector.Next("x.send").kind, FaultKind::kDisconnect);
  EXPECT_EQ(injector.Next("x.send").kind, FaultKind::kNone);
  EXPECT_EQ(injector.total_hits(), 4u);
  EXPECT_EQ(injector.total_injected(), 1u);
}

TEST(FaultInjectorTest, MaxFaultsCapsTheSchedule) {
  FaultInjector injector(/*seed=*/3, /*rate=*/1.0, /*max_faults=*/3);
  uint64_t fired = 0;
  for (int i = 0; i < 20; ++i) {
    if (injector.Next("y.send").kind != FaultKind::kNone) ++fired;
  }
  EXPECT_EQ(fired, 3u);  // rate 1.0 would fire every hit; the cap holds
  EXPECT_EQ(injector.total_injected(), 3u);
}

TEST(FaultInjectorTest, SiteSuffixConstrainsKindsAndCorruptStaysInHeader) {
  FaultInjector injector(/*seed=*/5, /*rate=*/1.0, /*max_faults=*/10000);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(injector.Next("a.connect").kind, FaultKind::kRefuseConnect);
    const FaultAction recv = injector.Next("a.recv");
    EXPECT_TRUE(recv.kind == FaultKind::kDelay ||
                recv.kind == FaultKind::kDisconnect);
    const FaultAction send = injector.Next("a.send");
    if (send.kind == FaultKind::kCorrupt) {
      // Scheduled corruption is confined to the 5-byte transport header,
      // where the peer's framing layer always detects it — a flipped
      // sketch-lane byte would merge silently and break bit-identity.
      EXPECT_LT(send.param, 5u);
    }
    if (send.kind == FaultKind::kDelay || recv.kind == FaultKind::kDelay) {
      const FaultAction& delay =
          send.kind == FaultKind::kDelay ? send : recv;
      EXPECT_GE(delay.param, 1u);
      EXPECT_LE(delay.param, 4u);
    }
  }
}

// ---- Chaos scenarios ------------------------------------------------------

ChaosScenarioOptions SmallScenario(uint64_t fault_seed, double rate) {
  ChaosScenarioOptions options;
  options.params = TestParams();
  options.epsilon = 2.0;
  options.fault_seed = fault_seed;
  options.fault_rate = rate;
  options.max_faults = 4;
  options.num_regions = 2;
  options.epochs = 2;
  options.reports_per_epoch = 800;
  return options;
}

// The fault-free control run: everything the chaos plumbing adds (site
// labels, timeouts, backoff state, the windowed comparison path) must be
// inert when nothing fails.
TEST(ChaosScenarioTest, FaultFreeControlRunIsCleanAndRetryFree) {
  auto result = RunChaosScenario(SmallScenario(/*fault_seed=*/1, /*rate=*/0));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->bit_identical());
  EXPECT_EQ(result->faults_injected, 0u);
  EXPECT_EQ(result->ship_retries, 0u);
  EXPECT_EQ(result->duplicate_acks, 0u);
  EXPECT_EQ(result->backoff_millis, 0u);
  EXPECT_GT(result->fault_hits, 0u);  // the sites were exercised
  EXPECT_EQ(result->total_reports, 2u * 2u * 800u);
}

// The sweep: several seeded fault schedules, each run twice. Every run
// must deliver bit-identity (nothing lost, nothing doubled, windowed ==
// full == direct), and the second run of a seed must replay the first's
// faults and retries exactly.
TEST(ChaosScenarioTest, FaultScheduleSweepBitIdenticalAndReplaysFromSeed) {
  for (const uint64_t seed : {uint64_t{11}, uint64_t{23}}) {
    const ChaosScenarioOptions options = SmallScenario(seed, /*rate=*/0.2);
    auto first = RunChaosScenario(options);
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    EXPECT_TRUE(first->bit_identical()) << "seed=" << seed;
    EXPECT_GT(first->faults_injected, 0u) << "seed=" << seed;
    EXPECT_GT(first->ship_retries, 0u) << "seed=" << seed;

    auto replay = RunChaosScenario(options);
    ASSERT_TRUE(replay.ok()) << replay.status().ToString();
    EXPECT_TRUE(replay->bit_identical()) << "seed=" << seed;
    // The replay assertion: same seed, same faults, same counters — the
    // whole failure interleaving is reproducible from one integer.
    EXPECT_EQ(replay->fault_stats, first->fault_stats) << "seed=" << seed;
    EXPECT_EQ(replay->fault_hits, first->fault_hits);
    EXPECT_EQ(replay->faults_injected, first->faults_injected);
    EXPECT_EQ(replay->ship_retries, first->ship_retries);
    EXPECT_EQ(replay->duplicate_acks, first->duplicate_acks);
    EXPECT_EQ(replay->federated, first->federated);
  }
}

// Durable spooling composes with chaos: the same sweep invariants hold
// when every cut is write-ahead logged, and the spool drains to empty
// as the faults are retried through.
TEST(ChaosScenarioTest, SpooledRunSurvivesFaultScheduleBitIdentical) {
  ChaosScenarioOptions options = SmallScenario(/*fault_seed=*/37,
                                               /*rate=*/0.2);
  options.max_faults = 6;
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "ldpjs_chaos_spool";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  options.spool_dir = dir.string();
  auto result = RunChaosScenario(options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->bit_identical());
  EXPECT_GT(result->faults_injected, 0u);
  EXPECT_GT(result->spool_bytes_written, 0u);
  EXPECT_EQ(result->spool_errors, 0u);
  // Everything shipped: both regions' spools compacted to bare headers.
  for (int region = 0; region < 2; ++region) {
    EXPECT_EQ(std::filesystem::file_size(
                  dir / ("region-" + std::to_string(region) + ".spool")),
              16u)
        << "region " << region;
  }
}

// A corrupt transport header on an EPOCH_PUSH must be rejected by the
// central's framing layer before touching a lane — never silently
// merged — and the retry on a fresh session lands exactly once. This is
// the targeted version of what the seeded sweep relies on: injected
// corruption is always detectable.
TEST(ChaosScenarioTest, CorruptPushHeaderRejectedThenRetriedExactlyOnce) {
  const SketchParams params = TestParams();
  const double epsilon = 2.0;
  LdpJoinSketchClient client(params, epsilon);
  std::vector<uint64_t> values(400);
  for (size_t i = 0; i < values.size(); ++i) values[i] = i % 50;
  std::vector<LdpReport> reports(values.size());
  Xoshiro256 rng(44);
  client.PerturbBatch(values, reports, rng);
  LdpJoinSketchServer epoch_sketch(params, epsilon);
  epoch_sketch.AbsorbBatch(reports);
  const std::vector<uint8_t> snapshot = epoch_sketch.Serialize();

  FaultInjector injector;
  // Hit 0 on ".send" is the HELLO; hit 1 is the EPOCH_PUSH. Flip the
  // frame type byte (header index 4).
  injector.AddRule("cor.up.send", /*hit=*/1, FaultKind::kCorrupt,
                   /*param=*/4);
  ScopedFaultInjection scope(&injector);

  CentralNodeOptions central_options;
  CentralNode central(params, epsilon, central_options);
  ASSERT_TRUE(central.Start().ok());

  FrameSender::Options sender_options;
  sender_options.fault_site = "cor.up";
  sender_options.recv_timeout_seconds = 1;
  {
    auto sender = FrameSender::Connect("127.0.0.1", central.port(), params,
                                       epsilon, sender_options);
    ASSERT_TRUE(sender.ok());
    auto pushed = sender->PushEpochSnapshot(1, 0, snapshot);
    EXPECT_FALSE(pushed.ok());  // detected, not merged
  }
  {  // The retry (same region, same epoch) on a fresh session.
    auto sender = FrameSender::Connect("127.0.0.1", central.port(), params,
                                       epsilon, sender_options);
    ASSERT_TRUE(sender.ok());
    auto pushed = sender->PushEpochSnapshot(1, 0, snapshot);
    ASSERT_TRUE(pushed.ok()) << pushed.status().ToString();
    EXPECT_EQ(pushed->code, EpochPushAckCode::kApplied);
    ASSERT_TRUE(sender->Finish().ok());
  }
  central.Stop();
  const NetMetrics metrics = central.metrics();
  EXPECT_GE(metrics.corrupt_frames_rejected, 1u);
  ASSERT_EQ(metrics.regions.size(), 1u);
  EXPECT_EQ(metrics.regions[0].epochs_applied, 1u);  // exactly once
  LdpJoinSketchServer federated = central.Finalize();
  LdpJoinSketchServer direct(params, epsilon);
  direct.AbsorbBatch(reports);
  direct.Finalize();
  EXPECT_EQ(federated.Serialize(), direct.Serialize());
}

// A silently dropped EPOCH_PUSH (bytes vanish, connection stays up) is
// the fault only a receive deadline can turn into progress: the sender
// times out waiting for the ack instead of hanging forever, and the
// retry delivers exactly once.
TEST(ChaosScenarioTest, DroppedPushHitsRecvDeadlineThenRetriesExactlyOnce) {
  const SketchParams params = TestParams();
  const double epsilon = 2.0;
  LdpJoinSketchClient client(params, epsilon);
  std::vector<uint64_t> values(300);
  for (size_t i = 0; i < values.size(); ++i) values[i] = i % 40;
  std::vector<LdpReport> reports(values.size());
  Xoshiro256 rng(45);
  client.PerturbBatch(values, reports, rng);
  LdpJoinSketchServer epoch_sketch(params, epsilon);
  epoch_sketch.AbsorbBatch(reports);
  const std::vector<uint8_t> snapshot = epoch_sketch.Serialize();

  FaultInjector injector;
  injector.AddRule("drop.up.send", /*hit=*/1, FaultKind::kDrop);
  ScopedFaultInjection scope(&injector);

  CentralNodeOptions central_options;
  CentralNode central(params, epsilon, central_options);
  ASSERT_TRUE(central.Start().ok());

  FrameSender::Options sender_options;
  sender_options.fault_site = "drop.up";
  sender_options.recv_timeout_seconds = 1;
  {
    auto sender = FrameSender::Connect("127.0.0.1", central.port(), params,
                                       epsilon, sender_options);
    ASSERT_TRUE(sender.ok());
    auto pushed = sender->PushEpochSnapshot(2, 0, snapshot);
    ASSERT_FALSE(pushed.ok());
    // The deadline fired — a dropped frame is a retry, not a deadlock.
    EXPECT_EQ(pushed.status().code(), StatusCode::kDeadlineExceeded);
  }
  {
    auto sender = FrameSender::Connect("127.0.0.1", central.port(), params,
                                       epsilon, sender_options);
    ASSERT_TRUE(sender.ok());
    auto pushed = sender->PushEpochSnapshot(2, 0, snapshot);
    ASSERT_TRUE(pushed.ok()) << pushed.status().ToString();
    EXPECT_EQ(pushed->code, EpochPushAckCode::kApplied);
    ASSERT_TRUE(sender->Finish().ok());
  }
  central.Stop();
  ASSERT_EQ(central.metrics().regions.size(), 1u);
  EXPECT_EQ(central.metrics().regions[0].epochs_applied, 1u);
  LdpJoinSketchServer federated = central.Finalize();
  LdpJoinSketchServer direct(params, epsilon);
  direct.AbsorbBatch(reports);
  direct.Finalize();
  EXPECT_EQ(federated.Serialize(), direct.Serialize());
}

// A straggling region must hold the aligned frontier back (never skew
// the window), the frontier must advance monotonically as it catches
// up, and its lag is bounded by the straggler's own high-water.
TEST(ChaosScenarioTest, StragglerHoldsFrontierMonotoneWithBoundedLag) {
  const SketchParams params = TestParams();
  const double epsilon = 2.0;
  LdpJoinSketchClient client(params, epsilon);
  std::vector<uint64_t> values(500);
  for (size_t i = 0; i < values.size(); ++i) values[i] = i % 100;
  std::vector<LdpReport> reports(values.size());
  Xoshiro256 rng(12);
  client.PerturbBatch(values, reports, rng);
  LdpJoinSketchServer epoch_sketch(params, epsilon);
  epoch_sketch.AbsorbBatch(reports);
  const std::vector<uint8_t> snapshot = epoch_sketch.Serialize();

  CentralNodeOptions options;
  options.window_epochs = 2;
  options.window_expected_regions = 2;
  CentralNode central(params, epsilon, options);
  ASSERT_TRUE(central.Start().ok());
  auto sender =
      FrameSender::Connect("127.0.0.1", central.port(), params, epsilon);
  ASSERT_TRUE(sender.ok());

  // Region 0 races ahead to epoch 2; region 1 straggles at epoch 0.
  for (uint64_t e = 0; e <= 2; ++e) {
    ASSERT_TRUE(sender->PushEpochSnapshot(0, e, snapshot).ok());
  }
  ASSERT_TRUE(sender->PushEpochSnapshot(1, 0, snapshot).ok());
  ASSERT_TRUE(central.window()->aligned());
  EXPECT_EQ(central.window()->frontier(), 0u);  // held back by the straggler
  EXPECT_GT(central.window()->epochs_pending(), 0u);  // ahead, not lost

  // The straggler catches up one epoch: the frontier advances exactly
  // that far — monotone, lag bounded by the straggler's high-water.
  ASSERT_TRUE(sender->PushEpochSnapshot(1, 1, snapshot).ok());
  EXPECT_EQ(central.window()->frontier(), 1u);
  ASSERT_TRUE(sender->PushEpochSnapshot(1, 2, snapshot).ok());
  EXPECT_EQ(central.window()->frontier(), 2u);
  EXPECT_EQ(central.window()->epochs_pending(), 0u);
  // W=2 slid past epoch 0: its snapshots were subtracted back out.
  EXPECT_GT(central.window()->epochs_expired(), 0u);
  ASSERT_TRUE(sender->Finish().ok());
  central.Stop();
}

// A reconnect storm (many short-lived sessions) grows counters, never
// memory: the departed-connection table stays bounded, with the
// overflow folded into an accumulator row.
TEST(ChaosScenarioTest, ReconnectStormKeepsDepartedTableBounded) {
  const SketchParams params = TestParams();
  const double epsilon = 2.0;
  FrameServerOptions options;
  FrameServer server(params, epsilon, options);
  ASSERT_TRUE(server.Start().ok());

  constexpr int kStorm = 100;
  for (int i = 0; i < kStorm; ++i) {
    auto sender =
        FrameSender::Connect("127.0.0.1", server.port(), params, epsilon);
    ASSERT_TRUE(sender.ok()) << sender.status().ToString();
    ASSERT_TRUE(sender->Finish().ok());
  }
  server.Stop();
  const NetMetrics metrics = server.metrics();
  EXPECT_EQ(metrics.connections_accepted, static_cast<uint64_t>(kStorm));
  EXPECT_LE(metrics.connections.size(), 64u);  // bounded rows
  EXPECT_GE(metrics.connections_folded, 36u);  // the rest folded, not lost
  // Folded totals stay monotone: every session's HELLO+BYE still counts.
  uint64_t frames = 0;
  for (const auto& conn : metrics.connections) frames += conn.frames_received;
  EXPECT_GE(frames, metrics.connections.size());
}

/// The fd-exhaustion scenario, run in a death-test child because
/// RLIMIT_NOFILE is process-wide. Returns what went wrong, or "" when the
/// server counted the failed accepts as transient and served a new session
/// once descriptors were free again.
std::string AcceptAgainAfterFdExhaustion() {
  const SketchParams params = TestParams();
  const double epsilon = 2.0;
  FrameServer server(params, epsilon, FrameServerOptions{});
  if (!server.Start().ok()) return "server did not start";
  {
    // One session and one metrics read while descriptors are plentiful.
    // UBSan checks a virtual call the first time it sees the object's type
    // by writing the vtable into a pipe, so with no fd left it reports a
    // false "does not point to an object" (e.g. on a worker's first start).
    auto warm = FrameSender::Connect("127.0.0.1", server.port(), params,
                                     epsilon);
    if (!warm.ok() || !warm->Finish().ok()) return "warm-up session failed";
  }
  NetMetrics metrics = server.metrics();
  // Cap the fd table a little above what is open, then fill it.
  int highest_fd = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    highest_fd =
        std::max(highest_fd, std::stoi(entry.path().filename().string()));
  }
  rlimit limit{};
  if (getrlimit(RLIMIT_NOFILE, &limit) != 0) return "getrlimit failed";
  limit.rlim_cur = static_cast<rlim_t>(highest_fd) + 16;
  if (setrlimit(RLIMIT_NOFILE, &limit) != 0) return "setrlimit failed";
  std::vector<int> fillers;
  int fd;
  while ((fd = open("/dev/null", O_RDONLY)) >= 0) fillers.push_back(fd);
  if (errno != EMFILE) return std::string("fill: ") + std::strerror(errno);
  // Linux reserves a descriptor before accept() blocks, so each idle worker
  // still accepts one client. Free one descriptor per client until the
  // reservations are spent and an accept() finds the table full.
  std::vector<Socket> clients;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (metrics.accept_failures == 0 && metrics.accept_fatal == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    if (clients.size() <= FrameServer::kMaxIdleWorkers && !fillers.empty()) {
      close(fillers.back());
      fillers.pop_back();
      auto client = Socket::ConnectTcp("127.0.0.1", server.port());
      if (!client.ok()) return "connect: " + client.status().ToString();
      clients.push_back(std::move(*client));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    metrics = server.metrics();
  }
  if (metrics.accept_fatal != 0) return "a full fd table ended accepting";
  if (metrics.accept_failures == 0) return "no failed accept was counted";
  for (int filler : fillers) close(filler);
  // The backing-off worker retries within the 200 ms backoff cap.
  FrameSender::Options sender_options;
  sender_options.recv_timeout_seconds = 2;
  auto sender = FrameSender::Connect("127.0.0.1", server.port(), params,
                                     epsilon, sender_options);
  if (!sender.ok()) return "HELLO after the fds freed: " +
                           sender.status().ToString();
  if (!sender->Finish().ok()) return "BYE after the fds freed failed";
  server.Stop();
  return server.metrics().accept_fatal == 0 ? "" : "accept_fatal counted";
}

// A full fd table fails accept() at once. It is transient: the server
// backs off, retries, and serves new sessions once descriptors free up.
TEST(ChaosScenarioTest, ReaderWorkersAcceptAgainAfterFdExhaustion) {
  // The child re-executes this binary instead of forking a process that
  // already runs threads (the ThreadSanitizer job refuses the latter).
  const std::string style = ::testing::GTEST_FLAG(death_test_style);
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(
      {
        const std::string error = AcceptAgainAfterFdExhaustion();
        std::fprintf(stderr, "%s\n", error.c_str());
        std::exit(error.empty() ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
  ::testing::GTEST_FLAG(death_test_style) = style;
}

// The idle-connection watchdog: a client that completes the handshake
// and then goes silent is reaped within the configured deadline — its
// fd closed and its reader freed, the reap counted.
TEST(ChaosScenarioTest, HungClientReapedWithinIdleDeadline) {
  const SketchParams params = TestParams();
  const double epsilon = 2.0;
  FrameServerOptions options;
  options.idle_timeout_seconds = 1;
  FrameServer server(params, epsilon, options);
  ASSERT_TRUE(server.Start().ok());

  auto hung =
      FrameSender::Connect("127.0.0.1", server.port(), params, epsilon);
  ASSERT_TRUE(hung.ok());
  // Send nothing. The server must cut the connection on its own.
  bool reaped = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline) {
    if (server.metrics().idle_reaped >= 1) {
      reaped = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_TRUE(reaped) << "idle connection was not reaped within 5s "
                      << "(deadline was 1s)";
  server.Stop();
  EXPECT_GE(server.metrics().idle_reaped, 1u);
}

}  // namespace
}  // namespace ldpjs
