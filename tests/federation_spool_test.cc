// Durable regional spooling: the write-ahead log that makes a regional
// crash lose zero epochs. Unit tests pin the WAL format's recovery
// semantics (round-trip, compaction, torn-tail truncation, region
// mismatch refusal); the end-to-end tests kill a regional node with
// un-shipped snapshots and prove the restarted incarnation resumes from
// the spool to a federated estimate bit-identical to a run that never
// crashed — including the exactly-once resolution of an epoch whose
// push merged but whose ack died with the process.
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/socket.h"
#include "core/ldp_join_sketch.h"
#include "federation/central_node.h"
#include "federation/regional_node.h"
#include "federation/snapshot_spool.h"
#include "net/frame_sender.h"
#include "obs/metrics.h"

namespace ldpjs {
namespace {

SketchParams TestParams() {
  SketchParams params;
  params.k = 6;
  params.m = 256;
  params.seed = 21;
  return params;
}

std::vector<LdpReport> PerturbColumn(const LdpJoinSketchClient& client,
                                     size_t n, uint64_t seed) {
  std::vector<uint64_t> values(n);
  for (size_t i = 0; i < n; ++i) values[i] = (i * 2654435761u) % 1000;
  std::vector<LdpReport> reports(n);
  Xoshiro256 rng(seed);
  client.PerturbBatch(values, reports, rng);
  return reports;
}

/// Fresh scratch directory per test (recreated, so reruns are clean).
std::string ScratchDir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / ("ldpjs_spool_" + name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

std::string SpoolPath(const std::string& dir, uint32_t region_id) {
  return dir + "/region-" + std::to_string(region_id) + ".spool";
}

constexpr size_t kSpoolHeaderBytes = 16;  // "LJSSPOOL" + version + region

TEST(SnapshotSpoolTest, RoundTripRecoversPendingEpochsWithAttemptFlags) {
  const std::string dir = ScratchDir("roundtrip");
  const std::vector<uint8_t> sketch0(64, 0xA0);
  const std::vector<uint8_t> sketch1(96, 0xB1);
  {
    SnapshotSpool spool;
    std::vector<SpoolEntry> recovered;
    ASSERT_TRUE(spool.Open(dir, 3, &recovered).ok());
    EXPECT_TRUE(recovered.empty());
    ASSERT_TRUE(spool.AppendSnapshot(0, sketch0).ok());
    ASSERT_TRUE(spool.AppendSnapshot(1, sketch1).ok());
    ASSERT_TRUE(spool.MarkAttempted(0).ok());
    EXPECT_GT(spool.bytes_written(), sketch0.size() + sketch1.size());
  }
  SnapshotSpool reopened;
  std::vector<SpoolEntry> recovered;
  ASSERT_TRUE(reopened.Open(dir, 3, &recovered).ok());
  ASSERT_EQ(recovered.size(), 2u);
  EXPECT_EQ(recovered[0].epoch, 0u);
  EXPECT_EQ(recovered[0].raw_sketch, sketch0);
  EXPECT_TRUE(recovered[0].attempted);  // number frozen across the crash
  EXPECT_EQ(recovered[1].epoch, 1u);
  EXPECT_EQ(recovered[1].raw_sketch, sketch1);
  EXPECT_FALSE(recovered[1].attempted);
  EXPECT_EQ(reopened.epochs_resumed(), 2u);
  EXPECT_GT(reopened.bytes_resumed(), 0u);
}

TEST(SnapshotSpoolTest, ShippedEpochsCompactAwayAndEmptySpoolShrinks) {
  const std::string dir = ScratchDir("compact");
  const std::vector<uint8_t> sketch(128, 0xCC);
  {
    SnapshotSpool spool;
    std::vector<SpoolEntry> recovered;
    ASSERT_TRUE(spool.Open(dir, 9, &recovered).ok());
    ASSERT_TRUE(spool.AppendSnapshot(0, sketch).ok());
    ASSERT_TRUE(spool.AppendSnapshot(1, sketch).ok());
    ASSERT_TRUE(spool.MarkShipped(0).ok());
    ASSERT_TRUE(spool.MarkShipped(1).ok());
    // The live set emptied: the spool truncates back to its header
    // instead of growing with the region's lifetime.
    EXPECT_EQ(std::filesystem::file_size(SpoolPath(dir, 9)),
              kSpoolHeaderBytes);
  }
  // Renumber records survive a cycle too: spool one entry, renumber it,
  // and recovery must surface the new number.
  {
    SnapshotSpool spool;
    std::vector<SpoolEntry> recovered;
    ASSERT_TRUE(spool.Open(dir, 9, &recovered).ok());
    EXPECT_TRUE(recovered.empty());  // shipped epochs stayed gone
    ASSERT_TRUE(spool.AppendSnapshot(0, sketch).ok());
    ASSERT_TRUE(spool.RecordRenumber(0, 7).ok());
  }
  SnapshotSpool reopened;
  std::vector<SpoolEntry> recovered;
  ASSERT_TRUE(reopened.Open(dir, 9, &recovered).ok());
  ASSERT_EQ(recovered.size(), 1u);
  EXPECT_EQ(recovered[0].epoch, 7u);
  // Recovery compacted: the reopened file holds exactly the live entry.
  EXPECT_LT(std::filesystem::file_size(SpoolPath(dir, 9)),
            kSpoolHeaderBytes + 2 * (sketch.size() + 64));
}

TEST(SnapshotSpoolTest, TornTailAndCorruptRecordsTruncatedAtRecovery) {
  const std::string dir = ScratchDir("torn");
  const std::vector<uint8_t> sketch(80, 0x5A);
  {
    SnapshotSpool spool;
    std::vector<SpoolEntry> recovered;
    ASSERT_TRUE(spool.Open(dir, 1, &recovered).ok());
    ASSERT_TRUE(spool.AppendSnapshot(0, sketch).ok());
    ASSERT_TRUE(spool.AppendSnapshot(1, sketch).ok());
  }
  const std::string path = SpoolPath(dir, 1);

  {  // A crash mid-append tears the tail: a half-written record.
    std::ofstream torn(path, std::ios::binary | std::ios::app);
    const char garbage[] = {0x40, 0x00, 0x00, 0x00, 0x01, 0x77};
    torn.write(garbage, sizeof(garbage));
  }
  {
    SnapshotSpool spool;
    std::vector<SpoolEntry> recovered;
    ASSERT_TRUE(spool.Open(dir, 1, &recovered).ok());
    ASSERT_EQ(recovered.size(), 2u);  // both intact records survive
  }

  {  // Flip the last byte (inside the final record's checksum): that
     // record is dropped, everything before it survives.
    std::fstream flip(path,
                      std::ios::binary | std::ios::in | std::ios::out);
    flip.seekg(-1, std::ios::end);
    char byte = 0;
    flip.get(byte);
    flip.seekp(-1, std::ios::end);
    flip.put(static_cast<char>(byte ^ 0x01));
  }
  SnapshotSpool spool;
  std::vector<SpoolEntry> recovered;
  ASSERT_TRUE(spool.Open(dir, 1, &recovered).ok());
  ASSERT_EQ(recovered.size(), 1u);
  EXPECT_EQ(recovered[0].epoch, 0u);
  EXPECT_EQ(recovered[0].raw_sketch, sketch);
}

TEST(SnapshotSpoolTest, TraceContextSurvivesRecoveryAndCompaction) {
  const std::string dir = ScratchDir("trace");
  const std::vector<uint8_t> sketch(48, 0xD4);
  {
    SnapshotSpool spool;
    std::vector<SpoolEntry> recovered;
    ASSERT_TRUE(spool.Open(dir, 8, &recovered).ok());
    ASSERT_TRUE(spool.AppendSnapshot(0, sketch).ok());
    ASSERT_TRUE(spool.RecordTrace(0, 0xABCDEF, 123456789).ok());
    ASSERT_TRUE(spool.AppendSnapshot(1, sketch).ok());  // untraced epoch
  }
  {
    SnapshotSpool reopened;
    std::vector<SpoolEntry> recovered;
    ASSERT_TRUE(reopened.Open(dir, 8, &recovered).ok());
    ASSERT_EQ(recovered.size(), 2u);
    EXPECT_EQ(recovered[0].trace_id, 0xABCDEFu);
    EXPECT_EQ(recovered[0].origin_ns, 123456789u);
    EXPECT_EQ(recovered[1].trace_id, 0u);  // untraced stays untraced
    EXPECT_EQ(recovered[1].origin_ns, 0u);
  }
  // The first reopen compacted the file; the trace must have been
  // re-emitted with its epoch, so a SECOND recovery still sees it.
  SnapshotSpool again;
  std::vector<SpoolEntry> recovered;
  ASSERT_TRUE(again.Open(dir, 8, &recovered).ok());
  ASSERT_EQ(recovered.size(), 2u);
  EXPECT_EQ(recovered[0].trace_id, 0xABCDEFu);
  EXPECT_EQ(recovered[0].origin_ns, 123456789u);
}

TEST(SnapshotSpoolTest, RefusesASpoolBelongingToAnotherRegion) {
  const std::string dir = ScratchDir("region_mismatch");
  {
    SnapshotSpool spool;
    std::vector<SpoolEntry> recovered;
    ASSERT_TRUE(spool.Open(dir, 4, &recovered).ok());
    ASSERT_TRUE(spool.AppendSnapshot(0, std::vector<uint8_t>(32, 1)).ok());
  }
  // Masquerade region 4's spool as region 5's.
  std::filesystem::copy_file(SpoolPath(dir, 4), SpoolPath(dir, 5));
  SnapshotSpool spool;
  std::vector<SpoolEntry> recovered;
  const Status opened = spool.Open(dir, 5, &recovered);
  EXPECT_FALSE(opened.ok());
  EXPECT_EQ(opened.code(), StatusCode::kCorruption);
}

// The tentpole durability scenario: a regional node is killed mid-run
// with two un-shipped epochs (the central was unreachable), its spool
// tail is torn by the crash, and a fresh incarnation on the same spool
// resumes — the final federated estimate is bit-identical to a run that
// never crashed, with zero epochs lost.
TEST(FederationSpoolTest, CrashRestartResumesUnshippedEpochsBitIdentical) {
  const std::string dir = ScratchDir("crash_restart");
  const SketchParams params = TestParams();
  const double epsilon = 2.0;
  LdpJoinSketchClient client(params, epsilon);
  const std::vector<LdpReport> first = PerturbColumn(client, 4000, 70);
  const std::vector<LdpReport> second = PerturbColumn(client, 3000, 71);

  // Reserve a port with nothing listening: the central is "down" for the
  // whole first incarnation.
  uint16_t central_port = 0;
  {
    auto probe = Socket::ListenTcp(0);
    ASSERT_TRUE(probe.ok());
    central_port = probe->local_port();
  }

  RegionalNodeOptions options;
  options.region_id = 2;
  options.central_port = central_port;
  options.spool_dir = dir;
  options.max_ship_attempts = 2;
  options.ship_backoff = {.base_micros = 1000, .cap_micros = 4000};
  {
    RegionalNode incarnation1(params, epsilon, options);
    ASSERT_TRUE(incarnation1.Start().ok());
    auto sender = FrameSender::Connect("127.0.0.1", incarnation1.port(),
                                       params, epsilon);
    ASSERT_TRUE(sender.ok());
    ASSERT_TRUE(sender->SendReports(first).ok());
    ASSERT_TRUE(sender->Ping().ok());  // ingest barrier before the cut
    EXPECT_EQ(incarnation1.CutAndShip().code(), StatusCode::kUnavailable);
    ASSERT_TRUE(sender->SendReports(second).ok());
    ASSERT_TRUE(sender->Finish().ok());
    EXPECT_EQ(incarnation1.FlushAndStop().code(), StatusCode::kUnavailable);
    EXPECT_EQ(incarnation1.pending_snapshots(), 2u);
    EXPECT_EQ(incarnation1.spool_errors(), 0u);
    // Destruction without a successful flush — the "crash". The pending
    // queue dies with the process; the spool is now the only copy.
  }
  {  // The crash also tore a half-written record onto the spool's tail.
    std::ofstream torn(SpoolPath(dir, 2), std::ios::binary | std::ios::app);
    const char garbage[] = {0x7F, 0x01, 0x00, 0x00, 0x03};
    torn.write(garbage, sizeof(garbage));
  }

  // The central comes back; the restarted incarnation recovers the two
  // epochs from the spool and ships them.
  CentralNodeOptions central_options;
  central_options.server.port = central_port;
  CentralNode central(params, epsilon, central_options);
  ASSERT_TRUE(central.Start().ok());

  {
    RegionalNode incarnation2(params, epsilon, options);
    ASSERT_TRUE(incarnation2.Start().ok());
    EXPECT_EQ(incarnation2.spool_epochs_resumed(), 2u);
    EXPECT_EQ(incarnation2.pending_snapshots(), 2u);
    ASSERT_TRUE(incarnation2.FlushAndStop().ok());
    EXPECT_EQ(incarnation2.pending_snapshots(), 0u);
    EXPECT_EQ(incarnation2.epochs_shipped(), 2u);
    const NetMetrics m = incarnation2.metrics();
    EXPECT_GT(m.spool_bytes_resumed, 0u);
    EXPECT_EQ(m.spool_epochs_resumed, 2u);
  }
  // Everything shipped: the spool compacted back to its bare header.
  EXPECT_EQ(std::filesystem::file_size(SpoolPath(dir, 2)),
            kSpoolHeaderBytes);

  central.Stop();
  LdpJoinSketchServer federated = central.Finalize();
  LdpJoinSketchServer direct(params, epsilon);
  direct.AbsorbBatch(first);
  direct.AbsorbBatch(second);
  direct.Finalize();
  EXPECT_EQ(federated.Serialize(), direct.Serialize());
  EXPECT_EQ(federated.total_reports(), first.size() + second.size());
}

// A crash-replayed epoch ships TRACED with the original client origin: the
// trace claimed at the cut is spooled (kTrace) beside the epoch, the
// restarted incarnation recovers it into the pending snapshot, and the
// replayed push carries it — so the central still produces an
// ingest-to-queryable sample spanning the ORIGINAL send, crash included.
// The restarted incarnation ingests nothing itself, so any new i2q sample
// after the restart can only come from the replayed traced push.
TEST(FederationSpoolTest, CrashReplayedEpochStillShipsTraced) {
  const std::string dir = ScratchDir("trace_replay");
  const SketchParams params = TestParams();
  const double epsilon = 2.0;
  LdpJoinSketchClient client(params, epsilon);
  const std::vector<LdpReport> reports = PerturbColumn(client, 2000, 90);

  uint16_t central_port = 0;
  {
    auto probe = Socket::ListenTcp(0);
    ASSERT_TRUE(probe.ok());
    central_port = probe->local_port();
  }

  RegionalNodeOptions options;
  options.region_id = 5;
  options.central_port = central_port;
  options.spool_dir = dir;
  options.max_ship_attempts = 2;
  options.ship_backoff = {.base_micros = 1000, .cap_micros = 4000};
  {
    RegionalNode incarnation1(params, epsilon, options);
    ASSERT_TRUE(incarnation1.Start().ok());
    FrameSender::Options traced;
    traced.trace_every = 1;  // every batch traced → the cut claims one
    auto sender = FrameSender::Connect("127.0.0.1", incarnation1.port(),
                                       params, epsilon, traced);
    ASSERT_TRUE(sender.ok());
    ASSERT_TRUE(sender->SendReports(reports).ok());
    ASSERT_TRUE(sender->Ping().ok());  // absorb barrier before the cut
    EXPECT_EQ(incarnation1.CutAndShip().code(), StatusCode::kUnavailable);
    ASSERT_TRUE(sender->Finish().ok());
    // "Crash": destruction with the traced epoch only in the spool.
  }

  CentralNodeOptions central_options;
  central_options.server.port = central_port;
  CentralNode central(params, epsilon, central_options);
  ASSERT_TRUE(central.Start().ok());
  {
    RegionalNode incarnation2(params, epsilon, options);
    ASSERT_TRUE(incarnation2.Start().ok());
    EXPECT_EQ(incarnation2.spool_epochs_resumed(), 1u);
    ASSERT_TRUE(incarnation2.FlushAndStop().ok());
    EXPECT_EQ(incarnation2.epochs_shipped(), 1u);
  }
  // The replayed push carried the recovered trace: the central's view
  // publish produced a fresh end-to-end sample.
  EXPECT_GE(central.server()
                .registry()
                .HistogramByName("ingest_to_queryable_ns")
                .count,
            1u);
  central.Stop();
}

// Exactly-once across a crash in the ambiguous window: the push merged
// at the central, but the ack — and the regional process — died before
// MarkShipped. The spool's attempted flag froze the epoch number, so
// the restarted incarnation retries the SAME (region, epoch) and the
// central's dedup resolves it to exactly-once, never double-merging.
TEST(FederationSpoolTest, AttemptedEpochRetriesAsDuplicateNotDoubleCount) {
  const std::string dir = ScratchDir("ambiguous_ack");
  const SketchParams params = TestParams();
  const double epsilon = 2.0;
  LdpJoinSketchClient client(params, epsilon);
  const std::vector<LdpReport> reports = PerturbColumn(client, 5000, 80);
  LdpJoinSketchServer epoch_sketch(params, epsilon);
  epoch_sketch.AbsorbBatch(reports);
  const std::vector<uint8_t> snapshot = epoch_sketch.Serialize();

  CentralNodeOptions central_options;
  CentralNode central(params, epsilon, central_options);
  ASSERT_TRUE(central.Start().ok());

  // Simulate the pre-crash incarnation: epoch 0 spooled, marked
  // attempted, pushed and MERGED at the central — then death before the
  // ack could be processed.
  {
    SnapshotSpool spool;
    std::vector<SpoolEntry> recovered;
    ASSERT_TRUE(spool.Open(dir, 6, &recovered).ok());
    ASSERT_TRUE(spool.AppendSnapshot(0, snapshot).ok());
    ASSERT_TRUE(spool.MarkAttempted(0).ok());
  }
  {
    auto sender =
        FrameSender::Connect("127.0.0.1", central.port(), params, epsilon);
    ASSERT_TRUE(sender.ok());
    auto ack = sender->PushEpochSnapshot(6, 0, snapshot);
    ASSERT_TRUE(ack.ok());
    EXPECT_EQ(ack->code, EpochPushAckCode::kApplied);
  }

  RegionalNodeOptions options;
  options.region_id = 6;
  options.central_port = central.port();
  options.spool_dir = dir;
  RegionalNode restarted(params, epsilon, options);
  ASSERT_TRUE(restarted.Start().ok());
  EXPECT_EQ(restarted.spool_epochs_resumed(), 1u);
  ASSERT_TRUE(restarted.FlushAndStop().ok());
  // The retry resolved as a duplicate — and was NOT renumbered into a
  // fresh epoch (which would have double-counted the merged one).
  EXPECT_EQ(restarted.duplicate_acks(), 1u);
  EXPECT_EQ(restarted.epochs_renumbered(), 0u);

  central.Stop();
  LdpJoinSketchServer federated = central.Finalize();
  LdpJoinSketchServer direct(params, epsilon);
  direct.AbsorbBatch(reports);  // exactly once
  direct.Finalize();
  EXPECT_EQ(federated.Serialize(), direct.Serialize());
}

}  // namespace
}  // namespace ldpjs
