// Federated aggregation tier end-to-end: the acceptance bar is that a
// 2-tier federated estimate — N regional FrameServers shipping raw-lane
// epoch snapshots (EPOCH_PUSH) to a central aggregator — is bit-identical
// to single-node ingestion of the union of all client streams, for any
// region count, epoch schedule, shard count per tier, and mid-epoch
// regional disconnect/retry. Linear sketches make aggregation topology a
// pure throughput decision; these tests pin that it can never change an
// answer.
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/serialize.h"
#include "common/socket.h"
#include "federation/central_node.h"
#include "federation/regional_node.h"
#include "net/frame_sender.h"

namespace ldpjs {
namespace {

SketchParams TestParams(int k = 6, int m = 256, uint64_t seed = 21) {
  SketchParams params;
  params.k = k;
  params.m = m;
  params.seed = seed;
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

// The acceptance sweep: 2 regions × shards {1, 4} per tier. Eight batches
// of 4096 reports go round-robin to the regions, and each region cuts and
// ships after every batch with no ingest barrier, so every cut races the
// region's shard pumps: what has been absorbed ships in this epoch, the
// rest in the next. Any split is exact, so the central's sketch must equal
// a direct absorb of every batch, bit for bit.
TEST(FederationTest, FederatedSketchBitIdenticalToDirectAbsorbForShards) {
  const SketchParams params = TestParams();
  const double epsilon = 2.0;
  constexpr size_t kRegions = 2;
  LdpJoinSketchClient client(params, epsilon);
  std::vector<std::vector<LdpReport>> batches;
  LdpJoinSketchServer direct(params, epsilon);
  for (size_t b = 0; b < 8; ++b) {
    batches.push_back(PerturbColumn(client, 4096, 100 + b));
    direct.AbsorbBatch(batches.back());
  }
  direct.Finalize();

  for (const size_t shards : {size_t{1}, size_t{4}}) {
    CentralNodeOptions central_options;
    central_options.server.num_shards = shards;
    CentralNode central(params, epsilon, central_options);
    ASSERT_TRUE(central.Start().ok());
    std::vector<std::unique_ptr<RegionalNode>> regions;
    std::vector<FrameSender> senders;
    for (size_t r = 0; r < kRegions; ++r) {
      RegionalNodeOptions options;
      options.region_id = static_cast<uint32_t>(r);
      options.central_port = central.port();
      options.server.num_shards = shards;
      regions.push_back(
          std::make_unique<RegionalNode>(params, epsilon, options));
      ASSERT_TRUE(regions.back()->Start().ok());
      auto sender = FrameSender::Connect("127.0.0.1", regions.back()->port(),
                                         params, epsilon);
      ASSERT_TRUE(sender.ok()) << sender.status().ToString();
      senders.push_back(std::move(*sender));
    }
    for (size_t b = 0; b < batches.size(); ++b) {
      ASSERT_TRUE(senders[b % kRegions].SendReports(batches[b]).ok());
      ASSERT_TRUE(regions[b % kRegions]->CutAndShip().ok());
    }
    for (size_t r = 0; r < kRegions; ++r) {
      ASSERT_TRUE(senders[r].Finish().ok());
      ASSERT_TRUE(regions[r]->FlushAndStop().ok());
    }
    central.Stop();
    EXPECT_EQ(central.Finalize().Serialize(), direct.Serialize())
        << "shards=" << shards;
  }
}

// A mid-epoch disconnect: the central cuts the region's upstream session
// between two epochs; the next ship fails on the dead socket, reconnects,
// and re-pushes — and the final central sketch still equals a direct
// absorb of every report, bit for bit, with nothing lost or doubled.
TEST(FederationTest, MidEpochDisconnectRetriesToExactlyOnce) {
  const SketchParams params = TestParams();
  const double epsilon = 2.0;
  LdpJoinSketchClient client(params, epsilon);
  std::vector<std::vector<LdpReport>> partitions;
  for (size_t p = 0; p < 3; ++p) {
    partitions.push_back(PerturbColumn(client, 6000, 40 + p));
  }

  CentralNodeOptions central_options;
  central_options.server.num_shards = 2;
  CentralNode central(params, epsilon, central_options);
  ASSERT_TRUE(central.Start().ok());

  RegionalNodeOptions region_options;
  region_options.region_id = 7;
  region_options.central_port = central.port();
  region_options.server.num_shards = 2;
  region_options.ship_backoff = {.base_micros = 1000, .cap_micros = 4000};
  RegionalNode region(params, epsilon, region_options);
  ASSERT_TRUE(region.Start().ok());

  auto sender =
      FrameSender::Connect("127.0.0.1", region.port(), params, epsilon);
  ASSERT_TRUE(sender.ok()) << sender.status().ToString();

  // Epoch 0 ships cleanly and leaves a persistent upstream session.
  ASSERT_TRUE(sender->SendReports(partitions[0]).ok());
  ASSERT_TRUE(sender->SnapshotRawSketch().ok());  // ingest barrier
  ASSERT_TRUE(region.CutAndShip().ok());
  EXPECT_EQ(region.epochs_shipped(), 1u);

  // The central can answer estimates at the epoch boundary without
  // stopping collection.
  EXPECT_EQ(central.server().CurrentPublishedView()->reports(),
            partitions[0].size());

  // Chaos: the central kicks every client, killing the region's upstream
  // session mid-collection.
  central.server_mutable().DisconnectClients();

  // Epoch 1: the first push attempt rides the dead socket and fails; the
  // shipper reconnects and re-pushes the same epoch.
  ASSERT_TRUE(sender->SendReports(partitions[1]).ok());
  ASSERT_TRUE(sender->SnapshotRawSketch().ok());
  ASSERT_TRUE(region.CutAndShip().ok());
  EXPECT_EQ(region.epochs_shipped(), 2u);
  EXPECT_GE(region.ship_retries(), 1u);

  // Epoch 2 rides the final flush.
  ASSERT_TRUE(sender->SendReports(partitions[2]).ok());
  ASSERT_TRUE(sender->Finish().ok());
  ASSERT_TRUE(region.FlushAndStop().ok());
  EXPECT_EQ(region.pending_snapshots(), 0u);

  central.Stop();
  const NetMetrics metrics = central.metrics();
  LdpJoinSketchServer federated = central.Finalize();

  LdpJoinSketchServer direct(params, epsilon);
  size_t total = 0;
  for (const auto& partition : partitions) {
    direct.AbsorbBatch(partition);
    total += partition.size();
  }
  direct.Finalize();
  EXPECT_EQ(federated.Serialize(), direct.Serialize());
  EXPECT_EQ(federated.total_reports(), total);

  ASSERT_EQ(metrics.regions.size(), 1u);
  EXPECT_EQ(metrics.regions[0].region_id, 7u);
  EXPECT_EQ(metrics.regions[0].epochs_applied, 3u);
  EXPECT_EQ(metrics.regions[0].reports_merged, total);
}

// A retried push whose original WAS applied (the ack got lost, not the
// push) must resolve as a duplicate: the central dedups on (region, epoch)
// and never double-merges.
TEST(FederationTest, DuplicateEpochPushIsDedupedExactlyOnce) {
  const SketchParams params = TestParams();
  const double epsilon = 1.5;
  LdpJoinSketchClient client(params, epsilon);
  const std::vector<LdpReport> reports = PerturbColumn(client, 5000, 9);
  LdpJoinSketchServer epoch_sketch(params, epsilon);
  epoch_sketch.AbsorbBatch(reports);
  const std::vector<uint8_t> snapshot = epoch_sketch.Serialize();

  CentralNodeOptions options;
  options.server.num_shards = 3;
  CentralNode central(params, epsilon, options);
  ASSERT_TRUE(central.Start().ok());
  auto sender =
      FrameSender::Connect("127.0.0.1", central.port(), params, epsilon);
  ASSERT_TRUE(sender.ok());

  auto first = sender->PushEpochSnapshot(3, 0, snapshot);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->code, EpochPushAckCode::kApplied);
  EXPECT_EQ(first->next_epoch, 1u);  // the ack carries the high-water sync
  auto replay = sender->PushEpochSnapshot(3, 0, snapshot);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay->code, EpochPushAckCode::kDuplicate);  // ignored
  EXPECT_EQ(replay->next_epoch, 1u);
  auto second = sender->PushEpochSnapshot(3, 1, snapshot);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->code, EpochPushAckCode::kApplied);
  EXPECT_EQ(second->next_epoch, 2u);
  ASSERT_TRUE(sender->Finish().ok());

  central.Stop();
  const NetMetrics metrics = central.metrics();
  LdpJoinSketchServer merged = central.Finalize();

  // Exactly two applications of the snapshot — not three.
  LdpJoinSketchServer direct(params, epsilon);
  direct.AbsorbBatch(reports);
  direct.AbsorbBatch(reports);
  direct.Finalize();
  EXPECT_EQ(merged.Serialize(), direct.Serialize());
  ASSERT_EQ(metrics.regions.size(), 1u);
  EXPECT_EQ(metrics.regions[0].epochs_applied, 2u);
  EXPECT_EQ(metrics.regions[0].duplicates_ignored, 1u);
  EXPECT_EQ(metrics.epoch_duplicates_ignored, 1u);
}

// A pushed sketch with mismatched params (or garbage bytes) must be
// rejected before touching a lane, and the central must survive.
TEST(FederationTest, CorruptOrMismatchedPushesRejected) {
  const SketchParams params = TestParams();
  const double epsilon = 2.0;
  CentralNodeOptions options;
  CentralNode central(params, epsilon, options);
  ASSERT_TRUE(central.Start().ok());

  {  // Garbage sketch bytes.
    auto sender =
        FrameSender::Connect("127.0.0.1", central.port(), params, epsilon);
    ASSERT_TRUE(sender.ok());
    const std::vector<uint8_t> garbage(64, 0xCD);
    auto pushed = sender->PushEpochSnapshot(1, 0, garbage);
    EXPECT_FALSE(pushed.ok());
  }
  {  // Valid sketch, wrong shape: the session params match, the pushed
     // sketch's do not.
    SketchParams other = TestParams(/*k=*/4, /*m=*/128);
    LdpJoinSketchServer wrong(other, epsilon);
    auto sender =
        FrameSender::Connect("127.0.0.1", central.port(), params, epsilon);
    ASSERT_TRUE(sender.ok());
    auto pushed = sender->PushEpochSnapshot(1, 0, wrong.Serialize());
    EXPECT_FALSE(pushed.ok());
    EXPECT_EQ(pushed.status().code(), StatusCode::kFailedPrecondition);
  }
  {  // Same shape, another ε: lanes of two budgets must never merge.
    LdpJoinSketchServer other_budget(params, 2 * epsilon);
    auto sender =
        FrameSender::Connect("127.0.0.1", central.port(), params, epsilon);
    ASSERT_TRUE(sender.ok());
    auto pushed = sender->PushEpochSnapshot(1, 0, other_budget.Serialize());
    EXPECT_EQ(pushed.status().code(), StatusCode::kFailedPrecondition);
  }

  // The central still takes a well-formed push afterwards.
  LdpJoinSketchClient client(params, epsilon);
  const std::vector<LdpReport> reports = PerturbColumn(client, 3000, 2);
  LdpJoinSketchServer epoch_sketch(params, epsilon);
  epoch_sketch.AbsorbBatch(reports);
  auto sender =
      FrameSender::Connect("127.0.0.1", central.port(), params, epsilon);
  ASSERT_TRUE(sender.ok());
  auto pushed = sender->PushEpochSnapshot(2, 0, epoch_sketch.Serialize());
  ASSERT_TRUE(pushed.ok()) << pushed.status().ToString();
  ASSERT_TRUE(sender->Finish().ok());
  central.Stop();
  const NetMetrics metrics = central.metrics();
  EXPECT_EQ(metrics.epochs_applied, 1u);
  EXPECT_GE(metrics.corrupt_frames_rejected, 1u);
  LdpJoinSketchServer merged = central.Finalize();
  LdpJoinSketchServer direct(params, epsilon);
  direct.AbsorbBatch(reports);
  direct.Finalize();
  EXPECT_EQ(merged.Serialize(), direct.Serialize());
}

/// A raw epoch snapshot declaring `reports` reports, every one on lane
/// (0, 0): the most a decodable sketch can put on one lane.
std::vector<uint8_t> OneLaneSnapshot(const SketchParams& params,
                                     double epsilon, uint64_t reports) {
  const std::vector<uint8_t> empty =
      LdpJoinSketchServer(params, epsilon).Serialize();
  const size_t total_at = 4 + 1 + 4 + 4 + 8 + 8;  // magic .. epsilon
  BinaryWriter writer;
  for (size_t i = 0; i < total_at; ++i) writer.PutU8(empty[i]);
  writer.PutU64(reports);
  writer.PutU8(0);  // raw lanes
  std::vector<int64_t> lanes(static_cast<size_t>(params.k) * params.m, 0);
  lanes[0] = static_cast<int64_t>(reports);
  writer.PutI64Vector(lanes);
  return writer.TakeBuffer();
}

// Two snapshots of 2^62 reports on one lane would merge into a lane of
// 2^63, past INT64_MAX. The central refuses any push that takes the reports
// pushed to it past 2^62, before it reserves the epoch, and keeps serving.
TEST(FederationTest, PushesPastTheReportBoundAreRefused) {
  const SketchParams params = TestParams();
  const double epsilon = 2.0;
  CentralNodeOptions options;
  CentralNode central(params, epsilon, options);
  ASSERT_TRUE(central.Start().ok());
  const uint64_t bound = uint64_t{1} << 62;
  const std::vector<uint8_t> full = OneLaneSnapshot(params, epsilon, bound);
  {
    auto sender =
        FrameSender::Connect("127.0.0.1", central.port(), params, epsilon);
    ASSERT_TRUE(sender.ok());
    auto pushed = sender->PushEpochSnapshot(1, 0, full);
    ASSERT_TRUE(pushed.ok()) << pushed.status().ToString();
  }
  for (uint32_t region : {1u, 2u, 3u}) {
    auto sender =
        FrameSender::Connect("127.0.0.1", central.port(), params, epsilon);
    ASSERT_TRUE(sender.ok());
    auto pushed = sender->PushEpochSnapshot(region, 1, full);
    EXPECT_EQ(pushed.status().code(), StatusCode::kFailedPrecondition);
  }
  {  // One report more is refused too; a heartbeat still advances epoch 1.
    auto sender =
        FrameSender::Connect("127.0.0.1", central.port(), params, epsilon);
    ASSERT_TRUE(sender.ok());
    auto one = sender->PushEpochSnapshot(
        1, 1, OneLaneSnapshot(params, epsilon, 1));
    EXPECT_EQ(one.status().code(), StatusCode::kFailedPrecondition);
  }
  auto sender =
      FrameSender::Connect("127.0.0.1", central.port(), params, epsilon);
  ASSERT_TRUE(sender.ok());
  auto heartbeat = sender->PushEpochSnapshot(1, 1, {});
  ASSERT_TRUE(heartbeat.ok()) << heartbeat.status().ToString();
  ASSERT_TRUE(sender->Finish().ok());
  central.Stop();
  const NetMetrics metrics = central.metrics();
  EXPECT_EQ(metrics.epochs_applied, 1u);
  EXPECT_EQ(metrics.corrupt_frames_rejected, 4u);
  LdpJoinSketchServer merged = central.Finalize();
  EXPECT_EQ(merged.total_reports(), bound);
  EXPECT_EQ(merged.lane(0, 0), static_cast<int64_t>(bound));
  auto pushed = LdpJoinSketchServer::Deserialize(full);
  ASSERT_TRUE(pushed.ok());
  EXPECT_EQ(merged.JoinEstimate(merged), pushed->JoinEstimate(*pushed));
}

// A restarted region (same region_id, fresh process/incarnation) must not
// have its data discarded by the central's high-water dedup: every
// incarnation starts its epochs at 0, and the connect-time sync (HELLO_OK
// carries the central's next-expected epoch) renumbers its un-attempted
// snapshots above everything the predecessor shipped.
TEST(FederationTest, RestartedRegionIncarnationIsNotDeduped) {
  const SketchParams params = TestParams();
  const double epsilon = 2.0;
  LdpJoinSketchClient client(params, epsilon);
  const std::vector<LdpReport> first = PerturbColumn(client, 5000, 60);
  const std::vector<LdpReport> second = PerturbColumn(client, 7000, 61);

  CentralNodeOptions central_options;
  CentralNode central(params, epsilon, central_options);
  ASSERT_TRUE(central.Start().ok());

  RegionalNodeOptions options;
  options.region_id = 5;
  options.central_port = central.port();
  {  // First incarnation ships and dies.
    RegionalNode incarnation1(params, epsilon, options);
    ASSERT_TRUE(incarnation1.Start().ok());
    auto sender = FrameSender::Connect("127.0.0.1", incarnation1.port(),
                                       params, epsilon);
    ASSERT_TRUE(sender.ok());
    ASSERT_TRUE(sender->SendReports(first).ok());
    ASSERT_TRUE(sender->Finish().ok());
    ASSERT_TRUE(incarnation1.FlushAndStop().ok());
  }
  {  // The "restarted" region: same id, fresh epoch sequence.
    RegionalNode incarnation2(params, epsilon, options);
    ASSERT_TRUE(incarnation2.Start().ok());
    auto sender = FrameSender::Connect("127.0.0.1", incarnation2.port(),
                                       params, epsilon);
    ASSERT_TRUE(sender.ok());
    ASSERT_TRUE(sender->SendReports(second).ok());
    ASSERT_TRUE(sender->Finish().ok());
    ASSERT_TRUE(incarnation2.FlushAndStop().ok());
    EXPECT_EQ(incarnation2.duplicate_acks(), 0u);  // nothing deduped away
    // The second incarnation numbered its cut 0 too — the connect-time
    // sync renumbered it above the predecessor's epochs instead of letting
    // the central discard it as a duplicate.
    EXPECT_EQ(incarnation2.epochs_renumbered(), 1u);
    EXPECT_EQ(incarnation2.next_epoch(), 2u);
  }

  central.Stop();
  LdpJoinSketchServer merged = central.Finalize();
  LdpJoinSketchServer direct(params, epsilon);
  direct.AbsorbBatch(first);
  direct.AbsorbBatch(second);
  direct.Finalize();
  EXPECT_EQ(merged.Serialize(), direct.Serialize());
}

// A region's forwarded FINALIZE counts once per region no matter how many
// times a lost-ack retry resends it, so a flaky region cannot end a
// multi-region collection early.
TEST(FederationTest, RegionTaggedFinalizeCountsOncePerRegion) {
  const SketchParams params = TestParams();
  const double epsilon = 2.0;
  FrameServerOptions options;
  FrameServer server(params, epsilon, options);
  ASSERT_TRUE(server.Start().ok());

  std::atomic<bool> two_regions_done{false};
  std::thread waiter([&] {
    server.WaitForFinalizeRequests(2);
    two_regions_done.store(true);
  });

  auto finalize_as = [&](uint32_t region) {
    auto sender =
        FrameSender::Connect("127.0.0.1", server.port(), params, epsilon);
    ASSERT_TRUE(sender.ok());
    ASSERT_TRUE(sender->RequestFinalizeAsRegion(region).ok());
  };
  finalize_as(0);
  finalize_as(0);  // the retry after a lost FINALIZE_OK
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(two_regions_done.load());  // one region ≠ two regions
  finalize_as(1);
  waiter.join();
  EXPECT_TRUE(two_regions_done.load());
  server.Stop();
}

// The advertised payload bound must really cover a well-formed push, and
// must be derived from the live serializer (not a hand-copied layout).
TEST(FederationTest, EpochPushPayloadBoundCoversRealPushes) {
  SketchParams params = TestParams(/*k=*/18, /*m=*/4096);
  const double epsilon = 2.0;
  LdpJoinSketchServer sketch(params, epsilon);
  const std::vector<uint8_t> payload =
      EncodeEpochPush(9, 1234, sketch.Serialize());
  EXPECT_LE(payload.size(), EpochPushPayloadBound(params));
}

// The region's own clock: at epoch_millis = 5, epochs cut and ship with no
// CutAndShip call while a client streams; once FlushAndStop returns the
// clock is stopped, so nothing more ships; and the central's sketch equals
// a direct absorb of every report, bit for bit.
TEST(FederationTest, RegionalClockShipsEpochsUntilFlushAndStop) {
  const SketchParams params = TestParams();
  const double epsilon = 2.0;
  LdpJoinSketchClient client(params, epsilon);
  LdpJoinSketchServer direct(params, epsilon);

  CentralNode central(params, epsilon, CentralNodeOptions{});
  ASSERT_TRUE(central.Start().ok());
  RegionalNodeOptions options;
  options.region_id = 3;
  options.central_port = central.port();
  options.server.num_shards = 2;
  options.epoch_millis = 5;
  RegionalNode region(params, epsilon, options);
  ASSERT_TRUE(region.Start().ok());
  auto sender =
      FrameSender::Connect("127.0.0.1", region.port(), params, epsilon);
  ASSERT_TRUE(sender.ok()) << sender.status().ToString();

  // Batches keep arriving across several periods, so cuts fall between
  // (and inside) them.
  for (size_t b = 0; b < 8; ++b) {
    const std::vector<LdpReport> batch = PerturbColumn(client, 3000, 60 + b);
    direct.AbsorbBatch(batch);
    ASSERT_TRUE(sender->SendReports(batch).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (region.epochs_shipped() < 3 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(region.epochs_shipped(), 3u);

  ASSERT_TRUE(sender->Finish().ok());
  ASSERT_TRUE(region.FlushAndStop().ok());
  const uint64_t shipped = region.epochs_shipped();
  const uint64_t next_epoch = central.metrics().regions.at(0).next_epoch;
  std::this_thread::sleep_for(std::chrono::milliseconds(40));  // 8 periods
  EXPECT_EQ(region.epochs_shipped(), shipped);
  EXPECT_EQ(central.metrics().regions.at(0).next_epoch, next_epoch);

  central.Stop();
  direct.Finalize();
  EXPECT_EQ(central.Finalize().Serialize(), direct.Serialize());
}

// An unreachable central exhausts the attempt budget with a clean
// Unavailable — and the snapshots stay pending, resuming (nothing lost)
// once the central exists.
TEST(FederationTest, UnreachableCentralRetainsSnapshotsAndResumes) {
  const SketchParams params = TestParams();
  const double epsilon = 2.0;
  LdpJoinSketchClient client(params, epsilon);
  const std::vector<LdpReport> reports = PerturbColumn(client, 4000, 13);

  // Reserve an ephemeral port for the central, then free it — the region
  // targets a port where nothing listens yet (SO_REUSEADDR makes the later
  // rebind reliable).
  uint16_t central_port = 0;
  {
    auto probe = Socket::ListenTcp(0);
    ASSERT_TRUE(probe.ok());
    central_port = probe->local_port();
  }

  RegionalNodeOptions options;
  options.region_id = 1;
  options.central_port = central_port;
  options.max_ship_attempts = 2;
  options.ship_backoff = {.base_micros = 1000, .cap_micros = 4000};
  RegionalNode region(params, epsilon, options);
  ASSERT_TRUE(region.Start().ok());
  auto sender =
      FrameSender::Connect("127.0.0.1", region.port(), params, epsilon);
  ASSERT_TRUE(sender.ok());
  ASSERT_TRUE(sender->SendReports(reports).ok());
  ASSERT_TRUE(sender->Finish().ok());

  const Status flush = region.FlushAndStop();
  EXPECT_EQ(flush.code(), StatusCode::kUnavailable);
  EXPECT_EQ(region.pending_snapshots(), 1u);
  EXPECT_EQ(region.epochs_shipped(), 0u);

  // The central comes up on that port; a second FlushAndStop resumes the
  // retained snapshot — delayed, never lost.
  CentralNodeOptions central_options;
  central_options.server.port = central_port;
  CentralNode central(params, epsilon, central_options);
  ASSERT_TRUE(central.Start().ok());
  ASSERT_TRUE(region.FlushAndStop().ok());
  EXPECT_EQ(region.pending_snapshots(), 0u);
  EXPECT_EQ(region.epochs_shipped(), 1u);

  central.Stop();
  LdpJoinSketchServer merged = central.Finalize();
  LdpJoinSketchServer direct(params, epsilon);
  direct.AbsorbBatch(reports);
  direct.Finalize();
  EXPECT_EQ(merged.Serialize(), direct.Serialize());
}

}  // namespace
}  // namespace ldpjs
