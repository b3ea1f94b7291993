// Windowed/sliding federated estimation: the acceptance bar extends the
// federation tier's exactness story with the window. Pinned invariants:
//   - the windowed federated sketch over the aligned epochs (E-W, E] is
//     bit-identical to a single node ingesting only those epochs'
//     reports, for 2 regions × shards {1,4} × W ∈ {1, 2, all};
//   - the incremental cached view (merge arrivals, subtract expiries)
//     equals a recompute-from-scratch after every arrival, expiry,
//     duplicate-push replay, and region restart;
//   - a restarted region whose epoch numbers collide with its previous
//     incarnation loses nothing (the connect-time epoch sync renumbers).
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "federation/central_node.h"
#include "federation/regional_node.h"
#include "federation/windowed_view.h"
#include "net/frame_sender.h"

namespace ldpjs {
namespace {

/// A W far above any epoch count in these tests: "all epochs", exercised
/// through the same incremental cached path as the bounded windows.
constexpr uint64_t kWindowAll = uint64_t{1} << 40;

SketchParams TestParams(int k = 6, int m = 256, uint64_t seed = 33) {
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

// The acceptance sweep: 2 regions × shards {1, 4} per tier × W ∈ {1, 2,
// all}. Batch b goes to region b % 2, and a PING barrier before each cut
// puts exactly that batch in the region's epoch b / 2. After 4 epochs per
// region the aligned frontier is E = 3: the windowed sketch must equal a
// direct absorb of the batches in (E-W, E], and the full-history finalize
// a direct absorb of every batch, bit for bit.
TEST(FederationWindowedTest, WindowedSketchEqualsSingleNodeWindowIngest) {
  const SketchParams params = TestParams();
  const double epsilon = 2.0;
  constexpr size_t kRegions = 2;
  constexpr uint64_t kEpochs = 4;
  LdpJoinSketchClient client(params, epsilon);
  std::vector<std::vector<LdpReport>> batches;
  for (size_t b = 0; b < kRegions * kEpochs; ++b) {
    batches.push_back(PerturbColumn(client, 4096, 200 + b));
  }
  auto direct_window = [&](uint64_t window) {
    LdpJoinSketchServer direct(params, epsilon);
    for (size_t b = 0; b < batches.size(); ++b) {
      const uint64_t epoch = b / kRegions;
      if (kEpochs - 1 - epoch < window) direct.AbsorbBatch(batches[b]);
    }
    direct.Finalize();
    return direct.Serialize();
  };

  for (const uint64_t window : {uint64_t{1}, uint64_t{2}, kWindowAll}) {
    for (const size_t shards : {size_t{1}, size_t{4}}) {
      CentralNodeOptions central_options;
      central_options.server.num_shards = shards;
      central_options.window_epochs = window;
      central_options.window_expected_regions = kRegions;
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
        auto sender = FrameSender::Connect(
            "127.0.0.1", regions.back()->port(), params, epsilon);
        ASSERT_TRUE(sender.ok()) << sender.status().ToString();
        senders.push_back(std::move(*sender));
      }
      for (size_t b = 0; b < batches.size(); ++b) {
        ASSERT_TRUE(senders[b % kRegions].SendReports(batches[b]).ok());
        ASSERT_TRUE(senders[b % kRegions].Ping().ok());
        ASSERT_TRUE(regions[b % kRegions]->CutAndShip().ok());
      }
      for (size_t r = 0; r < kRegions; ++r) {
        ASSERT_TRUE(senders[r].Finish().ok());
        ASSERT_TRUE(regions[r]->FlushAndStop().ok());
      }
      central.Stop();
      EXPECT_EQ(central.WindowedPublishedView()->sketch.Serialize(),
                direct_window(window))
          << "W=" << window << " shards=" << shards;
      EXPECT_EQ(central.Finalize().Serialize(), direct_window(kWindowAll))
          << "W=" << window << " shards=" << shards;
    }
  }
}

// The incremental accumulator against its own non-incremental reference,
// across arrival, frontier advance, expiry, and a duplicate-push replay —
// driven through a real CentralNode over sockets, asserting after every
// push that (a) incremental == recompute-from-scratch and (b) the window
// holds exactly the expected epochs' reports.
TEST(FederationWindowedTest, IncrementalViewEqualsRecomputeThroughout) {
  const SketchParams params = TestParams();
  const double epsilon = 1.5;
  LdpJoinSketchClient client(params, epsilon);

  // Six distinct epoch payloads, two regions × three epochs.
  std::vector<std::vector<LdpReport>> reports;
  std::vector<std::vector<uint8_t>> snapshots;
  for (size_t i = 0; i < 6; ++i) {
    reports.push_back(PerturbColumn(client, 2000 + 100 * i, 50 + i));
    LdpJoinSketchServer sketch(params, epsilon);
    sketch.AbsorbBatch(reports.back());
    snapshots.push_back(sketch.Serialize());
  }
  // snapshot index: region r epoch e → 2e + r.
  auto snap = [&](uint32_t r, uint64_t e) -> const std::vector<uint8_t>& {
    return snapshots[2 * e + r];
  };

  CentralNodeOptions options;
  options.server.num_shards = 2;
  options.finalize_after = 2;  // two regions gate the aligned frontier
  options.window_epochs = 2;
  CentralNode central(params, epsilon, options);
  ASSERT_TRUE(central.Start().ok());
  const WindowedView& view = *central.window();

  auto expect_window = [&](std::vector<std::pair<uint32_t, uint64_t>> epochs,
                           const char* at) {
    // (a) the incremental accumulator is bit-identical to re-merging the
    // stored in-window snapshots from scratch;
    EXPECT_EQ(view.RawWindow().Serialize(), view.RecomputeRaw().Serialize())
        << at;
    // (b) and to a direct absorb of exactly the expected epochs' reports.
    LdpJoinSketchServer direct(params, epsilon);
    for (const auto& [r, e] : epochs) direct.AbsorbBatch(reports[2 * e + r]);
    EXPECT_EQ(view.RawWindow().Serialize(), direct.Serialize()) << at;
    LdpJoinSketchServer finalized_direct = std::move(direct);
    finalized_direct.Finalize();
    EXPECT_EQ(central.WindowedPublishedView()->sketch.Serialize(),
              finalized_direct.Serialize())
        << at;
  };

  auto sender =
      FrameSender::Connect("127.0.0.1", central.port(), params, epsilon);
  ASSERT_TRUE(sender.ok());
  auto push = [&](uint32_t r, uint64_t e) {
    auto ack = sender->PushEpochSnapshot(r, e, snap(r, e));
    ASSERT_TRUE(ack.ok()) << ack.status().ToString();
  };

  // Region 0 races ahead: no frontier until region 1 shows up.
  push(0, 0);
  push(0, 1);
  EXPECT_FALSE(view.aligned());
  EXPECT_EQ(view.window_reports(), 0u);
  EXPECT_EQ(view.epochs_pending(), 2u);
  expect_window({}, "before alignment");

  // Region 1 arrives at epoch 0: frontier E=0, window (E-2, 0] holds both
  // regions' epoch 0; region 0's epoch 1 stays pending.
  push(1, 0);
  EXPECT_TRUE(view.aligned());
  EXPECT_EQ(view.frontier(), 0u);
  expect_window({{0, 0}, {1, 0}}, "E=0");

  // Replayed duplicate (the lost-ack retry): dedup keeps the view exact.
  push(0, 1);
  EXPECT_EQ(view.frontier(), 0u);
  expect_window({{0, 0}, {1, 0}}, "after duplicate replay");

  // Region 1 catches up to epoch 1: E=1, window holds epochs {0, 1}.
  push(1, 1);
  EXPECT_EQ(view.frontier(), 1u);
  expect_window({{0, 0}, {1, 0}, {0, 1}, {1, 1}}, "E=1");
  EXPECT_EQ(view.epochs_expired(), 0u);

  // Epoch 2 from both: E=2, window slides to {1, 2} — epoch 0 is
  // subtracted back out, bit-exactly.
  push(0, 2);
  push(1, 2);
  EXPECT_EQ(view.frontier(), 2u);
  expect_window({{0, 1}, {1, 1}, {0, 2}, {1, 2}}, "E=2");
  EXPECT_EQ(view.epochs_expired(), 2u);
  EXPECT_EQ(view.epochs_in_window(), 4u);

  ASSERT_TRUE(sender->Finish().ok());
  central.Stop();
  // The full-history finalize still covers every epoch ever applied.
  LdpJoinSketchServer all(params, epsilon);
  for (const auto& r : reports) all.AbsorbBatch(r);
  all.Finalize();
  EXPECT_EQ(central.Finalize().Serialize(), all.Serialize());
}

// Satellite regression: a restarted region incarnation whose epoch numbers
// collide with its predecessor's (both start at 0 — no wall clock to hide
// the collision) must lose NOTHING: the connect-time sync renumbers the
// colliding snapshots above the central's high-water instead of letting
// the dedup discard them, and the windowed view sees them as fresh epochs.
TEST(FederationWindowedTest, RestartCollisionRenumbersInsteadOfLosingData) {
  const SketchParams params = TestParams();
  const double epsilon = 2.0;
  LdpJoinSketchClient client(params, epsilon);
  const std::vector<LdpReport> first = PerturbColumn(client, 5000, 70);
  const std::vector<LdpReport> second = PerturbColumn(client, 6000, 71);
  const std::vector<LdpReport> third = PerturbColumn(client, 7000, 72);

  CentralNodeOptions central_options;
  central_options.finalize_after = 1;
  central_options.window_epochs = kWindowAll;
  CentralNode central(params, epsilon, central_options);
  ASSERT_TRUE(central.Start().ok());

  RegionalNodeOptions options;
  options.region_id = 9;
  options.central_port = central.port();
  {  // First incarnation ships epochs 0 and 1, then dies.
    RegionalNode incarnation1(params, epsilon, options);
    ASSERT_TRUE(incarnation1.Start().ok());
    auto sender = FrameSender::Connect("127.0.0.1", incarnation1.port(),
                                       params, epsilon);
    ASSERT_TRUE(sender.ok());
    ASSERT_TRUE(sender->SendReports(first).ok());
    ASSERT_TRUE(sender->Ping().ok());  // ingest barrier before the cut
    ASSERT_TRUE(incarnation1.CutAndShip().ok());
    ASSERT_TRUE(sender->SendReports(second).ok());
    ASSERT_TRUE(sender->Finish().ok());
    ASSERT_TRUE(incarnation1.FlushAndStop().ok());
    EXPECT_EQ(incarnation1.epochs_shipped(), 2u);
    EXPECT_EQ(incarnation1.epochs_renumbered(), 0u);
  }
  {  // The restart: same region_id, epochs start at 0 again — a collision
     // the old wall-clock numbering only dodged probabilistically.
    RegionalNode incarnation2(params, epsilon, options);
    ASSERT_TRUE(incarnation2.Start().ok());
    auto sender = FrameSender::Connect("127.0.0.1", incarnation2.port(),
                                       params, epsilon);
    ASSERT_TRUE(sender.ok());
    ASSERT_TRUE(sender->SendReports(third).ok());
    ASSERT_TRUE(sender->Finish().ok());
    ASSERT_TRUE(incarnation2.FlushAndStop().ok());
    EXPECT_EQ(incarnation2.duplicate_acks(), 0u);  // not deduped away
    EXPECT_EQ(incarnation2.epochs_renumbered(), 1u);  // 0 → 2
    EXPECT_EQ(incarnation2.next_epoch(), 3u);
  }

  // No snapshot was lost: the window (W=all) holds every report from both
  // incarnations, and the incremental view still equals its recompute.
  const WindowedView& view = *central.window();
  EXPECT_EQ(view.frontier(), 2u);
  EXPECT_EQ(view.window_reports(), first.size() + second.size() + third.size());
  EXPECT_EQ(view.RawWindow().Serialize(), view.RecomputeRaw().Serialize());

  central.Stop();
  LdpJoinSketchServer merged = central.Finalize();
  LdpJoinSketchServer direct(params, epsilon);
  direct.AbsorbBatch(first);
  direct.AbsorbBatch(second);
  direct.AbsorbBatch(third);
  direct.Finalize();
  EXPECT_EQ(merged.Serialize(), direct.Serialize());
}

// The cached finalized view: clean queries return the cached result (equal
// bit for bit to a fresh finalize of the raw window), and a new epoch
// invalidates it.
TEST(FederationWindowedTest, FinalizedViewCachesUntilDirty) {
  const SketchParams params = TestParams();
  const double epsilon = 2.0;
  LdpJoinSketchClient client(params, epsilon);
  WindowedView view(params, epsilon, /*window_epochs=*/3,
                    /*expected_regions=*/1);

  LdpJoinSketchServer epoch0(params, epsilon);
  epoch0.AbsorbBatch(PerturbColumn(client, 3000, 80));
  LdpJoinSketchServer epoch0_consumed = epoch0;
  view.OnEpochApplied(0, 0, &epoch0_consumed);
  // The store took the lanes; the moved-from snapshot keeps its shape.
  EXPECT_EQ(epoch0_consumed.params().k, params.k);

  const LdpJoinSketchServer first_read = view.Published()->sketch;
  const LdpJoinSketchServer second_read = view.Published()->sketch;  // cached
  EXPECT_EQ(first_read.Serialize(), second_read.Serialize());
  LdpJoinSketchServer fresh = view.RawWindow();
  fresh.Finalize();
  EXPECT_EQ(first_read.Serialize(), fresh.Serialize());
  // A publish copies the accumulator, so it shares its hash tables.
  EXPECT_EQ(view.Published()->sketch.row_hashes().data(),
            fresh.row_hashes().data());

  LdpJoinSketchServer epoch1(params, epsilon);
  epoch1.AbsorbBatch(PerturbColumn(client, 4000, 81));
  LdpJoinSketchServer epoch1_consumed = epoch1;
  view.OnEpochApplied(0, 1, &epoch1_consumed);
  // A new epoch republished: the next read sees the fresh view.
  const LdpJoinSketchServer third_read = view.Published()->sketch;
  EXPECT_EQ(third_read.total_reports(),
            epoch0.total_reports() + epoch1.total_reports());
  LdpJoinSketchServer both = view.RawWindow();
  both.Finalize();
  EXPECT_EQ(third_read.Serialize(), both.Serialize());
}

// A region first heard from AFTER the frontier aligned (more real regions
// than `expected_regions`) must never drag the frontier backwards: epochs
// already expired out of the accumulator cannot be restored, so a
// regressed window would silently hold the wrong epoch set. The late
// region joins the window going forward instead.
TEST(FederationWindowedTest, LateRegionCannotRegressTheFrontier) {
  const SketchParams params = TestParams();
  const double epsilon = 2.0;
  LdpJoinSketchClient client(params, epsilon);
  auto epoch_sketch = [&](size_t n, uint64_t seed) {
    LdpJoinSketchServer sketch(params, epsilon);
    sketch.AbsorbBatch(PerturbColumn(client, n, seed));
    return sketch;
  };

  WindowedView view(params, epsilon, /*window_epochs=*/2,
                    /*expected_regions=*/1);
  std::vector<LdpJoinSketchServer> a;
  for (uint64_t e = 0; e <= 5; ++e) {
    a.push_back(epoch_sketch(1000 + 10 * e, 90 + e));
    LdpJoinSketchServer consumed = a.back();  // the view steals its copy
    view.OnEpochApplied(0, e, &consumed);
  }
  EXPECT_EQ(view.frontier(), 5u);  // aligned on region 0 alone
  EXPECT_EQ(view.epochs_expired(), 4u);

  // A second, unexpected region appears at epoch 0: the frontier must
  // hold at 5, its out-of-window epoch is dropped, and the accumulator is
  // unchanged — still exactly region 0's epochs {4, 5}.
  LdpJoinSketchServer late0 = epoch_sketch(2000, 96);
  view.OnEpochApplied(1, 0, &late0);
  EXPECT_EQ(view.frontier(), 5u);
  LdpJoinSketchServer expected(params, epsilon);
  expected.Merge(a[4]);
  expected.Merge(a[5]);
  EXPECT_EQ(view.RawWindow().Serialize(), expected.Serialize());
  EXPECT_EQ(view.RawWindow().Serialize(), view.RecomputeRaw().Serialize());

  // An in-window push from the late region merges; the frontier advances
  // again only once the late region passes it.
  const LdpJoinSketchServer late5 = epoch_sketch(2500, 97);
  LdpJoinSketchServer late5_consumed = late5;
  view.OnEpochApplied(1, 5, &late5_consumed);
  EXPECT_EQ(view.frontier(), 5u);
  expected.Merge(late5);
  EXPECT_EQ(view.RawWindow().Serialize(), expected.Serialize());
  EXPECT_EQ(view.RawWindow().Serialize(), view.RecomputeRaw().Serialize());
}

// An idle region must not freeze the aligned frontier: its empty cuts
// ship as coalesced heartbeats that advance the central's high-water for
// it, so the active regions' epochs keep entering (and leaving) the
// window.
TEST(FederationWindowedTest, IdleRegionHeartbeatsKeepTheFrontierMoving) {
  const SketchParams params = TestParams();
  const double epsilon = 2.0;
  LdpJoinSketchClient client(params, epsilon);

  CentralNodeOptions central_options;
  central_options.finalize_after = 2;
  central_options.window_epochs = 2;
  CentralNode central(params, epsilon, central_options);
  ASSERT_TRUE(central.Start().ok());

  auto make_region = [&](uint32_t id) {
    RegionalNodeOptions options;
    options.region_id = id;
    options.central_port = central.port();
    return std::make_unique<RegionalNode>(params, epsilon, options);
  };
  auto active = make_region(0);
  auto idle = make_region(1);
  ASSERT_TRUE(active->Start().ok());
  ASSERT_TRUE(idle->Start().ok());

  auto sender =
      FrameSender::Connect("127.0.0.1", active->port(), params, epsilon);
  ASSERT_TRUE(sender.ok());

  std::vector<std::vector<LdpReport>> epochs;
  for (uint64_t e = 0; e < 4; ++e) {
    epochs.push_back(PerturbColumn(client, 2000 + 100 * e, 120 + e));
    ASSERT_TRUE(sender->SendReports(epochs.back()).ok());
    ASSERT_TRUE(sender->Ping().ok());  // pin the epoch's contents
    ASSERT_TRUE(active->CutAndShip().ok());
    // The idle region cuts on the same cadence with nothing to ship —
    // consecutive empty cuts coalesce into one heartbeat each time.
    ASSERT_TRUE(idle->CutAndShip().ok());
  }

  const WindowedView& view = *central.window();
  EXPECT_EQ(view.frontier(), 3u);  // the heartbeats kept region 1 current
  EXPECT_EQ(view.epochs_expired(), 2u);
  LdpJoinSketchServer expected(params, epsilon);
  expected.AbsorbBatch(epochs[2]);
  expected.AbsorbBatch(epochs[3]);
  EXPECT_EQ(view.RawWindow().Serialize(), expected.Serialize());

  const NetMetrics metrics = central.metrics();
  ASSERT_EQ(metrics.regions.size(), 2u);
  for (const RegionMetrics& region : metrics.regions) {
    if (region.region_id == 0) {
      EXPECT_EQ(region.epochs_applied, 4u);
      EXPECT_EQ(region.empty_epochs, 0u);
    } else {
      EXPECT_EQ(region.epochs_applied, 0u);
      EXPECT_GE(region.empty_epochs, 1u);  // coalesced idle heartbeats
    }
  }

  ASSERT_TRUE(sender->Finish().ok());
  ASSERT_TRUE(active->FlushAndStop().ok());
  ASSERT_TRUE(idle->FlushAndStop().ok());
  central.Stop();
  // Full history is untouched by heartbeats: every report, exactly once.
  LdpJoinSketchServer all(params, epsilon);
  for (const auto& e : epochs) all.AbsorbBatch(e);
  all.Finalize();
  EXPECT_EQ(central.Finalize().Serialize(), all.Serialize());
}

}  // namespace
}  // namespace ldpjs
