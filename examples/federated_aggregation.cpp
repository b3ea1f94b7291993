// Federated aggregation tour: the two-tier deployment of the LDP join
// sketch, on real loopback sockets.
//
//   clients ──▶ region 0 (2 shards) ──┐
//                                     ├─ EPOCH_PUSH ──▶ central ──▶ estimate
//   clients ──▶ region 1 (1 shard)  ──┘
//
// Two RegionalNodes ingest disjoint halves of table A's client population
// and ship raw-lane epoch snapshots upstream on different schedules — one
// cuts every few blocks, one only at the final flush. A mid-collection
// disconnect forces a retried ship. Because every tier stores raw integer
// lanes and every merge is integer addition, the central's finalized sketch
// — and therefore the join estimate against table B — is bit-identical to a
// single aggregator absorbing every report directly, which this program
// verifies at the end.
//
// Build: part of the default CMake build; run ./federated_aggregation
#include <cstdio>
#include <memory>
#include <span>
#include <vector>

#include "common/stats.h"
#include "core/ldp_join_sketch.h"
#include "core/simulation.h"
#include "data/datasets.h"
#include "data/join.h"
#include "federation/central_node.h"
#include "federation/regional_node.h"
#include "net/frame_sender.h"

using namespace ldpjs;

int main() {
  SketchParams params;
  params.k = 12;
  params.m = 1024;
  params.seed = 7;
  const double epsilon = 3.0;
  const uint64_t rows = 200'000;

  std::printf("== federated aggregation: 2 regions -> 1 central ==\n");
  const JoinWorkload workload = MakeZipfWorkload(1.2, 20'000, rows, /*seed=*/3);

  // --- the central tier -----------------------------------------------
  CentralNodeOptions central_options;
  central_options.server.num_shards = 2;
  central_options.finalize_after = 2;   // two regions gate the frontier
  central_options.window_epochs = 4;    // keep a sliding 4-epoch view too
  CentralNode central(params, epsilon, central_options);
  if (!central.Start().ok()) return 1;
  std::printf("central listening on 127.0.0.1:%u\n", central.port());

  // --- two regional tiers with different shard counts ------------------
  std::vector<std::unique_ptr<RegionalNode>> regions;
  for (uint32_t r = 0; r < 2; ++r) {
    RegionalNodeOptions options;
    options.region_id = r;
    options.central_port = central.port();
    options.server.num_shards = r == 0 ? 2 : 1;
    options.ship_backoff = {.base_micros = 5000, .cap_micros = 100000};
    regions.push_back(
        std::make_unique<RegionalNode>(params, epsilon, options));
    if (!regions[r]->Start().ok()) return 1;
    std::printf("region %u listening on 127.0.0.1:%u (%zu shards)\n", r,
                regions[r]->port(), options.server.num_shards);
  }

  // --- clients: blocks of 4096 users split across the regions ----------
  LdpJoinSketchClient client(params, epsilon);
  std::vector<FrameSender> senders;
  for (uint32_t r = 0; r < 2; ++r) {
    auto sender =
        FrameSender::Connect("127.0.0.1", regions[r]->port(), params, epsilon);
    if (!sender.ok()) return 1;
    senders.push_back(std::move(*sender));
  }

  const size_t n = workload.table_a.size();
  std::vector<LdpReport> block(kIngestBlockSize);
  size_t blocks_sent = 0;
  for (size_t block_index = 0; block_index * kIngestBlockSize < n;
       ++block_index) {
    const std::span<const LdpReport> out = PerturbIngestBlock(
        client, workload.table_a.values(), /*run_seed=*/41, block_index,
        block);
    if (!senders[block_index % 2].SendReports(out).ok()) return 1;
    ++blocks_sent;
    // Region 0 cuts an epoch every 8 blocks; region 1 only flushes.
    if (block_index % 16 == 15) {
      if (!regions[0]->CutAndShip().ok()) return 1;
    }
    // Mid-collection chaos: the central kicks every session once; the
    // next ship retries on a fresh connection and nothing is lost.
    if (blocks_sent == n / kIngestBlockSize / 2) {
      central.server_mutable().DisconnectClients();
      std::printf("central dropped all sessions mid-collection\n");
    }
  }
  for (uint32_t r = 0; r < 2; ++r) {
    if (!senders[r].Finish().ok()) return 1;
    if (!regions[r]->FlushAndStop().ok()) return 1;
    std::printf("region %u flushed: %llu epochs, %llu snapshot bytes, %llu "
                "retries\n",
                r,
                static_cast<unsigned long long>(regions[r]->epochs_shipped()),
                static_cast<unsigned long long>(
                    regions[r]->snapshot_bytes_shipped()),
                static_cast<unsigned long long>(regions[r]->ship_retries()));
  }

  const NetMetrics metrics = central.metrics();
  for (const RegionMetrics& region : metrics.regions) {
    std::printf("central <- region %u: %llu epochs applied, %llu dup, %llu "
                "reports\n",
                region.region_id,
                static_cast<unsigned long long>(region.epochs_applied),
                static_cast<unsigned long long>(region.duplicates_ignored),
                static_cast<unsigned long long>(region.reports_merged));
  }
  // --- the sliding-window view: the last 4 cross-region-aligned epochs,
  // answered from the incrementally cached accumulator (expired epochs
  // were subtracted back out, bit-exactly) ------------------------------
  const WindowedView& window = *central.window();
  const auto windowed = central.WindowedPublishedView();
  uint64_t merged_total = 0;
  for (const RegionMetrics& region : metrics.regions) {
    merged_total += region.reports_merged;
  }
  std::printf("windowed view: frontier=%llu in_window=%llu expired=%llu "
              "reports=%llu (of %llu merged)\n",
              static_cast<unsigned long long>(window.frontier()),
              static_cast<unsigned long long>(window.epochs_in_window()),
              static_cast<unsigned long long>(window.epochs_expired()),
              static_cast<unsigned long long>(windowed->reports()),
              static_cast<unsigned long long>(merged_total));

  central.Stop();
  LdpJoinSketchServer federated = central.Finalize();

  // --- verify: bit-identical to one aggregator seeing every report -----
  SimulationOptions sim;
  sim.run_seed = 41;
  LdpJoinSketchServer single =
      BuildLdpJoinSketch(workload.table_a, params, epsilon, sim);
  const bool identical = federated.Serialize() == single.Serialize();
  std::printf("federated == single-node: %s\n", identical ? "yes" : "NO");

  // --- and the estimate it exists for ----------------------------------
  sim.run_seed = 43;
  LdpJoinSketchServer sketch_b =
      BuildLdpJoinSketch(workload.table_b, params, epsilon, sim);
  const double estimate = federated.JoinEstimate(sketch_b);
  const double truth = ExactJoinSize(workload.table_a, workload.table_b);
  std::printf("join estimate %.6e vs true %.6e (RE %.4f)\n", estimate, truth,
              RelativeError(truth, estimate));
  return identical ? 0 : 1;
}
