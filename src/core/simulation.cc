#include "core/simulation.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "common/serialize.h"
#include "common/thread_pool.h"
#include "federation/central_node.h"
#include "federation/regional_node.h"
#include "net/frame_sender.h"
#include "net/frame_server.h"
#include "service/sharded_aggregator.h"

namespace ldpjs {

namespace {

/// Shards the column's blocks across a thread pool; each block perturbs its
/// users through `client` with one counter-based RNG stream and lands in a
/// shard-local server via AbsorbBatch. Shard servers are merged (integer
/// lane adds, so the order cannot matter) and finalized.
/// The distributed deployment path: blocks perturb in parallel as usual but
/// each block is *encoded* as a wire frame (batch-envelope record behind a
/// length prefix) instead of absorbed locally; the concatenated stream then
/// flows through a ShardedAggregator with options.num_shards shards. Blocks
/// draw from the same counter-based streams as the in-process path, and the
/// aggregator's raw-lane merge is exact, so the returned sketch is
/// bit-identical to RunProtocol's for the same run_seed.
template <typename Client>
LdpJoinSketchServer RunProtocolOverWire(const Column& column,
                                        const SketchParams& params,
                                        double epsilon,
                                        const SimulationOptions& options,
                                        const Client& client) {
  ThreadPool pool(options.num_threads);
  const uint64_t* values = column.values().data();
  const size_t rows = column.size();
  const size_t blocks = (rows + kIngestBlockSize - 1) / kIngestBlockSize;
  std::vector<std::vector<uint8_t>> frames(blocks);
  pool.ParallelFor(blocks, [&](size_t, size_t begin, size_t end) {
    std::vector<LdpReport> reports(kIngestBlockSize);
    for (size_t block = begin; block < end; ++block) {
      const size_t first = block * kIngestBlockSize;
      const size_t count = std::min(kIngestBlockSize, rows - first);
      Xoshiro256 rng = MakeStreamRng(options.run_seed, block);
      std::span<LdpReport> out(reports.data(), count);
      client.PerturbBatch(std::span<const uint64_t>(values + first, count),
                          out, rng);
      BinaryWriter writer;
      EncodeReportBatch(out, writer);
      frames[block] = writer.TakeBuffer();
    }
  });

  if (options.num_regions > 0) {
    // Federated deployment rehearsal: the identical frame bytes go over
    // real TCP sockets into N regional FrameServers, whose raw-lane epoch
    // snapshots ship upstream (EPOCH_PUSH) to a central aggregator. Raw
    // integer lanes merge exactly across the whole topology, so this is
    // bit-identical to the in-process span hand-off below — for any region
    // count, epoch schedule, and shard count per tier.
    const size_t n_shards = std::max<size_t>(1, options.num_shards);
    CentralNodeOptions central_options;
    central_options.server.num_shards = n_shards;
    central_options.window_epochs = options.window_epochs;
    // The windowed view's aligned frontier waits for every region it
    // expects to hear from. Blocks round-robin over regions, so a run with
    // fewer blocks than regions leaves the tail regions with no data and
    // nothing to push — they must not gate the frontier forever.
    central_options.window_expected_regions =
        std::min(options.num_regions, blocks);
    CentralNode central(params, epsilon, central_options);
    LDPJS_CHECK(central.Start().ok());

    std::vector<std::unique_ptr<RegionalNode>> regions;
    std::vector<FrameSender> senders;
    for (size_t r = 0; r < options.num_regions; ++r) {
      RegionalNodeOptions region_options;
      region_options.region_id = static_cast<uint32_t>(r);
      region_options.central_port = central.port();
      region_options.server.num_shards = n_shards;
      regions.push_back(std::make_unique<RegionalNode>(params, epsilon,
                                                       region_options));
      LDPJS_CHECK(regions.back()->Start().ok());
      auto sender = FrameSender::Connect("127.0.0.1", regions.back()->port(),
                                         params, epsilon);
      LDPJS_CHECK(sender.ok());
      senders.push_back(std::move(*sender));
    }

    std::vector<uint64_t> reports_since_cut(options.num_regions, 0);
    for (size_t block = 0; block < frames.size(); ++block) {
      const size_t region = block % options.num_regions;
      LDPJS_CHECK(senders[region].SendEncodedBatch(frames[block]).ok());
      const size_t first = block * kIngestBlockSize;
      reports_since_cut[region] += std::min(kIngestBlockSize, rows - first);
      if (options.epoch_reports > 0 &&
          reports_since_cut[region] >= options.epoch_reports) {
        if (options.window_epochs > 0) {
          // Windowed estimates are epoch-content-sensitive, so pin the
          // contents down: the PING_OK barrier proves every frame this
          // sender pushed is in the region's lanes before the cut.
          LDPJS_CHECK(senders[region].Ping().ok());
        }
        // Without the barrier the cut races the region's pumps mid-stream
        // — whatever has been absorbed goes in this epoch, the rest in the
        // next; any split is exact for the full-history estimate.
        LDPJS_CHECK(regions[region]->CutAndShip().ok());
        reports_since_cut[region] = 0;
      }
    }
    for (size_t r = 0; r < options.num_regions; ++r) {
      // BYE/BYE_OK: the region has ingested everything this sender sent,
      // then the flush cuts the final epoch and ships it upstream.
      LDPJS_CHECK(senders[r].Finish().ok());
      LDPJS_CHECK(regions[r]->FlushAndStop().ok());
    }
    central.Stop();
    if (options.window_epochs > 0) {
      // The sliding-window estimate over the last W aligned epochs,
      // answered from the central's incrementally cached accumulator.
      return central.WindowedPublishedView()->sketch;
    }
    return central.Finalize();
  }

  if (options.net_loopback) {
    // Full deployment rehearsal: the identical frame bytes go over a real
    // TCP socket into a FrameServer. Raw integer lanes make the estimate
    // independent of frame→shard routing, so this is bit-identical to the
    // in-process span hand-off below.
    FrameServerOptions server_options;
    server_options.port = 0;  // ephemeral
    server_options.num_shards = std::max<size_t>(1, options.num_shards);
    FrameServer server(params, epsilon, server_options);
    LDPJS_CHECK(server.Start().ok());
    auto sender =
        FrameSender::Connect("127.0.0.1", server.port(), params, epsilon);
    LDPJS_CHECK(sender.ok());
    for (const std::vector<uint8_t>& frame : frames) {
      LDPJS_CHECK(sender->SendEncodedBatch(frame).ok());
    }
    // FINALIZE_OK doubles as the ingest barrier (ordered after every DATA
    // frame this connection sent), so no BYE follows it.
    LDPJS_CHECK(sender->RequestFinalize().ok());
    server.WaitForFinalizeRequest();
    server.Stop();
    return server.Finalize();
  }

  // Hand the per-block frame buffers to the service as spans — the same
  // frame i → shard i mod N routing a concatenated IngestStream would use,
  // without materializing a second copy of the whole wire stream.
  std::vector<std::span<const uint8_t>> frame_spans(frames.begin(),
                                                    frames.end());
  ShardedAggregator aggregator(params, epsilon, options.num_shards);
  const Status status = aggregator.IngestFrames(frame_spans);
  LDPJS_CHECK(status.ok());  // self-generated frames: corruption impossible
  return aggregator.Finalize();
}

template <typename Client>
LdpJoinSketchServer RunProtocol(const Column& column,
                                const SketchParams& params, double epsilon,
                                const SimulationOptions& options,
                                const Client& client) {
  if (options.num_shards > 0 || options.net_loopback ||
      options.num_regions > 0) {
    return RunProtocolOverWire(column, params, epsilon, options, client);
  }
  ThreadPool pool(options.num_threads);
  const size_t shards = pool.num_threads();
  std::vector<LdpJoinSketchServer> partials(
      shards, LdpJoinSketchServer(params, epsilon));

  const uint64_t* values = column.values().data();
  const size_t rows = column.size();
  const size_t blocks = (rows + kIngestBlockSize - 1) / kIngestBlockSize;
  pool.ParallelFor(blocks, [&](size_t shard, size_t begin, size_t end) {
    LdpJoinSketchServer& server = partials[shard];
    std::vector<LdpReport> reports(kIngestBlockSize);
    for (size_t block = begin; block < end; ++block) {
      const size_t first = block * kIngestBlockSize;
      const size_t count = std::min(kIngestBlockSize, rows - first);
      Xoshiro256 rng = MakeStreamRng(options.run_seed, block);
      std::span<LdpReport> out(reports.data(), count);
      client.PerturbBatch(std::span<const uint64_t>(values + first, count),
                          out, rng);
      server.AbsorbBatch(out);
    }
  });

  LdpJoinSketchServer server(params, epsilon);
  for (const LdpJoinSketchServer& partial : partials) server.Merge(partial);
  server.Finalize();
  return server;
}

}  // namespace

LdpJoinSketchServer BuildLdpJoinSketch(const Column& column,
                                       const SketchParams& params,
                                       double epsilon,
                                       const SimulationOptions& options) {
  LdpJoinSketchClient client(params, epsilon);
  return RunProtocol(column, params, epsilon, options, client);
}

LdpJoinSketchServer BuildFapSketch(
    const Column& column, const SketchParams& params, double epsilon,
    FapMode mode, const FrequentItems& frequent_items,
    const SimulationOptions& options) {
  FapClient client(params, epsilon, mode, frequent_items);
  return RunProtocol(column, params, epsilon, options, client);
}

}  // namespace ldpjs
