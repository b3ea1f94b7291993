#include "core/simulation.h"

#include <vector>

#include "common/thread_pool.h"

namespace ldpjs {

namespace {

/// Shards the column's blocks across a thread pool; each block perturbs its
/// users through `client` with one counter-based RNG stream and lands in a
/// shard-local server via AbsorbBatch. Shard servers are merged (integer
/// lane adds, so the order cannot matter) and finalized.
template <typename Client>
LdpJoinSketchServer RunProtocol(const Column& column,
                                const SketchParams& params, double epsilon,
                                const SimulationOptions& options,
                                const Client& client) {
  ThreadPool pool(options.num_threads);
  const size_t shards = pool.num_threads();
  std::vector<LdpJoinSketchServer> partials(
      shards, LdpJoinSketchServer(params, epsilon));

  const std::span<const uint64_t> values = column.values();
  const size_t blocks = (values.size() + kIngestBlockSize - 1) /
                        kIngestBlockSize;
  pool.ParallelFor(blocks, [&](size_t shard, size_t begin, size_t end) {
    LdpJoinSketchServer& server = partials[shard];
    std::vector<LdpReport> reports(kIngestBlockSize);
    for (size_t block = begin; block < end; ++block) {
      server.AbsorbBatch(PerturbIngestBlock(client, values, options.run_seed,
                                            block, reports));
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
