#include "core/simulation.h"

#include <vector>

#include "common/thread_pool.h"

namespace ldpjs {

template <typename Client>
LdpJoinSketchServer RunProtocol(const Column& column, const Client& client,
                                const SimulationOptions& options) {
  ThreadPool pool(options.num_threads);
  LdpJoinSketchServer server(client.shape(), client.epsilon());
  std::vector<LdpJoinSketchServer> partials(pool.num_threads(), server);

  const std::span<const uint64_t> values = column.values();
  const size_t blocks = (values.size() + kIngestBlockSize - 1) /
                        kIngestBlockSize;
  pool.ParallelFor(blocks, [&](size_t shard, size_t begin, size_t end) {
    LdpJoinSketchServer& partial = partials[shard];
    std::vector<LdpReport> reports(kIngestBlockSize);
    for (size_t block = begin; block < end; ++block) {
      partial.AbsorbBatch(PerturbIngestBlock(client, values, options.run_seed,
                                             block, reports));
    }
  });

  for (const LdpJoinSketchServer& partial : partials) server.Merge(partial);
  server.Finalize();
  return server;
}

template LdpJoinSketchServer RunProtocol(const Column&,
                                         const LdpJoinSketchClient&,
                                         const SimulationOptions&);
template LdpJoinSketchServer RunProtocol(const Column&, const FapClient&,
                                         const SimulationOptions&);

LdpJoinSketchServer BuildLdpJoinSketch(const Column& column,
                                       const SketchParams& params,
                                       double epsilon,
                                       const SimulationOptions& options) {
  return RunProtocol(column, LdpJoinSketchClient(params, epsilon), options);
}

LdpJoinSketchServer BuildFapSketch(
    const Column& column, const SketchParams& params, double epsilon,
    FapMode mode, const FrequentItems& frequent_items,
    const SimulationOptions& options) {
  return RunProtocol(column, FapClient(params, epsilon, mode, frequent_items),
                     options);
}

}  // namespace ldpjs
