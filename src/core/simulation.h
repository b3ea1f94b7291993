// Parallel client/server simulation drivers.
//
// Ingestion runs in process and is batched: users are processed in fixed
// blocks of kIngestBlockSize, and each block draws its randomness from one
// counter-based stream, Xoshiro256(DeriveStreamSeed(run_seed, block_index)).
// Within a block the engine is drawn sequentially (PerturbBatch), so the
// per-user engine seeding of the old per-user-stream scheme — which
// dominated the client-side cost — is paid once per block instead.
//
// Determinism: the block → stream mapping depends only on run_seed, and
// shard-local sketches accumulate integer lanes (exact, order-independent
// under merge), so a run is bit-identical for a fixed run_seed regardless
// of the thread count. NOTE: this per-block derivation replaces the
// per-user Mix64-derived streams of earlier versions, so fixed-seed outputs
// (golden values) differ from those versions while all distributional
// guarantees are unchanged.
//
// The same linearity makes every deployment topology (shards, TCP,
// regions, windows) exact, so the simulation does not rehearse them: each
// topology's own tests pin it bit-identical to a direct absorb.
#ifndef LDPJS_CORE_SIMULATION_H_
#define LDPJS_CORE_SIMULATION_H_

#include <algorithm>
#include <cstdint>
#include <span>

#include "core/fap.h"
#include "core/freq_items.h"
#include "core/ldp_join_sketch.h"
#include "data/column.h"

namespace ldpjs {

/// Users perturbed per RNG stream / absorb batch. Large enough to amortize
/// engine seeding and batch-validation overhead, small enough that a
/// block's reports stay L1/L2-resident between PerturbBatch and AbsorbBatch.
inline constexpr size_t kIngestBlockSize = 4096;

// `ldpjs_cli send` encodes one ingest block per DATA frame, so a block must
// fit the wire batch limit — keep retunes of either constant honest at
// compile time.
static_assert(kIngestBlockSize <= kMaxWireBatchReports,
              "an ingest block must encode as one wire batch");

/// Perturbs ingest block `block` of `values` — users [block·kIngestBlockSize,
/// +kIngestBlockSize), clipped to values.size() — through `client` with the
/// block's counter-based stream, into the front of `out` (at least
/// kIngestBlockSize long). Returns the filled reports. The simulation,
/// `ldpjs_cli send` and the query probe all perturb through this, so a
/// deployment draws exactly the simulation's bits.
template <typename Client>
inline std::span<LdpReport> PerturbIngestBlock(
    const Client& client, std::span<const uint64_t> values, uint64_t run_seed,
    size_t block, std::span<LdpReport> out) {
  const size_t first = block * kIngestBlockSize;
  const size_t count = std::min(kIngestBlockSize, values.size() - first);
  Xoshiro256 rng = MakeStreamRng(run_seed, block);
  std::span<LdpReport> reports = out.first(count);
  client.PerturbBatch(values.subspan(first, count), reports, rng);
  return reports;
}

struct SimulationOptions {
  uint64_t run_seed = 42;   ///< perturbation randomness (distinct from hash seed)
  size_t num_threads = 0;   ///< 0 = hardware concurrency
};

/// The protocol run behind both builders: every value of `column` is
/// perturbed through `client` (an LdpJoinSketchClient or a FapClient) and
/// absorbed into shard-local sketches, one per pool thread; the shards are
/// merged and the result finalized. Every sketch takes the client's shape,
/// so the run builds no hash table.
template <typename Client>
LdpJoinSketchServer RunProtocol(const Column& column, const Client& client,
                                const SimulationOptions& options);

/// Runs the full LDPJoinSketch protocol over `column`: every value is
/// perturbed by an O(1) client and absorbed server-side. Returns the
/// finalized sketch.
LdpJoinSketchServer BuildLdpJoinSketch(const Column& column,
                                       const SketchParams& params,
                                       double epsilon,
                                       const SimulationOptions& options);

/// Same, but clients perturb with FAP (phase 2 of LDPJoinSketch+).
LdpJoinSketchServer BuildFapSketch(
    const Column& column, const SketchParams& params, double epsilon,
    FapMode mode, const FrequentItems& frequent_items,
    const SimulationOptions& options);

}  // namespace ldpjs

#endif  // LDPJS_CORE_SIMULATION_H_
