// Parallel client/server simulation drivers.
//
// Ingestion is batched: users are processed in fixed blocks of
// kIngestBlockSize, and each block draws its randomness from one
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
#ifndef LDPJS_CORE_SIMULATION_H_
#define LDPJS_CORE_SIMULATION_H_

#include <cstdint>

#include "core/fap.h"
#include "core/freq_items.h"
#include "core/ldp_join_sketch.h"
#include "data/column.h"

namespace ldpjs {

/// Users perturbed per RNG stream / absorb batch. Large enough to amortize
/// engine seeding and batch-validation overhead, small enough that a
/// block's reports stay L1/L2-resident between PerturbBatch and AbsorbBatch.
inline constexpr size_t kIngestBlockSize = 4096;

// The wire path encodes one ingest block per batch-envelope record, so a
// block must fit the wire batch limit — keep retunes of either constant
// honest at compile time.
static_assert(kIngestBlockSize <= kMaxWireBatchReports,
              "an ingest block must encode as one wire batch");

struct SimulationOptions {
  uint64_t run_seed = 42;   ///< perturbation randomness (distinct from hash seed)
  size_t num_threads = 0;   ///< 0 = hardware concurrency
  /// 0 = in-process ingestion (clients absorb straight into thread-local
  /// sketches). N >= 1 = the distributed deployment path: every 4096-user
  /// block is encoded as a length-prefixed wire frame and the stream is
  /// ingested by a ShardedAggregator with N shards. Raw lanes make the two
  /// paths bit-identical, so num_shards — like num_threads — can never
  /// change a result; tests pin this.
  size_t num_shards = 0;
  /// With the wire path active (num_shards >= 1, or forced to 1 shard when
  /// this is set): ship every frame over a real TCP connection — a
  /// FrameServer on 127.0.0.1 with an ephemeral port, fed by a FrameSender
  /// speaking the LJSP session protocol — instead of handing spans to the
  /// in-process service. The bytes on the socket are the exact LJSB
  /// envelopes the in-process path ingests, so results stay bit-identical;
  /// tests pin this too.
  bool net_loopback = false;
  /// N >= 1: the full federated deployment rehearsal — N RegionalNodes on
  /// 127.0.0.1 ingest the client blocks round-robin and ship raw-lane
  /// epoch snapshots upstream (EPOCH_PUSH) to one CentralNode, which
  /// merges them and finalizes once. Shard count per tier comes from
  /// num_shards. Still bit-identical to in-process ingestion — federation,
  /// like sharding and the network, can never change an answer.
  size_t num_regions = 0;
  /// Federated mode: each region cuts + ships an epoch snapshot after
  /// every `epoch_reports` reports it has ingested (0 = one epoch at the
  /// end). Any schedule is exact; this just exercises multi-epoch merges.
  uint64_t epoch_reports = 0;
  /// Federated mode: 0 = the returned sketch is the full-history central
  /// finalize (every epoch, the default). W >= 1 = the returned sketch is
  /// the central's sliding-window view over the last W cross-region-
  /// aligned epochs — epochs (E-W, E] where E is the newest epoch every
  /// region has shipped (pass a huge W for "all epochs via the cached
  /// incremental view"). Windowed runs insert an ingest barrier before
  /// every cut, so each epoch's contents are exactly the blocks sent since
  /// the previous cut and the run is deterministic.
  uint64_t window_epochs = 0;
};

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
