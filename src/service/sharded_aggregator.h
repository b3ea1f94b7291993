// Sharded streaming aggregation coordinator: routes wire frames of encoded
// reports across N AggregatorShards, merges the shard lanes with the exact
// integer Merge, and finalizes once.
//
// Exactness invariant: shard lanes are raw int64 ±1 vote balances and Merge
// is integer addition, so the merged sketch — and therefore the finalized
// cells and every join estimate — is bit-identical to a single node
// absorbing the same reports, for ANY shard count, ANY frame→shard routing,
// and ANY interleaving of frames within a shard. Sharding is purely a
// throughput decision; it can never change an answer.
//
// Stream layout: a stream is a concatenation of PutFrame records (u32
// length + payload), each payload one batch-envelope record ("LJSB").
#ifndef LDPJS_SERVICE_SHARDED_AGGREGATOR_H_
#define LDPJS_SERVICE_SHARDED_AGGREGATOR_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "core/ldp_join_sketch.h"
#include "service/aggregator_shard.h"

namespace ldpjs {

class ShardedAggregator {
 public:
  /// `num_shards` = 0 sizes the shard set to the shared pool's width (one
  /// shard per worker — the throughput-optimal default).
  ShardedAggregator(const SketchParams& params, double epsilon,
                    size_t num_shards = 0);

  size_t num_shards() const { return shards_.size(); }
  const AggregatorShard& shard(size_t i) const { return shards_[i]; }

  /// Streaming path: ingests one batch-envelope frame payload into the next
  /// shard round-robin, on the calling thread. Bounded memory (the shard
  /// rings); a rejected frame leaves every shard untouched.
  Status IngestFrame(std::span<const uint8_t> frame);

  /// Shard-affine streaming path: ingests one frame into shard `shard`
  /// directly (the multi-pump server's per-shard queues own their routing).
  /// Raw lanes make any frame→shard routing bit-identical, so affinity is
  /// purely a throughput decision. Not synchronized — callers targeting the
  /// same shard concurrently must serialize themselves.
  Status IngestFrameToShard(size_t shard, std::span<const uint8_t> frame);

  /// Federated path, validation half: deserializes an un-finalized
  /// raw-lane sketch (a regional epoch snapshot) and checks it is
  /// mergeable into this aggregator. Rejects corrupt bytes, finalized
  /// sketches, and any params/epsilon mismatch with a Status *before* any
  /// lane could be touched. The decoded sketch can then be merged (and
  /// later subtracted) any number of times without re-validation — the
  /// central tier decodes once and reuses the sketch for both its shard
  /// merge and its windowed-view epoch store.
  Result<LdpJoinSketchServer> DecodeCompatibleSketch(
      std::span<const uint8_t> bytes) const;

  /// Merges an already-validated raw-lane sketch into shard `shard` (exact
  /// integer lane addition). Not synchronized, like IngestFrameToShard.
  void MergeRawSketch(size_t shard, const LdpJoinSketchServer& sketch);

  /// One epoch cut: the serialized merged raw lanes of everything ingested
  /// since the last cut, plus the report count inside the cut. Every shard
  /// is reset in the same call, so consecutive cuts partition the stream —
  /// merging every cut is bit-identical to never cutting. Callers must
  /// quiesce concurrent ingestion for the duration of the cut.
  struct EpochCut {
    std::vector<uint8_t> raw_sketch;
    uint64_t reports = 0;
  };
  EpochCut CutEpoch();

  /// Bulk path: ingests already-delimited frame payloads shard-parallel on
  /// SharedThreadPool() (frame i → shard i mod N; frames keep their order
  /// within a shard). Zero-copy — spans must outlive the call. Fails with
  /// Corruption on a bad frame; a mid-batch failure can leave earlier
  /// frames absorbed, so treat a non-OK result as poisoning the
  /// aggregation.
  Status IngestFrames(std::span<const std::span<const uint8_t>> frames);

  /// Bulk path over one contiguous wire stream: splits the concatenated
  /// length-prefixed frames (a cheap prefix scan), then IngestFrames.
  Status IngestStream(std::span<const uint8_t> stream);

  /// Merges every shard's raw lanes into one un-finalized sketch. Pure
  /// integer adds — shard order cannot affect the result.
  LdpJoinSketchServer MergeShards() const;

  /// MergeShards() + the single global Finalize(): the sketch a single-node
  /// ingestion of the same reports would produce, bit for bit.
  LdpJoinSketchServer Finalize() const;

  uint64_t frames_ingested() const;
  uint64_t reports_ingested() const;

 private:
  std::vector<AggregatorShard> shards_;
  size_t next_shard_ = 0;
};

}  // namespace ldpjs

#endif  // LDPJS_SERVICE_SHARDED_AGGREGATOR_H_
