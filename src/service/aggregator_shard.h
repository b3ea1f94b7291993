// One shard of the streaming aggregation service: ingests length-prefixed
// wire frames of batch-envelope records ("LJSB", see EncodeReportBatch)
// into a shard-local un-finalized sketch.
//
// Memory is bounded and allocated once: frames decode into one fixed-size
// LdpReport buffer (kMaxWireBatchReports reports, 32 KiB), so a shard that
// has absorbed a billion reports holds exactly one sketch plus that buffer —
// no per-report or per-frame allocation on the ingest path. Input is
// untrusted wire bytes: a frame that is truncated, corrupt, or carries
// coordinates outside this shard's sketch shape is rejected with Corruption
// *before* any lane is touched, so a bad frame never poisons the shard.
#ifndef LDPJS_SERVICE_AGGREGATOR_SHARD_H_
#define LDPJS_SERVICE_AGGREGATOR_SHARD_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "core/ldp_join_sketch.h"

namespace ldpjs {

class AggregatorShard {
 public:
  /// Params/epsilon must match the clients' (and every other shard's).
  AggregatorShard(const SketchParams& params, double epsilon);

  /// Decodes one batch-envelope frame payload into the buffer and absorbs
  /// it into the shard sketch. Validates every report against the sketch
  /// shape (j < k, l < m) after the codec's own checks; any failure leaves
  /// the shard untouched and returns Corruption.
  Status IngestFrame(std::span<const uint8_t> frame);

  /// Adds another un-finalized raw-lane sketch into this shard (the central
  /// tier's merge of a regional epoch snapshot). Caller must have validated
  /// params/epsilon compatibility; exact integer lane addition.
  void MergeRaw(const LdpJoinSketchServer& other);

  /// Epoch cut: zeroes the shard's lanes in place so a new collection
  /// window starts fresh. Lifetime counters (frames/reports ingested) keep
  /// accumulating across resets, so service metrics stay monotonic.
  void Reset();

  /// Shard-local raw-lane sketch (un-finalized; merge it, don't query it).
  const LdpJoinSketchServer& sketch() const { return sketch_; }

  uint64_t frames_ingested() const { return frames_; }
  /// Reports absorbed over the shard's lifetime, across every epoch reset.
  uint64_t reports_ingested() const {
    return shipped_reports_ + sketch_.total_reports();
  }

 private:
  LdpJoinSketchServer sketch_;
  std::vector<LdpReport> decoded_;  // kMaxWireBatchReports, reused per frame
  uint64_t frames_ = 0;
  uint64_t shipped_reports_ = 0;  // reports cut away by past Reset() calls
};

}  // namespace ldpjs

#endif  // LDPJS_SERVICE_AGGREGATOR_SHARD_H_
