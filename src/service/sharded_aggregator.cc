#include "service/sharded_aggregator.h"

#include "common/serialize.h"
#include "common/thread_pool.h"

namespace ldpjs {

ShardedAggregator::ShardedAggregator(const SketchParams& params,
                                     double epsilon, size_t num_shards) {
  if (num_shards == 0) num_shards = SharedThreadPool().num_threads();
  shards_.assign(num_shards, AggregatorShard(params, epsilon));
}

Status ShardedAggregator::IngestFrame(std::span<const uint8_t> frame) {
  LDPJS_RETURN_IF_ERROR(shards_[next_shard_].IngestFrame(frame));
  next_shard_ = (next_shard_ + 1) % shards_.size();
  return Status::OK();
}

Status ShardedAggregator::IngestFrameToShard(size_t shard,
                                             std::span<const uint8_t> frame) {
  LDPJS_CHECK(shard < shards_.size());
  return shards_[shard].IngestFrame(frame);
}

Result<LdpJoinSketchServer> ShardedAggregator::DecodeCompatibleSketch(
    std::span<const uint8_t> bytes) const {
  const LdpJoinSketchServer& mine = shards_[0].sketch();
  auto pushed = mine.DeserializeLike(bytes);
  if (!pushed.ok()) return pushed.status();
  if (pushed->finalized()) {
    return Status::FailedPrecondition(
        "pushed sketch is finalized: only raw-lane snapshots merge");
  }
  if (!Mergeable(pushed->params(), pushed->epsilon(), mine.params(),
                 mine.epsilon())) {
    return Status::FailedPrecondition(
        "pushed sketch params mismatch: lanes are not mergeable");
  }
  return pushed;
}

void ShardedAggregator::MergeRawSketch(size_t shard,
                                       const LdpJoinSketchServer& sketch) {
  LDPJS_CHECK(shard < shards_.size());
  shards_[shard].MergeRaw(sketch);
}

ShardedAggregator::EpochCut ShardedAggregator::CutEpoch() {
  EpochCut cut;
  LdpJoinSketchServer merged = MergeShards();
  cut.reports = merged.total_reports();
  cut.raw_sketch = merged.Serialize();
  for (AggregatorShard& shard : shards_) shard.Reset();
  return cut;
}

Status ShardedAggregator::IngestStream(std::span<const uint8_t> stream) {
  // Index the frames first (a cheap scan of the length prefixes), so the
  // parallel phase touches disjoint shard state only.
  std::vector<std::span<const uint8_t>> frames;
  BinaryReader reader(stream);
  while (!reader.AtEnd()) {
    auto frame = reader.GetFrame();
    if (!frame.ok()) return frame.status();
    frames.push_back(*frame);
  }
  return IngestFrames(frames);
}

Status ShardedAggregator::IngestFrames(
    std::span<const std::span<const uint8_t>> frames) {
  const size_t n_shards = shards_.size();
  std::vector<Status> shard_status(n_shards);
  SharedParallelFor(
      n_shards, frames.size() * kMaxWireBatchReports,
      [&](size_t, size_t begin, size_t end) {
        for (size_t s = begin; s < end; ++s) {
          for (size_t i = s; i < frames.size(); i += n_shards) {
            shard_status[s] = shards_[s].IngestFrame(frames[i]);
            if (!shard_status[s].ok()) break;
          }
        }
      });
  for (const Status& status : shard_status) LDPJS_RETURN_IF_ERROR(status);
  return Status::OK();
}

LdpJoinSketchServer ShardedAggregator::MergeShards() const {
  LdpJoinSketchServer merged = shards_[0].sketch();
  for (size_t s = 1; s < shards_.size(); ++s) merged.Merge(shards_[s].sketch());
  return merged;
}

LdpJoinSketchServer ShardedAggregator::Finalize() const {
  LdpJoinSketchServer merged = MergeShards();
  merged.Finalize();
  return merged;
}

uint64_t ShardedAggregator::frames_ingested() const {
  uint64_t total = 0;
  for (const AggregatorShard& shard : shards_) total += shard.frames_ingested();
  return total;
}

uint64_t ShardedAggregator::reports_ingested() const {
  uint64_t total = 0;
  for (const AggregatorShard& shard : shards_) {
    total += shard.reports_ingested();
  }
  return total;
}

}  // namespace ldpjs
