// Span-based trace propagation for sampled report batches.
//
// A trace context is two u64s — a trace id and the wall-clock origin
// timestamp stamped where the batch was encoded — carried on the wire by
// wrapping a DATA/EPOCH_PUSH/QUERY frame in a TRACED envelope (see
// net/protocol.h). Every tier that touches a sampled batch appends one
// span {trace_id, stage, start_ns, end_ns} to the process-global TraceLog,
// so one batch can be followed client encode → server queue → shard absorb
// → epoch cut → regional ship → central merge → view publish, and the
// difference "view-publish time − origin" is the true ingest-to-queryable
// latency the registry's `ingest_to_queryable_ns` histogram accumulates.
//
// Only sampled operations (1 in trace_every batches) ever touch the log,
// so a mutex-protected bounded ring is cheap enough; the unsampled hot
// path never reaches this file.
#ifndef LDPJS_OBS_TRACE_H_
#define LDPJS_OBS_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/thread_annotations.h"

namespace ldpjs {

/// The two fields that ride the wire. trace_id == 0 means "not traced" —
/// senders draw non-zero ids, so 0 is a safe sentinel everywhere.
struct TraceContext {
  uint64_t trace_id = 0;
  uint64_t origin_ns = 0;

  bool active() const { return trace_id != 0; }
};

/// One timed stage of a traced batch's life. Stage names used by the
/// shipped tiers: client_encode, client_send, server_queue, shard_absorb,
/// epoch_cut, regional_ship, central_merge, view_publish, query_serve. A
/// small DATA frame is absorbed inline on its connection's reader and never
/// queued, so it has no server_queue span.
struct TraceSpan {
  uint64_t trace_id = 0;
  std::string stage;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

/// Process-global bounded ring of spans. Writers from any tier in the
/// process (client, shard pump, regional scheduler, central reader) append
/// under one mutex; the ring keeps the most recent kCapacity spans.
class TraceLog {
 public:
  static constexpr size_t kCapacity = 4096;

  static TraceLog& Global();

  void Record(uint64_t trace_id, std::string stage, uint64_t start_ns,
              uint64_t end_ns);

  /// All retained spans for one trace id, in record order.
  std::vector<TraceSpan> Collect(uint64_t trace_id) const;

  size_t size() const;

 private:
  mutable Mutex mu_;
  std::vector<TraceSpan> ring_ LDPJS_GUARDED_BY(mu_);
  size_t next_ LDPJS_GUARDED_BY(mu_) = 0;  // ring insertion point once full
  bool wrapped_ LDPJS_GUARDED_BY(mu_) = false;
};

}  // namespace ldpjs

#endif  // LDPJS_OBS_TRACE_H_
