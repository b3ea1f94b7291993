// RCU-style publication of finalized sketch views — the read side of the
// serving tier.
//
// The ingest/merge path (WindowedView's accumulator, FrameServer's shard
// lanes) is write-hot and lock-guarded; estimates used to take those same
// locks and copy-and-finalize k·m lanes per query. Instead, the WRITER now
// builds an immutable finalized snapshot at each epoch boundary (and on any
// dirty finalize) and swaps a shared_ptr to it in under the publisher's
// own Mutex. A reader copies that pointer under the same Mutex — one
// refcount increment, no sketch copy, and a lock held for a pointer copy
// and shared only with the publisher and other readers, never with
// ingest — then computes any number of estimates against a view that can
// never change underneath it. A concurrent epoch cut simply publishes the
// *next* view. (std::atomic<std::shared_ptr> would say the same, but
// libstdc++ 12 implements it with an internal lock bit whose load
// ThreadSanitizer reports as racing the store.)
//
// Consistency: a published view is internally consistent by construction
// (sequence, epoch identity, and sketch are fields of one immutable object
// reached through one pointer), so an answer always corresponds to exactly
// one publication — a torn view is impossible, not just unlikely. Readers
// may observe a slightly stale view; the PING ingest barrier doubles as
// the republish point for "read your own writes".
#ifndef LDPJS_SERVICE_PUBLISHED_VIEW_H_
#define LDPJS_SERVICE_PUBLISHED_VIEW_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>

#include "common/thread_annotations.h"
#include "core/ldp_join_sketch.h"

namespace ldpjs {

/// One immutable finalized snapshot. Everything a query needs — the
/// finalized sketch plus the identity of the publication that produced
/// it — lives behind one shared_ptr, so readers can hold it as long as
/// they like while the writer publishes successors.
struct PublishedView {
  PublishedView(uint64_t sequence_in, bool aligned_in, uint64_t epoch_in,
                LdpJoinSketchServer sketch_in)
      : sequence(sequence_in),
        aligned(aligned_in),
        epoch(epoch_in),
        sketch(std::move(sketch_in)) {}

  /// Publication counter, 1-based and strictly increasing per publisher.
  uint64_t sequence;
  /// Windowed views: whether the cross-region frontier is established.
  bool aligned;
  /// The aligned frontier epoch (windowed views; 0 otherwise).
  uint64_t epoch;
  /// Finalized sketch — debias and row transforms already applied.
  LdpJoinSketchServer sketch;

  uint64_t reports() const { return sketch.total_reports(); }
};

/// Single-writer/multi-reader swap cell. Writers call Publish with a
/// finalized sketch (typically at an epoch boundary); readers call
/// Current(), a shared_ptr copy under the cell's Mutex. Current() is never
/// null once the owner has published its initial (usually empty) view.
class ViewPublisher {
 public:
  /// Wraps `finalized` (must be finalized) in a new immutable view with
  /// the next sequence number and swaps it in. Returns the published view.
  std::shared_ptr<const PublishedView> Publish(LdpJoinSketchServer finalized,
                                               bool aligned, uint64_t epoch);

  /// The latest published view (a pointer copy under the cell's Mutex; the
  /// view itself is never copied).
  std::shared_ptr<const PublishedView> Current() const;

  /// Number of Publish calls so far.
  uint64_t publications() const {
    return sequence_.load(std::memory_order_relaxed);
  }

 private:
  mutable Mutex mu_;
  std::shared_ptr<const PublishedView> current_ LDPJS_GUARDED_BY(mu_);
  std::atomic<uint64_t> sequence_{0};
};

}  // namespace ldpjs

#endif  // LDPJS_SERVICE_PUBLISHED_VIEW_H_
