// Structured operational event log: a bounded ring of JSONL-serializable
// records for the state changes a counter cannot express — health
// transitions (with the breached rule as `cause`), upstream reconnects,
// spool replays after a crash-restart, and idle-connection reaps.
// Dashboards read rates from the metrics registry; incident
// timelines read WHAT changed and WHY from here.
//
// Each FrameServer owns one EventLog (a process-global ring would
// interleave the regions and the central when tests run a whole federation
// in one process). The ring keeps the newest kCapacity events; `dropped()`
// says how many scrolled off, so a consumer can tell a quiet system from a
// wrapped ring.
#ifndef LDPJS_OBS_EVENTS_H_
#define LDPJS_OBS_EVENTS_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/thread_annotations.h"

namespace ldpjs {

struct ObsEvent {
  uint64_t unix_ns = 0;  ///< stamped by Record() when left 0
  /// "health_transition", "reconnect", "spool_replay", "idle_reap", ...
  std::string kind;
  uint32_t region_id = 0;
  /// Health transitions: the state names ("OK" → "DEGRADED"); empty else.
  std::string from;
  std::string to;
  /// Why: the breached health rules, the reconnect's trigger error, the
  /// replayed epoch count — always human-readable, never a bare code.
  std::string cause;
};

/// One event as a JSON object (one JSONL line without the newline).
std::string EventToJson(const ObsEvent& event);

class EventLog {
 public:
  static constexpr size_t kCapacity = 256;

  /// Appends one event, stamping `unix_ns` if the caller left it 0. The
  /// oldest event is dropped once the ring is full.
  void Record(ObsEvent event);

  /// Oldest-first copy of the ring.
  std::vector<ObsEvent> Collect() const;

  size_t size() const;
  /// Events recorded over the ring's lifetime, including dropped ones.
  uint64_t total_recorded() const;
  uint64_t dropped() const;

  /// JSON array of the ring, oldest first (the stats JSON "events" value).
  std::string ToJsonArray() const;
  /// One JSON object per line, oldest first (the JSONL export shape).
  std::string ToJsonl() const;

 private:
  mutable Mutex mu_;
  std::deque<ObsEvent> ring_ LDPJS_GUARDED_BY(mu_);
  uint64_t total_ LDPJS_GUARDED_BY(mu_) = 0;
};

}  // namespace ldpjs

#endif  // LDPJS_OBS_EVENTS_H_
