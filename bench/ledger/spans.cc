// The ledger's span recorder (see ledger.h). Spans live in per-thread
// buffers owned by a global list, so a buffer outlives its thread and the
// hot path never takes a lock; only a thread's first span registers.
#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "ledger.h"

namespace ledger {
namespace {

struct ThreadBuffer {
  uint32_t index = 0;
  uint64_t next_seq = 0;
  std::vector<SpanRecord> spans;
  std::vector<uint64_t> open;  ///< ids of the spans open on this thread
};

std::atomic<bool> g_enabled{false};
std::mutex g_buffers_mu;
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;  // g_buffers_mu

ThreadBuffer& LocalBuffer() {
  thread_local ThreadBuffer* buffer = [] {
    auto owned = std::make_unique<ThreadBuffer>();
    ThreadBuffer* raw = owned.get();
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    raw->index = static_cast<uint32_t>(g_buffers.size());
    g_buffers.push_back(std::move(owned));
    return raw;
  }();
  return *buffer;
}

SpanRecord OpenRecord(ThreadBuffer& buffer, const char* name, bool wait) {
  SpanRecord record;
  record.name = name;
  record.id = (uint64_t{buffer.index} + 1) << 40 | ++buffer.next_seq;
  record.parent = buffer.open.empty() ? 0 : buffer.open.back();
  record.thread = buffer.index;
  record.wait = wait;
  return record;
}

bool SpansEnabled() { return g_enabled.load(std::memory_order_relaxed); }

std::string LayerOf(const char* name) {
  const std::string full(name);
  return full.substr(0, full.find('.'));
}

}  // namespace

void EnableSpans(bool enabled) {
  g_enabled.store(enabled, std::memory_order_relaxed);
}

std::vector<SpanRecord> CollectSpans() {
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  std::vector<SpanRecord> all;
  for (const auto& buffer : g_buffers) {
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  }
  return all;
}

void ClearSpans() {
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  for (const auto& buffer : g_buffers) buffer->spans.clear();
}

ScopedSpan::ScopedSpan(const char* name, uint64_t items, bool wait) {
  if (!SpansEnabled()) return;
  ThreadBuffer& buffer = LocalBuffer();
  record_ = OpenRecord(buffer, name, wait);
  record_.items = items;
  buffer.open.push_back(record_.id);
  active_ = true;
  record_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  record_.end_ns = NowNs();
  ThreadBuffer& buffer = LocalBuffer();
  buffer.open.pop_back();
  buffer.spans.push_back(record_);
}

void RecordSpan(const char* name, uint64_t start_ns, uint64_t end_ns,
                bool wait) {
  if (!SpansEnabled()) return;
  ThreadBuffer& buffer = LocalBuffer();
  SpanRecord record = OpenRecord(buffer, name, wait);
  record.start_ns = start_ns;
  record.end_ns = end_ns;
  buffer.spans.push_back(record);
}

std::string LayerSummaryJson(const std::vector<SpanRecord>& spans) {
  struct Totals {
    uint64_t calls = 0;
    uint64_t busy_ns = 0;
    uint64_t self_ns = 0;
    uint64_t wait_ns = 0;
  };
  std::unordered_map<uint64_t, const SpanRecord*> by_id;
  std::unordered_map<uint64_t, uint64_t> child_ns;
  for (const SpanRecord& span : spans) {
    by_id[span.id] = &span;
    if (span.parent != 0) child_ns[span.parent] += span.end_ns - span.start_ns;
  }
  std::map<std::string, Totals> layers;
  for (const SpanRecord& span : spans) {
    const uint64_t duration = span.end_ns - span.start_ns;
    Totals& totals = layers[LayerOf(span.name)];
    if (span.wait) {
      totals.wait_ns += duration;
      continue;
    }
    ++totals.calls;
    const auto covered = child_ns.find(span.id);
    const uint64_t children = covered == child_ns.end() ? 0 : covered->second;
    totals.self_ns += duration - std::min(duration, children);
    const auto parent = by_id.find(span.parent);
    if (parent == by_id.end() ||
        LayerOf(parent->second->name) != LayerOf(span.name)) {
      totals.busy_ns += duration;
    }
  }
  std::string json = "{\"spans\": " + std::to_string(spans.size()) +
                     ", \"layers\": {";
  bool first = true;
  for (const auto& [layer, totals] : layers) {
    char row[256];
    std::snprintf(row, sizeof(row),
                  "%s\"%s\": {\"calls\": %" PRIu64
                  ", \"busy_ms\": %.3f, \"self_ms\": %.3f, \"wait_ms\": %.3f}",
                  first ? "" : ", ", layer.c_str(), totals.calls,
                  static_cast<double>(totals.busy_ns) / 1e6,
                  static_cast<double>(totals.self_ns) / 1e6,
                  static_cast<double>(totals.wait_ns) / 1e6);
    json += row;
    first = false;
  }
  return json + "}}";
}

bool WriteSpans(const std::vector<SpanRecord>& spans, const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  uint64_t origin = UINT64_MAX;
  for (const SpanRecord& span : spans) origin = std::min(origin, span.start_ns);
  std::fprintf(out,
               "[\"id\", \"parent\", \"thread\", \"name\", \"start_ns\", "
               "\"end_ns\", \"items\", \"wait\"]\n");
  for (const SpanRecord& span : spans) {
    std::fprintf(out,
                 "[%" PRIu64 ", %" PRIu64 ", %u, \"%s\", %" PRIu64 ", %" PRIu64
                 ", %" PRIu64 ", %d]\n",
                 span.id, span.parent, span.thread, span.name,
                 span.start_ns - origin, span.end_ns - origin, span.items,
                 span.wait ? 1 : 0);
  }
  return std::fclose(out) == 0;
}

}  // namespace ledger
