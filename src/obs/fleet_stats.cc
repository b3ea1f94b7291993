#include "obs/fleet_stats.h"

#include <algorithm>
#include <cstdio>

#include "obs/stats_export.h"

namespace ldpjs {

namespace {

// Decode-side allocation caps. A registry holds tens of series; anything
// near these bounds is a corrupt or hostile payload, not a big fleet.
constexpr uint32_t kMaxSeries = 4096;
constexpr uint32_t kMaxNameBytes = 256;
constexpr uint32_t kMaxRegions = 4096;
constexpr uint32_t kMaxCauseBytes = 4096;

void PutString(BinaryWriter& writer, std::string_view text) {
  writer.PutFrame({reinterpret_cast<const uint8_t*>(text.data()),
                   text.size()});
}

Result<std::string> GetString(BinaryReader& reader, uint32_t max_bytes,
                              const char* what) {
  auto frame = reader.GetFrame();
  if (!frame.ok()) return frame.status();
  if (frame->size() > max_bytes) {
    return Status::Corruption(std::string(what) + " name too long");
  }
  return std::string(reinterpret_cast<const char*>(frame->data()),
                     frame->size());
}

void PutNamedValues(
    BinaryWriter& writer,
    const std::vector<std::pair<std::string, uint64_t>>& series) {
  writer.PutU32(static_cast<uint32_t>(series.size()));
  for (const auto& [name, value] : series) {
    PutString(writer, name);
    writer.PutU64(value);
  }
}

Status GetNamedValues(BinaryReader& reader, const char* what,
                      std::vector<std::pair<std::string, uint64_t>>* out) {
  auto count = reader.GetU32();
  if (!count.ok()) return count.status();
  if (*count > kMaxSeries) {
    return Status::Corruption(std::string(what) + " series count too large");
  }
  out->reserve(*count);
  for (uint32_t i = 0; i < *count; ++i) {
    auto name = GetString(reader, kMaxNameBytes, what);
    if (!name.ok()) return name.status();
    auto value = reader.GetU64();
    if (!value.ok()) return value.status();
    out->emplace_back(std::move(*name), *value);
  }
  return Status::OK();
}

void PutRegistrySnapshot(BinaryWriter& writer,
                         const MetricsRegistry::Snapshot& snap) {
  PutNamedValues(writer, snap.counters);
  PutNamedValues(writer, snap.gauges);
  writer.PutU32(static_cast<uint32_t>(snap.histograms.size()));
  for (const auto& [name, hist] : snap.histograms) {
    PutString(writer, name);
    writer.PutU64(hist.sum);
    // Raw buckets only — count is derived on decode, percentiles are the
    // reader's to compute after merging.
    for (uint64_t bucket : hist.buckets) writer.PutU64(bucket);
  }
}

Status GetRegistrySnapshot(BinaryReader& reader,
                           MetricsRegistry::Snapshot* out) {
  Status status = GetNamedValues(reader, "counter", &out->counters);
  if (!status.ok()) return status;
  status = GetNamedValues(reader, "gauge", &out->gauges);
  if (!status.ok()) return status;
  auto count = reader.GetU32();
  if (!count.ok()) return count.status();
  if (*count > kMaxSeries) {
    return Status::Corruption("histogram series count too large");
  }
  out->histograms.reserve(*count);
  for (uint32_t i = 0; i < *count; ++i) {
    auto name = GetString(reader, kMaxNameBytes, "histogram");
    if (!name.ok()) return name.status();
    HistogramSnapshot hist;
    auto sum = reader.GetU64();
    if (!sum.ok()) return sum.status();
    hist.sum = *sum;
    for (size_t b = 0; b < HistogramSnapshot::kBuckets; ++b) {
      auto bucket = reader.GetU64();
      if (!bucket.ok()) return bucket.status();
      hist.buckets[b] = *bucket;
      hist.count += *bucket;
    }
    out->histograms.emplace_back(std::move(*name), hist);
  }
  return Status::OK();
}

void PutSnapshotBody(BinaryWriter& writer, const FleetSnapshot& snapshot) {
  writer.PutU32(snapshot.region_id);
  writer.PutU64(snapshot.captured_unix_ns);
  PutRegistrySnapshot(writer, snapshot.stats);
}

Status GetSnapshotBody(BinaryReader& reader, FleetSnapshot* out) {
  auto region = reader.GetU32();
  if (!region.ok()) return region.status();
  out->region_id = *region;
  auto captured = reader.GetU64();
  if (!captured.ok()) return captured.status();
  out->captured_unix_ns = *captured;
  return GetRegistrySnapshot(reader, &out->stats);
}

void PutVerdict(BinaryWriter& writer, const HealthVerdict& verdict) {
  writer.PutU8(static_cast<uint8_t>(verdict.state));
  PutString(writer, verdict.cause);
}

Status GetVerdict(BinaryReader& reader, HealthVerdict* out) {
  auto state = reader.GetU8();
  if (!state.ok()) return state.status();
  if (*state > static_cast<uint8_t>(HealthState::kCritical)) {
    return Status::Corruption("unknown health state");
  }
  out->state = static_cast<HealthState>(*state);
  auto cause = GetString(reader, kMaxCauseBytes, "health cause");
  if (!cause.ok()) return cause.status();
  out->cause = std::move(*cause);
  return Status::OK();
}

void AppendVerdictJson(std::string& out, const HealthVerdict& verdict) {
  out += HealthVerdictToJson(verdict);
}

}  // namespace

std::vector<uint8_t> EncodeFleetSnapshot(const FleetSnapshot& snapshot) {
  BinaryWriter writer;
  PutSnapshotBody(writer, snapshot);
  return writer.TakeBuffer();
}

Result<FleetSnapshot> DecodeFleetSnapshot(std::span<const uint8_t> payload) {
  BinaryReader reader(payload);
  FleetSnapshot snapshot;
  Status status = GetSnapshotBody(reader, &snapshot);
  if (!status.ok()) return status;
  if (!reader.AtEnd()) {
    return Status::Corruption("trailing bytes after STATS_PUSH payload");
  }
  return snapshot;
}

void MergeSnapshotInto(MetricsRegistry::Snapshot& into,
                       const MetricsRegistry::Snapshot& from) {
  auto merge_values =
      [](std::vector<std::pair<std::string, uint64_t>>& dst,
         const std::vector<std::pair<std::string, uint64_t>>& src) {
        for (const auto& [name, value] : src) {
          bool found = false;
          for (auto& [dst_name, dst_value] : dst) {
            if (dst_name == name) {
              dst_value += value;
              found = true;
              break;
            }
          }
          if (!found) dst.emplace_back(name, value);
        }
        std::sort(dst.begin(), dst.end(),
                  [](const auto& a, const auto& b) { return a.first < b.first; });
      };
  merge_values(into.counters, from.counters);
  merge_values(into.gauges, from.gauges);
  for (const auto& [name, hist] : from.histograms) {
    bool found = false;
    for (auto& [dst_name, dst_hist] : into.histograms) {
      if (dst_name == name) {
        dst_hist = MergeHistogram(dst_hist, hist);
        found = true;
        break;
      }
    }
    if (!found) into.histograms.emplace_back(name, hist);
  }
  std::sort(into.histograms.begin(), into.histograms.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
}

std::vector<uint8_t> EncodeFleetView(const FleetView& view) {
  BinaryWriter writer;
  writer.PutU64(view.rendered_unix_ns);
  PutVerdict(writer, view.cluster);
  PutRegistrySnapshot(writer, view.merged);
  writer.PutU32(static_cast<uint32_t>(view.regions.size()));
  for (const FleetRegionView& region : view.regions) {
    PutSnapshotBody(writer, region.snapshot);
    writer.PutU64(region.age_ns);
    PutVerdict(writer, region.health);
  }
  return writer.TakeBuffer();
}

Result<FleetView> DecodeFleetView(std::span<const uint8_t> payload) {
  BinaryReader reader(payload);
  FleetView view;
  auto rendered = reader.GetU64();
  if (!rendered.ok()) return rendered.status();
  view.rendered_unix_ns = *rendered;
  Status status = GetVerdict(reader, &view.cluster);
  if (!status.ok()) return status;
  status = GetRegistrySnapshot(reader, &view.merged);
  if (!status.ok()) return status;
  auto count = reader.GetU32();
  if (!count.ok()) return count.status();
  if (*count > kMaxRegions) {
    return Status::Corruption("fleet region count too large");
  }
  view.regions.reserve(*count);
  for (uint32_t i = 0; i < *count; ++i) {
    FleetRegionView region;
    status = GetSnapshotBody(reader, &region.snapshot);
    if (!status.ok()) return status;
    auto age = reader.GetU64();
    if (!age.ok()) return age.status();
    region.age_ns = *age;
    status = GetVerdict(reader, &region.health);
    if (!status.ok()) return status;
    view.regions.push_back(std::move(region));
  }
  if (!reader.AtEnd()) {
    return Status::Corruption("trailing bytes after FLEET_STATS payload");
  }
  return view;
}

std::string FleetViewToJson(const FleetView& view) {
  std::string out = "{\"rendered_unix_ns\":";
  out += std::to_string(view.rendered_unix_ns);
  out += ",\"cluster\":";
  AppendVerdictJson(out, view.cluster);
  out += ",\"region_count\":";
  out += std::to_string(view.regions.size());
  out += ",\"merged\":{";
  AppendSnapshotJson(out, view.merged);
  out += "},\"regions\":[";
  for (size_t i = 0; i < view.regions.size(); ++i) {
    if (i > 0) out += ',';
    const FleetRegionView& region = view.regions[i];
    out += "{\"region_id\":";
    out += std::to_string(region.snapshot.region_id);
    out += ",\"captured_unix_ns\":";
    out += std::to_string(region.snapshot.captured_unix_ns);
    char age_ms[48];
    std::snprintf(age_ms, sizeof(age_ms), ",\"age_ms\":%.6g",
                  static_cast<double>(region.age_ns) / 1e6);
    out += age_ms;
    out += ",\"health\":";
    AppendVerdictJson(out, region.health);
    out += ',';
    AppendSnapshotJson(out, region.snapshot.stats);
    out += '}';
  }
  out += "]}";
  return out;
}

FleetStore::ApplyResult FleetStore::Apply(FleetSnapshot snapshot,
                                          uint64_t now_ns,
                                          const HealthOptions& options) {
  MutexLock lock(mu_);
  Entry& entry = regions_[snapshot.region_id];
  const bool first_push = entry.received_ns == 0;
  entry.snapshot = std::move(snapshot);
  entry.received_ns = now_ns;

  // Frontier lag is relative to the fleet's most advanced region, so every
  // verdict is recomputed against the post-update maximum.
  uint64_t frontier_max = 0;
  for (const auto& [id, other] : regions_) {
    frontier_max = std::max(
        frontier_max,
        SeriesValue(other.snapshot.stats.gauges, "net_frontier_epoch"));
  }

  ApplyResult result;
  const HealthVerdict current = EvaluateHealth(
      SignalsFromSnapshot(entry.snapshot.stats, frontier_max, 0), options);
  result.previous.state = entry.last_state;
  result.current = current;
  // A region whose FIRST push is already unhealthy still logs a transition
  // (last_state starts as kOk), which is exactly the behavior we want.
  result.region_changed = first_push ? current.state != HealthState::kOk
                                     : current.state != entry.last_state;
  entry.last_state = current.state;

  HealthState cluster_worst = HealthState::kOk;
  std::string cluster_cause;
  for (const auto& [id, other] : regions_) {
    const uint64_t age =
        now_ns > other.received_ns ? now_ns - other.received_ns : 0;
    const HealthVerdict verdict = EvaluateHealth(
        SignalsFromSnapshot(other.snapshot.stats, frontier_max, age), options);
    if (verdict.state == HealthState::kOk) continue;
    if (static_cast<uint8_t>(verdict.state) >
        static_cast<uint8_t>(cluster_worst)) {
      cluster_worst = verdict.state;
    }
    if (!cluster_cause.empty()) cluster_cause += "; ";
    cluster_cause += "region " + std::to_string(id) + ": " + verdict.cause;
  }
  result.cluster_previous.state = cluster_state_;
  result.cluster_current.state = cluster_worst;
  result.cluster_current.cause = std::move(cluster_cause);
  result.cluster_changed = cluster_worst != cluster_state_;
  cluster_state_ = cluster_worst;
  return result;
}

FleetView FleetStore::View(uint64_t now_ns,
                           const HealthOptions& options) const {
  MutexLock lock(mu_);
  return ViewLocked(now_ns, options);
}

FleetView FleetStore::ViewLocked(uint64_t now_ns,
                                 const HealthOptions& options) const {
  FleetView view;
  view.rendered_unix_ns = now_ns;

  uint64_t frontier_max = 0;
  for (const auto& [id, entry] : regions_) {
    frontier_max = std::max(
        frontier_max,
        SeriesValue(entry.snapshot.stats.gauges, "net_frontier_epoch"));
  }

  for (const auto& [id, entry] : regions_) {
    FleetRegionView region;
    region.snapshot = entry.snapshot;
    region.age_ns =
        now_ns > entry.received_ns ? now_ns - entry.received_ns : 0;
    region.health = EvaluateHealth(
        SignalsFromSnapshot(entry.snapshot.stats, frontier_max, region.age_ns),
        options);
    MergeSnapshotInto(view.merged, entry.snapshot.stats);
    if (region.health.state != HealthState::kOk) {
      if (static_cast<uint8_t>(region.health.state) >
          static_cast<uint8_t>(view.cluster.state)) {
        view.cluster.state = region.health.state;
      }
      if (!view.cluster.cause.empty()) view.cluster.cause += "; ";
      view.cluster.cause +=
          "region " + std::to_string(id) + ": " + region.health.cause;
    }
    view.regions.push_back(std::move(region));
  }
  return view;
}

size_t FleetStore::region_count() const {
  MutexLock lock(mu_);
  return regions_.size();
}

}  // namespace ldpjs
