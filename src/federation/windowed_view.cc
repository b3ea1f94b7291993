#include "federation/windowed_view.h"

#include <algorithm>
#include <utility>

namespace ldpjs {

WindowedView::WindowedView(const SketchParams& params, double epsilon,
                           uint64_t window_epochs, size_t expected_regions)
    : window_(window_epochs),
      expected_regions_(std::max<size_t>(1, expected_regions)),
      acc_(params, epsilon) {
  LDPJS_CHECK(window_ >= 1);
  // Initial empty publication: Published() is never null, so readers are a
  // bare atomic load with no "not yet published" branch to race on.
  MutexLock lock(mu_);
  PublishLocked();
}

void WindowedView::OnEpochApplied(uint32_t region_id, uint64_t epoch,
                                  LdpJoinSketchServer* snapshot) {
  MutexLock lock(mu_);
  RegionWindow& region = regions_[region_id];
  // The shipper sends epochs in order and the central dedups, so a fresh
  // epoch is strictly above the region's high-water. An empty-epoch
  // heartbeat advances the clock without storing anything.
  if (snapshot != nullptr) {
    region.epochs.emplace(epoch,
                          StoredEpoch{std::move(*snapshot), /*added=*/false});
  }
  region.high_water = std::max(region.high_water, epoch);
  AdvanceLocked();
  // Writer-side publication at the epoch boundary: one finalize per
  // applied epoch, amortized over every read until the next one. A
  // heartbeat that only moves the frontier republishes too — the view's
  // epoch identity is part of the answer.
  if (dirty_ || pub_aligned_ != has_frontier_ || pub_frontier_ != frontier_) {
    PublishLocked();
  }
}

void WindowedView::PublishLocked() {
  LdpJoinSketchServer finalized = acc_;  // the accumulator keeps its lanes
  finalized.Finalize();
  publisher_.Publish(std::move(finalized), has_frontier_, frontier_);
  dirty_ = false;
  pub_aligned_ = has_frontier_;
  pub_frontier_ = frontier_;
}

void WindowedView::AdvanceLocked() {
  if (regions_.size() < expected_regions_) return;  // not aligned yet
  uint64_t e = UINT64_MAX;
  for (const auto& [id, region] : regions_) {
    e = std::min(e, region.high_water);
  }
  // The frontier never regresses. A region first heard from AFTER
  // alignment (more regions than `expected_regions` exist) arrives with a
  // low high-water; letting it drag E backwards would leave the
  // accumulator holding epochs beyond the regressed window and could
  // never restore already-expired ones. Instead the late region joins the
  // window going forward: whatever it pushed inside (E-W, E] merges
  // below, anything older is dropped.
  if (has_frontier_ && e < frontier_) e = frontier_;
  has_frontier_ = true;
  frontier_ = e;
  for (auto& [id, region] : regions_) {
    for (auto it = region.epochs.begin(); it != region.epochs.end();) {
      const uint64_t epoch = it->first;
      if (epoch > e) break;  // pending beyond the frontier; map is ordered
      if (e - epoch < window_) {
        // Inside (E-W, E]: make sure it is in the accumulator.
        if (!it->second.added) {
          acc_.Merge(it->second.sketch);
          it->second.added = true;
          ++in_window_;
          dirty_ = true;
        }
        ++it;
      } else {
        // Slid past the window: retract exactly what was merged (the
        // subtract is the bit-exact inverse of the merge) and free the
        // snapshot. A snapshot that was never merged — the frontier jumped
        // clean over it — is simply dropped.
        if (it->second.added) {
          acc_.SubtractRaw(it->second.sketch);
          --in_window_;
          ++expired_;
          dirty_ = true;
        }
        it = region.epochs.erase(it);
      }
    }
  }
}

LdpJoinSketchServer WindowedView::RawWindow() const {
  MutexLock lock(mu_);
  return acc_;
}

LdpJoinSketchServer WindowedView::RecomputeRaw() const {
  MutexLock lock(mu_);
  LdpJoinSketchServer merged(acc_.shape(), acc_.epsilon());
  for (const auto& [id, region] : regions_) {
    for (const auto& [epoch, stored] : region.epochs) {
      if (stored.added) merged.Merge(stored.sketch);
    }
  }
  return merged;
}

bool WindowedView::aligned() const {
  MutexLock lock(mu_);
  return has_frontier_;
}

uint64_t WindowedView::frontier() const {
  MutexLock lock(mu_);
  LDPJS_CHECK(has_frontier_);
  return frontier_;
}

uint64_t WindowedView::window_reports() const {
  MutexLock lock(mu_);
  return acc_.total_reports();
}

uint64_t WindowedView::epochs_in_window() const {
  MutexLock lock(mu_);
  return in_window_;
}

uint64_t WindowedView::epochs_expired() const {
  MutexLock lock(mu_);
  return expired_;
}

uint64_t WindowedView::epochs_pending() const {
  MutexLock lock(mu_);
  uint64_t pending = 0;
  for (const auto& [id, region] : regions_) {
    for (const auto& [epoch, stored] : region.epochs) {
      if (!stored.added) ++pending;
    }
  }
  return pending;
}

}  // namespace ldpjs
