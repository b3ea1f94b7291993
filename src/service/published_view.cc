#include "service/published_view.h"

#include <utility>

namespace ldpjs {

std::shared_ptr<const PublishedView> ViewPublisher::Publish(
    LdpJoinSketchServer finalized, bool aligned, uint64_t epoch) {
  LDPJS_CHECK(finalized.finalized());
  auto view = std::make_shared<const PublishedView>(
      sequence_.fetch_add(1, std::memory_order_relaxed) + 1, aligned, epoch,
      std::move(finalized));
  MutexLock lock(mu_);
  std::shared_ptr<const PublishedView> previous =
      std::exchange(current_, view);
  // Readers never wait on freeing a view this held the last reference to.
  lock.Unlock();
  return view;
}

std::shared_ptr<const PublishedView> ViewPublisher::Current() const {
  MutexLock lock(mu_);
  return current_;
}

}  // namespace ldpjs
