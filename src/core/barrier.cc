#include "core/barrier.h"

namespace claims {

bool DynamicBarrier::Register() {
  std::lock_guard<std::mutex> lock(mu_);
  if (open_) return true;
  ++registered_;
  return false;
}

void DynamicBarrier::Deregister() {
  std::unique_lock<std::mutex> lock(mu_);
  if (open_) return;
  --registered_;
  // The departing worker may have been the only one everyone was waiting for.
  // When it was the last one registered, nobody arrived: the phase is not
  // done, so the barrier stays closed and the next worker to register (a
  // later Expand, or a worker that had not started yet) completes it.
  if (registered_ > 0 && arrived_ >= registered_) OpenLocked();
}

void DynamicBarrier::Arrive() {
  std::unique_lock<std::mutex> lock(mu_);
  if (open_) return;
  ++arrived_;
  if (arrived_ >= registered_) {
    OpenLocked();
    return;
  }
  cv_.wait(lock, [this] { return open_; });
}

void DynamicBarrier::OpenLocked() {
  if (on_open_) on_open_();
  open_ = true;
  cv_.notify_all();
}

bool DynamicBarrier::IsOpen() const {
  std::lock_guard<std::mutex> lock(mu_);
  return open_;
}

int DynamicBarrier::registered() const {
  std::lock_guard<std::mutex> lock(mu_);
  return registered_;
}

}  // namespace claims
