#ifndef CLAIMS_CORE_POOLED_THREAD_H_
#define CLAIMS_CORE_POOLED_THREAD_H_

#include <cstdint>
#include <functional>

#include "common/macros.h"

namespace claims {

/// A std::thread-shaped handle whose task runs on a parked thread: the
/// constructor hands the callable to an idle thread of a process-wide park,
/// or starts a new thread when none is idle, and join() waits for the task.
/// Segment drivers, elastic workers and deadline watchdogs run here, so a
/// query reuses the threads earlier queries started instead of creating a
/// thread, and mapping its stack, per driver and worker (paper Fig. 9a:
/// adding a worker must be cheap).
///
/// The park is leaked, like BlockPool::Global(), and never capped: it holds
/// at most the peak number of tasks that ever ran at once. A thread parks
/// itself as soon as its task returns, so a shrunk worker's thread is free
/// for the next Expand before the iterator joins the worker.
///
/// When join() returns, the task's callable has been destroyed and the
/// thread's BlockPool magazines are back in their pools' central tiers —
/// the same guarantees a joined std::thread gives by having exited. Like
/// std::thread, destroying or assigning over a joinable handle terminates.
class PooledThread {
 public:
  PooledThread() = default;
  explicit PooledThread(std::function<void()> task);
  PooledThread(PooledThread&& other) noexcept;
  PooledThread& operator=(PooledThread&& other) noexcept;
  ~PooledThread();

  CLAIMS_DISALLOW_COPY_AND_ASSIGN(PooledThread);

  bool joinable() const { return slot_ != nullptr; }

  /// Blocks until the task returned and its thread parked again.
  void join();

  /// One parked thread; defined in pooled_thread.cc.
  struct Slot;

 private:
  Slot* slot_ = nullptr;
  uint64_t ticket_ = 0;  ///< this task's number on slot_
};

}  // namespace claims

#endif  // CLAIMS_CORE_POOLED_THREAD_H_
