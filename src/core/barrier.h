#ifndef CLAIMS_CORE_BARRIER_H_
#define CLAIMS_CORE_BARRIER_H_

#include <condition_variable>
#include <functional>
#include <mutex>

#include "common/macros.h"

namespace claims {

/// Synchronization barrier with *dynamic membership* (paper appendix A.2.2).
///
/// Classic barriers assume a fixed thread count; under the elastic iterator
/// model the number of worker threads changes mid-execution, so the barrier
/// maintains a mutable `thread_count`:
///  * a newly expanded worker calls Register() on every barrier of the
///    iterator it enters (registerToAllBarriers), raising the count so
///    existing workers wait for it;
///  * a terminating worker calls Deregister() (broadcastExitToAllBarriers),
///    lowering the count so waiters stop expecting it.
///
/// Additionally the barrier is *one-shot open*: once a generation completes
/// (state construction finished), the barrier stays open and late-joining
/// workers pass through Arrive() immediately — a worker expanded after hash
/// table construction must not wait for a construction phase that already
/// happened (§3.1, Expand in S3).
///
/// A barrier may carry a *completion action*: a step that must run once, on
/// the complete state, before any worker goes on (the sort's separators).
/// The call that opens the barrier — the last Arrive, or a
/// Deregister that leaves every remaining worker arrived — runs it under the
/// barrier's mutex, then opens. No waiter returns, and no late Register
/// reports the barrier open, before the action has ended.
class DynamicBarrier {
 public:
  explicit DynamicBarrier(std::function<void()> on_open = {})
      : on_open_(std::move(on_open)) {}
  CLAIMS_DISALLOW_COPY_AND_ASSIGN(DynamicBarrier);

  /// Adds the calling worker to the expected set. No-op once the barrier has
  /// opened. Returns true if the barrier is already open (caller may skip the
  /// guarded phase entirely).
  bool Register();

  /// Removes a worker that will never arrive (termination). If the removed
  /// worker was the last one outstanding, it runs the completion action and
  /// the barrier opens, releasing the waiters. If no worker remains
  /// registered, nobody completed the phase: the barrier stays closed, the
  /// action does not run, and the next worker to register runs the phase.
  void Deregister();

  /// Blocks until every registered worker has arrived (or the barrier is
  /// already open). The completing arrival runs the completion action and
  /// opens the barrier.
  void Arrive();

  bool IsOpen() const;

  /// Expected-thread count; exposed for tests.
  int registered() const;

 private:
  /// Runs the completion action and opens the barrier; caller holds mu_.
  void OpenLocked();

  const std::function<void()> on_open_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  int registered_ = 0;
  int arrived_ = 0;
  bool open_ = false;
};

}  // namespace claims

#endif  // CLAIMS_CORE_BARRIER_H_
