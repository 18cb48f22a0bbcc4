#ifndef CLAIMS_CORE_BARRIER_H_
#define CLAIMS_CORE_BARRIER_H_

#include <atomic>
#include <condition_variable>
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
class DynamicBarrier {
 public:
  DynamicBarrier() = default;
  CLAIMS_DISALLOW_COPY_AND_ASSIGN(DynamicBarrier);

  /// Adds the calling worker to the expected set. No-op once the barrier has
  /// opened. Returns true if the barrier is already open (caller may skip the
  /// guarded phase entirely).
  bool Register();

  /// Removes a worker that will never arrive (termination). If the removed
  /// worker was the last one outstanding, the barrier opens and waiters are
  /// released. If no worker remains registered, nobody completed the phase:
  /// the barrier stays closed, and the next worker to register runs it.
  void Deregister();

  /// Blocks until every registered worker has arrived (or the barrier is
  /// already open). The completing arrival opens the barrier.
  void Arrive();

  bool IsOpen() const;

  /// Expected-thread count; exposed for tests.
  int registered() const;

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  int registered_ = 0;
  int arrived_ = 0;
  bool open_ = false;
};

/// First-caller election helper: exactly one worker performs a light-weight
/// step (the sort's separator computation) while the rest wait at the
/// accompanying barrier (appendix: isFirstWorkerThread()).
class FirstCallerGate {
 public:
  FirstCallerGate() = default;
  CLAIMS_DISALLOW_COPY_AND_ASSIGN(FirstCallerGate);

  /// True for exactly the first invocation.
  bool TryClaim() {
    bool expected = false;
    return claimed_.compare_exchange_strong(expected, true,
                                            std::memory_order_acq_rel);
  }

 private:
  std::atomic<bool> claimed_{false};
};

}  // namespace claims

#endif  // CLAIMS_CORE_BARRIER_H_
