#ifndef CLAIMS_CORE_CONTEXT_POOL_H_
#define CLAIMS_CORE_CONTEXT_POOL_H_

#include <memory>
#include <mutex>
#include <vector>

#include "common/macros.h"

namespace claims {

/// Base class for per-worker auxiliary iterator state ("context", §3.2(1)) —
/// e.g. the private partial-aggregation hash table of hybrid aggregation.
class IteratorContext {
 public:
  virtual ~IteratorContext() = default;
};

/// Parking lot for worker contexts across shrink/expand cycles. When a worker
/// terminates it parks its context here instead of destroying it; a later
/// expansion on the same core reuses it and skips the (potentially
/// expensive) initialization — the key to the paper's millisecond-level
/// parallelism adjustments under frequent expand/shrink.
///
/// Reuse is the paper's core mode (§3.2(1)): a context goes only to a worker
/// on the core that built it, where it may still sit in that core's private
/// caches. The paper's void and processor modes trade that locality for
/// more reuse across the sockets of its 2-socket servers; the real engine
/// runs on one socket, so they are not modelled.
class ContextPool {
 public:
  ContextPool() = default;
  CLAIMS_DISALLOW_COPY_AND_ASSIGN(ContextPool);

  /// Parks a context created on `core_id`.
  void Release(std::unique_ptr<IteratorContext> context, int core_id);

  /// Takes a context parked from `core_id`, or nullptr when none is (the
  /// caller then builds a fresh one).
  std::unique_ptr<IteratorContext> Acquire(int core_id);

  /// Drains every parked context (used by blocking iterators that must fold
  /// all partial states into the global one at the end of construction).
  std::vector<std::unique_ptr<IteratorContext>> TakeAll();

  size_t size() const;

  /// Total contexts ever constructed fresh vs reused; exposed so tests and
  /// the Fig. 9 bench can verify reuse actually happens.
  int64_t reuse_count() const;

 private:
  struct Entry {
    std::unique_ptr<IteratorContext> context;
    int core_id;
  };

  mutable std::mutex mu_;
  std::vector<Entry> entries_;
  int64_t reuse_count_ = 0;
};

}  // namespace claims

#endif  // CLAIMS_CORE_CONTEXT_POOL_H_
