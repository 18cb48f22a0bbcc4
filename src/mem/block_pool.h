#ifndef CLAIMS_MEM_BLOCK_POOL_H_
#define CLAIMS_MEM_BLOCK_POOL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/macros.h"
#include "mem/size_class.h"

namespace claims {

/// A chunk handed out by BlockPool. `bytes` is the actual (rounded-up) size
/// of the allocation — callers charge ledgers with this, not with the size
/// they asked for, so accounting matches what the pool really holds.
struct PoolAlloc {
  char* data = nullptr;
  size_t bytes = 0;
  /// Size class the chunk belongs to; -1 for oversized direct allocations.
  int size_class = -1;

  explicit operator bool() const { return data != nullptr; }
};

/// Recycling block pool with power-of-two size classes (mem/size_class.h),
/// thread-local magazines, and a shared central tier of one free list per
/// size class. Modelled on the size-classed schemes Durner et al. show are
/// worth >2x on in-memory query processing: the hot path (magazine hit) is
/// a thread-local pop that writes nothing shared — not even a counter: hits,
/// recycled bytes and live bytes are kept in the calling thread's cache and
/// summed when GetStats (or a /metrics read) asks. Misses exchange half a
/// magazine with the central tier under a short mutex.
///
/// The pool only recycles. It never refuses an allocation and accounts for
/// no owner: the per-query QueryBudget ledger (mem/query_budget.h) is the one
/// accounting, and the one place memory is refused (docs/MEMORY.md).
///
/// Thread-safety: fully thread-safe. Magazines are thread-local; cross-thread
/// block handoff happens only through the central mutex, so TSan sees a clean
/// release/acquire chain on recycled memory.
class BlockPool {
 public:
  BlockPool();
  ~BlockPool();

  CLAIMS_DISALLOW_COPY_AND_ASSIGN(BlockPool);

  /// Process-wide pool every subsystem shares by default. Leaked on purpose:
  /// worker threads and static-destruction order must never race a pool
  /// teardown. Its figures (and the ledgers' totals) fill the `mem.*`
  /// metrics whenever the global MetricsRegistry is read.
  static BlockPool* Global();

  /// Returns a chunk of at least `min_bytes` (rounded up to its size class;
  /// oversized requests are served exactly). Never fails.
  PoolAlloc Allocate(size_t min_bytes);

  /// Returns a chunk to the pool (magazine first, central tier on overflow).
  /// Accepts empty handles as a no-op so callers can release unconditionally.
  void Release(PoolAlloc alloc);

  /// Point-in-time snapshot of the pool counters (tests, /metrics). Sums the
  /// per-thread counts under caches_mu_: exact once the threads using the
  /// pool are quiescent, a close estimate while they run.
  struct Stats {
    int64_t live_bytes = 0;      ///< handed out, not yet released
    int64_t central_bytes = 0;   ///< idle in the central tier
    int64_t hits = 0;            ///< served from magazine or central tier
    int64_t misses = 0;          ///< had to allocate fresh from the OS
    int64_t oversized = 0;       ///< direct allocations above the max class
    int64_t recycled_bytes = 0;  ///< bytes served from recycled chunks
    int64_t released_to_os_bytes = 0;
  };
  Stats GetStats() const;

  /// Drains the central tier back to the OS (tests; between bench reps).
  /// Live allocations and running threads' magazines are unaffected: a
  /// magazine belongs to its thread and cannot be drained from outside
  /// race-free. It returns to the central tier when its thread exits or
  /// calls RetireCallingThreadCaches.
  void TrimCaches();

  /// Hands the calling thread's magazines, in every live pool it has used,
  /// back to those pools' central tiers and drops its caches, exactly as
  /// thread exit does. A parked thread (core/pooled_thread.h) calls this
  /// after every task, so an idle thread holds no pool memory.
  static void RetireCallingThreadCaches();

 private:
  struct CentralList;
  struct ThreadCache;
  struct ThreadCacheSet;

  static ThreadCacheSet& CallingThreadCaches();
  ThreadCache* LocalCache();
  /// Retire path (thread exit, RetireCallingThreadCaches): moves `cache`'s
  /// magazines to the central tier, folds its counts into retired_, and
  /// frees the cache. Runs under the live-pool registry lock, so the pool
  /// cannot be destroyed meanwhile.
  void RetireCache(ThreadCache* cache);
  char* PopCentral(int cls);
  void PushCentral(int cls, char* data);

  const uint64_t serial_;  ///< distinguishes pools in thread-local maps

  /// Slow-path counts, pool-wide.
  std::atomic<int64_t> central_bytes_{0};
  std::atomic<int64_t> misses_{0};
  std::atomic<int64_t> oversized_{0};
  std::atomic<int64_t> released_to_os_bytes_{0};

  /// Central tier: one free list per size class, each under its own mutex so
  /// classes don't contend with each other.
  std::unique_ptr<CentralList[]> central_;

  /// The cache of every running thread that has used this pool. A thread's
  /// exit (or RetireCallingThreadCaches) retires its cache; the destructor
  /// frees those of threads still running (threads may outlive the pool).
  mutable std::mutex caches_mu_;
  std::vector<std::unique_ptr<ThreadCache>> caches_;
  /// Hot-path counts of caches already retired (guarded by caches_mu_).
  int64_t retired_hits_ = 0;
  int64_t retired_recycled_bytes_ = 0;
  int64_t retired_live_bytes_ = 0;
};

}  // namespace claims

#endif  // CLAIMS_MEM_BLOCK_POOL_H_
