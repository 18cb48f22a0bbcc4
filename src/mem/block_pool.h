#ifndef CLAIMS_MEM_BLOCK_POOL_H_
#define CLAIMS_MEM_BLOCK_POOL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/macros.h"
#include "mem/size_class.h"

namespace claims {

class MetricCounter;
class MetricGauge;

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
/// a thread-local pop with no atomics; misses exchange half a magazine with
/// the central tier under a short mutex.
///
/// Pressure: SetPressureCapBytes(cap) bounds live (handed-out) bytes.
/// `strict` allocations fail once the cap is hit — that is the signal the
/// degradation ladder (shrink -> spill -> kResourceExhausted, see
/// docs/MEMORY.md) is built on. Non-strict allocations always succeed (the
/// transit-block path must never wedge a pipeline mid-stream); under the cap
/// they are counted as pressure fallbacks so chaos runs can see the squeeze.
///
/// Thread-safety: fully thread-safe. Magazines are thread-local; cross-thread
/// block handoff happens only through the central mutex, so TSan sees a clean
/// release/acquire chain on recycled memory.
class BlockPool {
 public:
  struct Options {
    /// Per-class magazine capacity of each thread cache. Half a magazine is
    /// exchanged with the central tier on miss/overflow.
    int magazine_capacity = 8;
    /// Bound on idle bytes parked in the central tier (excess is returned to
    /// the OS). Thread magazines are small and not counted against this.
    size_t max_central_bytes = size_t{256} << 20;  // 256 MiB
    /// When non-empty, pool gauges/counters are registered in the global
    /// MetricsRegistry under this prefix ("mem.pool" for the global pool).
    std::string metric_prefix;
  };

  BlockPool();  // default Options
  explicit BlockPool(Options options);
  ~BlockPool();

  CLAIMS_DISALLOW_COPY_AND_ASSIGN(BlockPool);

  /// Process-wide pool every subsystem shares by default. Leaked on purpose:
  /// worker threads and static-destruction order must never race a pool
  /// teardown.
  static BlockPool* Global();

  /// Returns a chunk of at least `min_bytes` (rounded up to its size class;
  /// oversized requests are served exactly). Strict allocations return an
  /// empty PoolAlloc when the pressure cap would be exceeded; non-strict
  /// ones always succeed.
  PoolAlloc Allocate(size_t min_bytes, bool strict = false);

  /// Returns a chunk to the pool (magazine first, central tier on overflow).
  /// Accepts empty handles as a no-op so callers can release unconditionally.
  void Release(PoolAlloc alloc);

  /// Caps live (handed-out) bytes; <= 0 removes the cap. The mempressure
  /// fault actuates this.
  void SetPressureCapBytes(int64_t cap);
  int64_t pressure_cap_bytes() const {
    return pressure_cap_bytes_.load(std::memory_order_relaxed);
  }

  /// Point-in-time snapshot of the pool counters (tests, /metrics).
  struct Stats {
    int64_t live_bytes = 0;      ///< handed out, not yet released
    int64_t central_bytes = 0;   ///< idle in the central tier
    int64_t hits = 0;            ///< served from magazine or central tier
    int64_t misses = 0;          ///< had to allocate fresh from the OS
    int64_t oversized = 0;       ///< direct allocations above the max class
    int64_t recycled_bytes = 0;  ///< bytes served from recycled chunks
    int64_t released_to_os_bytes = 0;
    int64_t pressure_rejects = 0;    ///< strict allocations refused by cap
    int64_t pressure_fallbacks = 0;  ///< non-strict allocations under cap
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
  /// magazines to the central tier and frees the cache. Runs under the
  /// live-pool registry lock, so the pool cannot be destroyed meanwhile.
  void RetireCache(ThreadCache* cache);
  char* PopCentral(int cls);
  void PushCentral(int cls, char* data);
  void PublishGauges();

  const Options options_;
  const uint64_t serial_;  ///< distinguishes pools in thread-local maps

  std::atomic<int64_t> pressure_cap_bytes_{0};
  std::atomic<int64_t> live_bytes_{0};
  std::atomic<int64_t> central_bytes_{0};
  std::atomic<int64_t> hits_{0};
  std::atomic<int64_t> misses_{0};
  std::atomic<int64_t> oversized_{0};
  std::atomic<int64_t> recycled_bytes_{0};
  std::atomic<int64_t> released_to_os_bytes_{0};
  std::atomic<int64_t> pressure_rejects_{0};
  std::atomic<int64_t> pressure_fallbacks_{0};

  /// Central tier: one free list per size class, each under its own mutex so
  /// classes don't contend with each other.
  std::unique_ptr<CentralList[]> central_;

  /// The cache of every running thread that has used this pool. A thread's
  /// exit (or RetireCallingThreadCaches) retires its cache; the destructor
  /// frees those of threads still running (threads may outlive the pool).
  std::mutex caches_mu_;
  std::vector<std::unique_ptr<ThreadCache>> caches_;

  /// Registered once when metric_prefix is set; nullptr otherwise.
  MetricGauge* live_gauge_ = nullptr;
  MetricGauge* central_gauge_ = nullptr;
  MetricGauge* cap_gauge_ = nullptr;
  MetricCounter* hits_metric_ = nullptr;
  MetricCounter* misses_metric_ = nullptr;
  MetricCounter* oversized_metric_ = nullptr;
  MetricCounter* recycled_metric_ = nullptr;
  MetricCounter* released_os_metric_ = nullptr;
  MetricCounter* pressure_rejects_metric_ = nullptr;
  MetricCounter* pressure_fallbacks_metric_ = nullptr;
};

}  // namespace claims

#endif  // CLAIMS_MEM_BLOCK_POOL_H_
