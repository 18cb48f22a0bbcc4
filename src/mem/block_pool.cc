#include "mem/block_pool.h"

#include <algorithm>
#include <unordered_map>

#include "mem/query_budget.h"
#include "obs/metrics_registry.h"

namespace claims {

namespace {
/// Per-class magazine capacity of each thread cache. Half a magazine is
/// exchanged with the central tier on miss/overflow.
constexpr size_t kMagazineCapacity = 8;
/// Bound on idle bytes parked in the central tier (excess is returned to
/// the OS). Thread magazines are small and not counted against this.
constexpr int64_t kMaxCentralBytes = int64_t{256} << 20;  // 256 MiB

/// Distinguishes pools inside the per-thread cache map. Monotone, never
/// reused, so a stale map entry for a destroyed pool can never be looked up
/// again (a new pool always carries a new serial).
std::atomic<uint64_t> g_pool_serial{1};

/// Live pools by serial. An exiting thread looks its pools up here, so a
/// pool destroyed before the thread exits is skipped, never touched. Leaked
/// on purpose: threads may exit during static destruction.
struct PoolRegistry {
  std::mutex mu;
  std::unordered_map<uint64_t, BlockPool*> live;  ///< guarded by mu
};

PoolRegistry& Registry() {
  static PoolRegistry* registry = new PoolRegistry;
  return *registry;
}

/// Adds to a count only its owning thread writes: a plain load and store,
/// no locked read-modify-write. Atomic only so GetStats may read it.
void Bump(std::atomic<int64_t>& count, int64_t delta) {
  count.store(count.load(std::memory_order_relaxed) + delta,
              std::memory_order_relaxed);
}

/// Moves a registry counter up to `total`, a running total kept elsewhere.
void AdvanceTo(MetricCounter* counter, int64_t total) {
  const int64_t delta = total - counter->value();
  if (delta > 0) counter->Add(delta);
}

/// Fills the mem.* metrics from the global pool's and the ledgers' totals
/// whenever the registry is read, so no allocation or charge publishes.
void RegisterMemoryMetrics(const BlockPool* pool) {
  MetricsRegistry* reg = MetricsRegistry::Global();
  MetricGauge* live = reg->gauge("mem.pool.live_bytes");
  MetricGauge* cached = reg->gauge("mem.pool.cached_bytes");
  MetricCounter* hits = reg->counter("mem.pool.hits");
  MetricCounter* misses = reg->counter("mem.pool.misses");
  MetricCounter* oversized = reg->counter("mem.pool.oversized");
  MetricCounter* recycled = reg->counter("mem.pool.recycled_bytes");
  MetricCounter* released = reg->counter("mem.pool.released_to_os_bytes");
  MetricGauge* charged = reg->gauge("mem.charged_bytes");
  MetricGauge* budget = reg->gauge("mem.budget_bytes");
  MetricGauge* cap = reg->gauge("mem.process_cap_bytes");
  reg->AddRefreshHook([=] {
    const BlockPool::Stats s = pool->GetStats();
    live->Set(static_cast<double>(s.live_bytes));
    cached->Set(static_cast<double>(s.central_bytes));
    AdvanceTo(hits, s.hits);
    AdvanceTo(misses, s.misses);
    AdvanceTo(oversized, s.oversized);
    AdvanceTo(recycled, s.recycled_bytes);
    AdvanceTo(released, s.released_to_os_bytes);
    charged->Set(static_cast<double>(QueryBudget::TotalChargedBytes()));
    budget->Set(static_cast<double>(QueryBudget::TotalBudgetBytes()));
    cap->Set(static_cast<double>(QueryBudget::process_cap_bytes()));
  });
}
}  // namespace

/// One free list per size class. Its own mutex, so different classes never
/// contend with each other.
struct BlockPool::CentralList {
  std::mutex mu;
  std::vector<char*> blocks;
};

/// Per-thread, per-pool cache: one bounded magazine per size class, and the
/// hot path's counts. Written only by the owning thread, its exit included;
/// GetStats reads the counts under caches_mu_. The pool owns the storage, so
/// a pool destroyed while the thread still runs frees it. Cache-line aligned
/// so two threads' caches never share a line.
struct alignas(64) BlockPool::ThreadCache {
  std::vector<char*> magazines[kNumSizeClasses];
  std::atomic<int64_t> hits{0};
  std::atomic<int64_t> recycled_bytes{0};
  /// Allocated minus released by this thread; negative when it frees chunks
  /// other threads allocated. Only the sum over all caches means anything.
  std::atomic<int64_t> live_bytes{0};
};

/// The calling thread's caches, one per pool it has used. Retired when the
/// thread exits or calls RetireCallingThreadCaches: each cache whose pool is
/// still live goes back to that pool's central tier, under the registry lock
/// so the pool cannot be destroyed meanwhile.
struct BlockPool::ThreadCacheSet {
  std::unordered_map<uint64_t, ThreadCache*> by_pool;

  void RetireAll() {
    if (by_pool.empty()) return;
    PoolRegistry& registry = Registry();
    std::lock_guard<std::mutex> lock(registry.mu);
    for (const auto& [serial, cache] : by_pool) {
      auto it = registry.live.find(serial);
      if (it != registry.live.end()) it->second->RetireCache(cache);
    }
    by_pool.clear();
  }

  ~ThreadCacheSet() { RetireAll(); }
};

BlockPool::BlockPool()
    : serial_(g_pool_serial.fetch_add(1, std::memory_order_relaxed)),
      central_(std::make_unique<CentralList[]>(kNumSizeClasses)) {
  PoolRegistry& registry = Registry();
  std::lock_guard<std::mutex> lock(registry.mu);
  registry.live.emplace(serial_, this);
}

BlockPool::~BlockPool() {
  {
    // Unregister before freeing anything: from here on no exiting thread
    // can reach this pool.
    PoolRegistry& registry = Registry();
    std::lock_guard<std::mutex> lock(registry.mu);
    registry.live.erase(serial_);
  }
  // By destruction time no thread may still be allocating from this pool;
  // every cached chunk (magazines of threads still running + central tier)
  // is plain new[] storage.
  for (auto& cache : caches_) {
    for (auto& mag : cache->magazines) {
      for (char* b : mag) delete[] b;
    }
  }
  for (int cls = 0; cls < kNumSizeClasses; ++cls) {
    for (char* b : central_[cls].blocks) delete[] b;
  }
}

BlockPool* BlockPool::Global() {
  // Leaked on purpose: worker threads and static destruction order must
  // never race a pool teardown.
  static BlockPool* pool = [] {
    auto* p = new BlockPool;
    RegisterMemoryMetrics(p);
    return p;
  }();
  return pool;
}

BlockPool::ThreadCacheSet& BlockPool::CallingThreadCaches() {
  thread_local ThreadCacheSet caches;
  return caches;
}

void BlockPool::RetireCallingThreadCaches() {
  CallingThreadCaches().RetireAll();
}

BlockPool::ThreadCache* BlockPool::LocalCache() {
  ThreadCacheSet& caches = CallingThreadCaches();
  auto it = caches.by_pool.find(serial_);
  if (it != caches.by_pool.end()) return it->second;
  auto owned = std::make_unique<ThreadCache>();
  ThreadCache* cache = owned.get();
  {
    std::lock_guard<std::mutex> lock(caches_mu_);
    caches_.push_back(std::move(owned));
  }
  caches.by_pool.emplace(serial_, cache);
  return cache;
}

void BlockPool::RetireCache(ThreadCache* cache) {
  for (int cls = 0; cls < kNumSizeClasses; ++cls) {
    for (char* b : cache->magazines[cls]) PushCentral(cls, b);
  }
  std::lock_guard<std::mutex> lock(caches_mu_);
  retired_hits_ += cache->hits.load(std::memory_order_relaxed);
  retired_recycled_bytes_ +=
      cache->recycled_bytes.load(std::memory_order_relaxed);
  retired_live_bytes_ += cache->live_bytes.load(std::memory_order_relaxed);
  caches_.erase(std::find_if(caches_.begin(), caches_.end(),
                             [cache](const std::unique_ptr<ThreadCache>& c) {
                               return c.get() == cache;
                             }));
}

char* BlockPool::PopCentral(int cls) {
  CentralList& list = central_[cls];
  std::lock_guard<std::mutex> lock(list.mu);
  if (list.blocks.empty()) return nullptr;
  char* b = list.blocks.back();
  list.blocks.pop_back();
  central_bytes_.fetch_sub(static_cast<int64_t>(SizeClassBytes(cls)),
                           std::memory_order_relaxed);
  return b;
}

void BlockPool::PushCentral(int cls, char* data) {
  const int64_t bytes = static_cast<int64_t>(SizeClassBytes(cls));
  if (central_bytes_.load(std::memory_order_relaxed) + bytes >
      kMaxCentralBytes) {
    delete[] data;
    released_to_os_bytes_.fetch_add(bytes, std::memory_order_relaxed);
    return;
  }
  CentralList& list = central_[cls];
  std::lock_guard<std::mutex> lock(list.mu);
  list.blocks.push_back(data);
  central_bytes_.fetch_add(bytes, std::memory_order_relaxed);
}

PoolAlloc BlockPool::Allocate(size_t min_bytes) {
  const int cls = SizeClassFor(min_bytes);
  const size_t bytes = cls >= 0 ? SizeClassBytes(cls) : min_bytes;
  ThreadCache* cache = LocalCache();
  char* data = nullptr;
  if (cls >= 0) {
    std::vector<char*>& mag = cache->magazines[cls];
    if (mag.empty()) {
      // Refill half a magazine from the class's central free list.
      while (mag.size() < kMagazineCapacity / 2) {
        char* b = PopCentral(cls);
        if (b == nullptr) break;
        mag.push_back(b);
      }
    }
    if (!mag.empty()) {
      data = mag.back();
      mag.pop_back();
      Bump(cache->hits, 1);
      Bump(cache->recycled_bytes, static_cast<int64_t>(bytes));
    } else {
      misses_.fetch_add(1, std::memory_order_relaxed);
    }
  } else {
    oversized_.fetch_add(1, std::memory_order_relaxed);
  }
  if (data == nullptr) data = new char[bytes];
  Bump(cache->live_bytes, static_cast<int64_t>(bytes));
  return PoolAlloc{data, bytes, cls};
}

void BlockPool::Release(PoolAlloc alloc) {
  if (alloc.data == nullptr) return;
  ThreadCache* cache = LocalCache();
  Bump(cache->live_bytes, -static_cast<int64_t>(alloc.bytes));
  if (alloc.size_class < 0) {
    // Oversized chunks are never cached.
    delete[] alloc.data;
    released_to_os_bytes_.fetch_add(static_cast<int64_t>(alloc.bytes),
                                    std::memory_order_relaxed);
    return;
  }
  std::vector<char*>& mag = cache->magazines[alloc.size_class];
  mag.push_back(alloc.data);
  if (mag.size() > kMagazineCapacity) {
    // Magazine overflow: hand the older half to the central tier.
    const auto older = mag.end() - kMagazineCapacity / 2;
    for (auto it = mag.begin(); it != older; ++it) {
      PushCentral(alloc.size_class, *it);
    }
    mag.erase(mag.begin(), older);
  }
}

BlockPool::Stats BlockPool::GetStats() const {
  Stats s;
  {
    std::lock_guard<std::mutex> lock(caches_mu_);
    s.hits = retired_hits_;
    s.recycled_bytes = retired_recycled_bytes_;
    s.live_bytes = retired_live_bytes_;
    for (const auto& cache : caches_) {
      s.hits += cache->hits.load(std::memory_order_relaxed);
      s.recycled_bytes +=
          cache->recycled_bytes.load(std::memory_order_relaxed);
      s.live_bytes += cache->live_bytes.load(std::memory_order_relaxed);
    }
  }
  s.central_bytes = central_bytes_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.oversized = oversized_.load(std::memory_order_relaxed);
  s.released_to_os_bytes =
      released_to_os_bytes_.load(std::memory_order_relaxed);
  return s;
}

void BlockPool::TrimCaches() {
  for (int cls = 0; cls < kNumSizeClasses; ++cls) {
    CentralList& list = central_[cls];
    std::vector<char*> drained;
    {
      std::lock_guard<std::mutex> lock(list.mu);
      drained.swap(list.blocks);
    }
    const int64_t bytes =
        static_cast<int64_t>(SizeClassBytes(cls)) * drained.size();
    central_bytes_.fetch_sub(bytes, std::memory_order_relaxed);
    released_to_os_bytes_.fetch_add(bytes, std::memory_order_relaxed);
    for (char* b : drained) delete[] b;
  }
}

}  // namespace claims
