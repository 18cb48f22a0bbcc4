#include "mem/block_pool.h"

#include <algorithm>
#include <unordered_map>

#include "obs/metrics_registry.h"

namespace claims {

namespace {
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
}  // namespace

/// One free list per size class. Its own mutex, so different classes never
/// contend with each other.
struct BlockPool::CentralList {
  std::mutex mu;
  std::vector<char*> blocks;
};

/// Per-thread, per-pool cache: one bounded magazine per size class. Touched
/// only by the owning thread, its exit included. The pool owns the storage,
/// so a pool destroyed while the thread still runs frees it.
struct BlockPool::ThreadCache {
  std::vector<char*> magazines[kNumSizeClasses];
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

BlockPool::BlockPool() : BlockPool(Options()) {}

BlockPool::BlockPool(Options options)
    : options_(std::move(options)),
      serial_(g_pool_serial.fetch_add(1, std::memory_order_relaxed)),
      central_(std::make_unique<CentralList[]>(kNumSizeClasses)) {
  if (!options_.metric_prefix.empty()) {
    MetricsRegistry* reg = MetricsRegistry::Global();
    const std::string& p = options_.metric_prefix;
    live_gauge_ = reg->gauge(p + ".live_bytes");
    central_gauge_ = reg->gauge(p + ".cached_bytes");
    cap_gauge_ = reg->gauge(p + ".pressure_cap_bytes");
    hits_metric_ = reg->counter(p + ".hits");
    misses_metric_ = reg->counter(p + ".misses");
    oversized_metric_ = reg->counter(p + ".oversized");
    recycled_metric_ = reg->counter(p + ".recycled_bytes");
    released_os_metric_ = reg->counter(p + ".released_to_os_bytes");
    pressure_rejects_metric_ = reg->counter(p + ".pressure_rejects");
    pressure_fallbacks_metric_ = reg->counter(p + ".pressure_fallbacks");
  }
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
    Options o;
    o.metric_prefix = "mem.pool";
    return new BlockPool(std::move(o));
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
  {
    std::lock_guard<std::mutex> lock(caches_mu_);
    caches_.erase(std::find_if(caches_.begin(), caches_.end(),
                               [cache](const std::unique_ptr<ThreadCache>& c) {
                                 return c.get() == cache;
                               }));
  }
  PublishGauges();
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
      static_cast<int64_t>(options_.max_central_bytes)) {
    delete[] data;
    released_to_os_bytes_.fetch_add(bytes, std::memory_order_relaxed);
    if (released_os_metric_ != nullptr) released_os_metric_->Add(bytes);
    return;
  }
  CentralList& list = central_[cls];
  std::lock_guard<std::mutex> lock(list.mu);
  list.blocks.push_back(data);
  central_bytes_.fetch_add(bytes, std::memory_order_relaxed);
}

PoolAlloc BlockPool::Allocate(size_t min_bytes, bool strict) {
  const int cls = SizeClassFor(min_bytes);
  const size_t bytes = cls >= 0 ? SizeClassBytes(cls) : min_bytes;

  const int64_t cap = pressure_cap_bytes_.load(std::memory_order_relaxed);
  if (cap > 0 && live_bytes_.load(std::memory_order_relaxed) +
                         static_cast<int64_t>(bytes) >
                     cap) {
    if (strict) {
      pressure_rejects_.fetch_add(1, std::memory_order_relaxed);
      if (pressure_rejects_metric_ != nullptr) pressure_rejects_metric_->Add();
      return {};
    }
    // Non-strict callers (transit blocks mid-pipeline) must never fail; the
    // squeeze is made visible instead of being enforced.
    pressure_fallbacks_.fetch_add(1, std::memory_order_relaxed);
    if (pressure_fallbacks_metric_ != nullptr) {
      pressure_fallbacks_metric_->Add();
    }
  }

  char* data = nullptr;
  bool recycled = false;
  if (cls >= 0) {
    std::vector<char*>& mag = LocalCache()->magazines[cls];
    if (!mag.empty()) {
      data = mag.back();
      mag.pop_back();
      recycled = true;
    } else {
      // Refill half a magazine from the class's central free list.
      const int want = std::max(1, options_.magazine_capacity / 2);
      while (static_cast<int>(mag.size()) < want) {
        char* b = PopCentral(cls);
        if (b == nullptr) break;
        mag.push_back(b);
      }
      if (!mag.empty()) {
        data = mag.back();
        mag.pop_back();
        recycled = true;
      }
    }
  } else {
    oversized_.fetch_add(1, std::memory_order_relaxed);
    if (oversized_metric_ != nullptr) oversized_metric_->Add();
  }

  if (recycled) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    if (hits_metric_ != nullptr) hits_metric_->Add();
    recycled_bytes_.fetch_add(static_cast<int64_t>(bytes),
                              std::memory_order_relaxed);
    if (recycled_metric_ != nullptr) {
      recycled_metric_->Add(static_cast<int64_t>(bytes));
    }
  } else {
    data = new char[bytes];
    if (cls >= 0) {
      misses_.fetch_add(1, std::memory_order_relaxed);
      if (misses_metric_ != nullptr) misses_metric_->Add();
    }
  }

  live_bytes_.fetch_add(static_cast<int64_t>(bytes),
                        std::memory_order_relaxed);
  PublishGauges();

  PoolAlloc out;
  out.data = data;
  out.bytes = bytes;
  out.size_class = cls;
  return out;
}

void BlockPool::Release(PoolAlloc alloc) {
  if (alloc.data == nullptr) return;
  live_bytes_.fetch_sub(static_cast<int64_t>(alloc.bytes),
                        std::memory_order_relaxed);
  if (alloc.size_class < 0) {
    // Oversized chunks are never cached.
    delete[] alloc.data;
    released_to_os_bytes_.fetch_add(static_cast<int64_t>(alloc.bytes),
                                    std::memory_order_relaxed);
    if (released_os_metric_ != nullptr) {
      released_os_metric_->Add(static_cast<int64_t>(alloc.bytes));
    }
    PublishGauges();
    return;
  }

  std::vector<char*>& mag = LocalCache()->magazines[alloc.size_class];
  mag.push_back(alloc.data);
  if (static_cast<int>(mag.size()) > options_.magazine_capacity) {
    // Magazine overflow: exchange the older half with the central tier.
    const int keep = std::max(1, options_.magazine_capacity / 2);
    while (static_cast<int>(mag.size()) > keep) {
      char* b = mag.front();
      mag.erase(mag.begin());
      PushCentral(alloc.size_class, b);
    }
  }
  PublishGauges();
}

void BlockPool::SetPressureCapBytes(int64_t cap) {
  pressure_cap_bytes_.store(cap > 0 ? cap : 0, std::memory_order_relaxed);
  if (cap_gauge_ != nullptr) cap_gauge_->Set(cap > 0 ? cap : 0);
}

BlockPool::Stats BlockPool::GetStats() const {
  Stats s;
  s.live_bytes = live_bytes_.load(std::memory_order_relaxed);
  s.central_bytes = central_bytes_.load(std::memory_order_relaxed);
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.oversized = oversized_.load(std::memory_order_relaxed);
  s.recycled_bytes = recycled_bytes_.load(std::memory_order_relaxed);
  s.released_to_os_bytes =
      released_to_os_bytes_.load(std::memory_order_relaxed);
  s.pressure_rejects = pressure_rejects_.load(std::memory_order_relaxed);
  s.pressure_fallbacks = pressure_fallbacks_.load(std::memory_order_relaxed);
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
    if (released_os_metric_ != nullptr) released_os_metric_->Add(bytes);
    for (char* b : drained) delete[] b;
  }
  PublishGauges();
}

void BlockPool::PublishGauges() {
  if (live_gauge_ == nullptr) return;
  live_gauge_->Set(
      static_cast<double>(live_bytes_.load(std::memory_order_relaxed)));
  central_gauge_->Set(
      static_cast<double>(central_bytes_.load(std::memory_order_relaxed)));
}

}  // namespace claims
