#include "mem/mem_source.h"

#include "mem/query_budget.h"
#include "obs/metrics_registry.h"

namespace claims {

PoolAlloc MemSource::AllocateChunk(size_t min_bytes) const {
  PoolAlloc alloc;
  if (pool != nullptr) {
    // Allocations under a bounded ledger are strict: the pool's pressure cap
    // refuses them so the degradation ladder engages instead of silently
    // growing. Everything else never fails (counted as pressure fallbacks).
    const bool strict = budget != nullptr && budget->budget_bytes() > 0;
    alloc = pool->Allocate(min_bytes, strict);
    if (!alloc) {
      budget->NotePressure();
      // One retry after the shrink hook had its chance to free capacity.
      alloc = pool->Allocate(min_bytes, strict);
      if (!alloc) return {};
    }
  } else {
    alloc.data = new char[min_bytes];
    alloc.bytes = min_bytes;
  }
  if (budget != nullptr && !budget->Charge(static_cast<int64_t>(alloc.bytes))) {
    if (pool != nullptr) {
      pool->Release(alloc);
    } else {
      delete[] alloc.data;
    }
    return {};
  }
  return alloc;
}

void MemSource::ReleaseChunk(PoolAlloc alloc, bool recycled) const {
  if (alloc.data == nullptr) return;
  if (budget != nullptr) {
    budget->Release(static_cast<int64_t>(alloc.bytes));
  }
  if (recycled) {
    static MetricCounter* recycled_metric =
        MetricsRegistry::Global()->counter("arena.recycled_bytes");
    recycled_metric->Add(static_cast<int64_t>(alloc.bytes));
  }
  if (pool != nullptr) {
    pool->Release(alloc);
  } else {
    delete[] alloc.data;
  }
}

}  // namespace claims
