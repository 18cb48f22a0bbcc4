#include "mem/mem_source.h"

#include "mem/query_budget.h"
#include "obs/metrics_registry.h"

namespace claims {

PoolAlloc MemSource::AllocateChunk(size_t min_bytes) const {
  PoolAlloc alloc;
  if (pool != nullptr) {
    alloc = pool->Allocate(min_bytes);
  } else {
    alloc.data = new char[min_bytes];
    alloc.bytes = min_bytes;
  }
  if (budget != nullptr &&
      !budget->TryCharge(static_cast<int64_t>(alloc.bytes))) {
    MemSource{pool, nullptr}.ReleaseChunk(alloc);  // never charged
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
