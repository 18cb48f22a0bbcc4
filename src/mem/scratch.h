#ifndef CLAIMS_MEM_SCRATCH_H_
#define CLAIMS_MEM_SCRATCH_H_

#include <cstddef>
#include <memory>

#include "common/macros.h"
#include "mem/mem_source.h"

namespace claims {

/// RAII scratch array for operator inner loops (selection vectors, group-row
/// staging, hash vectors, argument columns). Pool-backed when a pool is given — per-block
/// scratch is exactly the churn a recycling pool exists for — with a plain
/// new[] fallback so operators built without a pool behave as before.
///
/// Unbudgeted on purpose: scratch is transient (lives for one block) and
/// bounded by the block size, so it is not charged against the query ledger
/// — only *state* (arenas, buffered blocks) binds the budget; see
/// docs/MEMORY.md. T must be trivially destructible; contents start
/// uninitialized (recycled chunks keep old bytes).
template <typename T>
class Scratch {
 public:
  Scratch(BlockPool* pool, size_t count)
      : source_{pool, nullptr},
        alloc_(source_.AllocateChunk(count * sizeof(T))) {}
  ~Scratch() { source_.ReleaseChunk(alloc_); }
  CLAIMS_DISALLOW_COPY_AND_ASSIGN(Scratch);

  T* data() { return reinterpret_cast<T*>(alloc_.data); }
  const T* data() const { return reinterpret_cast<const T*>(alloc_.data); }
  T& operator[](size_t i) { return data()[i]; }

 private:
  MemSource source_;
  PoolAlloc alloc_;
};

/// Fixed-size array of value-initialized T on Scratch storage, for the hash
/// tables' slot arrays. Pool chunks stay mapped, so every query's tables
/// start on resident memory; from the global allocator, whether they got
/// fresh pages depended on whether free() had returned the previous query's
/// arrays to the OS. Not charged to any ledger: a table grows its array as
/// its keys come (a join's starts at its build estimate).
template <typename T>
class PooledArray {
 public:
  PooledArray(BlockPool* pool, size_t count)
      : storage_(pool, count), size_(count) {
    std::uninitialized_value_construct_n(storage_.data(), size_);
  }

  size_t size() const { return size_; }
  T& operator[](size_t i) { return storage_.data()[i]; }
  const T& operator[](size_t i) const { return storage_.data()[i]; }
  const T* begin() const { return storage_.data(); }
  const T* end() const { return storage_.data() + size_; }

 private:
  Scratch<T> storage_;
  size_t size_;
};

}  // namespace claims

#endif  // CLAIMS_MEM_SCRATCH_H_
