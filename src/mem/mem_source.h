#ifndef CLAIMS_MEM_MEM_SOURCE_H_
#define CLAIMS_MEM_MEM_SOURCE_H_

#include <cstddef>
#include <cstdint>

#include "mem/block_pool.h"

namespace claims {

class QueryBudget;

/// Where a component's big allocations come from and who pays for them:
/// a BlockPool (nullptr = direct new[], the global-allocator twin) and the
/// owning query's ledger (nullptr = uncharged, for standalone structures).
/// Small value type, passed by copy through operator specs.
///
/// AllocateChunk is the one place the degradation handshake lives: allocate
/// (the pool never refuses), then charge the ledger. A refused charge returns
/// the chunk. The caller never sees a chunk whose actual bytes are not
/// already charged.
struct MemSource {
  BlockPool* pool = nullptr;
  QueryBudget* budget = nullptr;

  /// Returns an empty PoolAlloc when the ledger refuses; the caller runs the
  /// next rung of the degradation ladder.
  PoolAlloc AllocateChunk(size_t min_bytes) const;

  /// Releases the chunk and refunds what AllocateChunk charged.
  /// `recycled` distinguishes Arena reuse (arena.recycled_bytes) from final
  /// teardown in the counter it bumps.
  void ReleaseChunk(PoolAlloc alloc, bool recycled = false) const;
};

}  // namespace claims

#endif  // CLAIMS_MEM_MEM_SOURCE_H_
