#ifndef CLAIMS_STORAGE_PARTITION_H_
#define CLAIMS_STORAGE_PARTITION_H_

#include <cstdint>
#include <vector>

#include "storage/schema.h"

namespace claims {

/// The 64-bit finalizer (murmur3's fmix64) every hash here mixes words with.
inline uint64_t MixHash(uint64_t h) {
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDULL;
  h ^= h >> 33;
  h *= 0xC4CEB9FE1A85EC53ULL;
  h ^= h >> 33;
  return h;
}

/// The one key hash: of the key columns `cols` of rows `[0..n)` (`rows + i *
/// stride`) into `out[0..n)`. The loader, the exchange's shuffles and both
/// slot tables call it. It hashes values, so equal keys hash equal across
/// types and widths: INT32, DATE and an integral FLOAT64 (-0.0 too) as the
/// INT64 of their value, CHAR up to its NUL padding (docs/VECTORIZATION.md).
/// A one-column integer key v hashes to MixHash(seed ^ v). Routing reads the
/// low bits (PartitionOf), the slot tables bits 16 and up (SlotTable::HomeOf).
void HashKeys(const Schema& schema, const char* rows, int32_t stride,
              const std::vector<int>& cols, int32_t n, uint64_t* out);

/// Maps a key hash onto one of `n` partitions.
inline int PartitionOf(uint64_t hash, int n) {
  return static_cast<int>(hash % static_cast<uint64_t>(n));
}

}  // namespace claims

#endif  // CLAIMS_STORAGE_PARTITION_H_
