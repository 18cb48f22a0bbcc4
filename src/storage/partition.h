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

/// Mixes raw bytes into a 64-bit hash (xxhash-style avalanche). Stable across
/// runs — partition placement is deterministic.
uint64_t HashBytes(const void* data, size_t len, uint64_t seed = 0);

/// Hashes the key columns of rows `sel[0..n)` (or rows 0..n-1 when `sel` is
/// null) column-at-a-time into `out[0..n)`. Used for table partitioning and
/// the exchange's shuffles, so the same key always lands on the same
/// partition. Keys that compare equal hash equal: INT32 and DATE hash
/// sign-extended, as the INT64 of their value; CHAR hashes its bytes up to
/// the NUL padding; a FLOAT64 -0.0 hashes as 0.0 (NaN keys are not
/// canonicalized).
void HashRowKeysBatch(const Schema& schema, const char* rows, int32_t stride,
                      const std::vector<int>& key_cols, const int32_t* sel,
                      int32_t n, uint64_t* out);

/// HashRowKeysBatch of one row.
uint64_t HashRowKeys(const Schema& schema, const char* row,
                     const std::vector<int>& key_cols);

/// Maps a key hash onto one of `n` partitions.
inline int PartitionOf(uint64_t hash, int n) {
  return static_cast<int>(hash % static_cast<uint64_t>(n));
}

}  // namespace claims

#endif  // CLAIMS_STORAGE_PARTITION_H_
