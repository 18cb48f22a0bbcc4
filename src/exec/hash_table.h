#ifndef CLAIMS_EXEC_HASH_TABLE_H_
#define CLAIMS_EXEC_HASH_TABLE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <vector>

#include "common/macros.h"
#include "common/status.h"
#include "mem/mem_source.h"
#include "mem/scratch.h"
#include "storage/partition.h"
#include "storage/schema.h"
#include "storage/value.h"

namespace claims {

class SpillRun;

/// Lock-free bump allocator: entries for the shared hash tables are carved
/// out of large chunks; allocation is a CAS on the chunk offset, chunk
/// refills take a mutex. Nothing is freed until Reset() or destruction —
/// hash-table entries live exactly as long as the iterator state (paper §3:
/// state is shared, never migrated).
///
/// Chunks come from the MemSource: recycled through the BlockPool and
/// charged against the owning query's budget when one is attached. A refused
/// chunk makes Allocate return nullptr — callers surface that as a fallible
/// insert so the operator can run the degradation ladder (docs/MEMORY.md).
class Arena {
 public:
  explicit Arena(size_t chunk_bytes = 1 << 20, MemSource source = {})
      : chunk_bytes_(chunk_bytes), source_(source) {}
  ~Arena();
  CLAIMS_DISALLOW_COPY_AND_ASSIGN(Arena);

  /// Thread-safe; 8-byte aligned. nullptr when the memory source refuses
  /// (query over budget / process cap) — never throws, never blocks.
  char* Allocate(size_t bytes);

  /// Allocate for a caller that is the arena's only user: the bump path
  /// takes no atomic read-modify-write. Refills go through Allocate.
  char* AllocateExclusive(size_t bytes);

  /// Returns every chunk to the memory source (pool recycling instead of
  /// global-allocator churn) and rewinds to empty. NOT thread-safe: caller
  /// must be the exclusive owner with no outstanding pointers into the arena.
  void Reset();

  /// Exchanges every chunk (and the source they return to) with `other`.
  /// NOT thread-safe: the caller owns both arenas.
  void Swap(Arena* other);

  /// Calls fn(begin, end) over the bytes handed out of each chunk, oldest
  /// chunk first. NOT thread-safe: no allocation may run concurrently.
  template <typename Fn>
  void ForEachChunk(Fn&& fn) const {
    for (const auto& c : chunks_) {
      // An allocation that overshot the chunk moved the cursor past limit.
      fn(c->handle.data,
         std::min(c->cursor.load(std::memory_order_relaxed), c->limit));
    }
  }

  int64_t allocated_bytes() const {
    return allocated_.load(std::memory_order_relaxed);
  }

 private:
  /// One bump region. `handle.data`/`limit` are immutable after construction
  /// — only the cursor moves — so the fast path never pairs a cursor from one
  /// chunk with the limit of another (the torn-read bug a separate atomic
  /// limit had: with unrelated heap addresses, that comparison could hand out
  /// memory past the real chunk end).
  struct Chunk {
    PoolAlloc handle;           ///< backing storage (pool or direct new[])
    char* limit;                ///< handle.data + handle.bytes
    std::atomic<char*> cursor;  ///< next free byte
  };

  void ReleaseChunksLocked();

  size_t chunk_bytes_;
  MemSource source_;
  std::mutex refill_mu_;
  std::vector<std::unique_ptr<Chunk>> chunks_;
  /// Current bump region; release-published by the refiller, acquire-loaded
  /// by allocators so the chunk memory is visible before any payload write.
  std::atomic<Chunk*> current_{nullptr};
  std::atomic<int64_t> allocated_{0};
};

/// Compares the key columns of rows that may live in different schemas (the
/// build row vs the probe row of a join). Key column lists must be
/// type-compatible (enforced by the binder).
class KeyComparator {
 public:
  KeyComparator(const Schema* left_schema, std::vector<int> left_cols,
                const Schema* right_schema, std::vector<int> right_cols);

  bool Equal(const char* left_row, const char* right_row) const;

 private:
  const Schema* left_schema_;
  const Schema* right_schema_;
  std::vector<int> left_cols_;
  std::vector<int> right_cols_;
};

/// Concurrent multi-map for the hash-join build side (appendix Alg. 6):
/// chained entries, **CAS head insertion** so all worker threads build in
/// parallel without locks; probe is read-only and needs no synchronization
/// at all. The bucket array is sized once, from the expected build rows
/// (BucketsFor); head insertion is correct at any bucket count, so an
/// underestimate only lengthens the chains until RelinkIfOverloaded, which
/// the join runs once its build is complete.
class JoinHashTable {
 public:
  JoinHashTable(const Schema* build_schema, std::vector<int> build_keys,
                size_t num_buckets, MemSource source = {});
  CLAIMS_DISALLOW_COPY_AND_ASSIGN(JoinHashTable);

  /// Bucket count for `rows` build rows: 2 x rows rounded up to a power of
  /// two, so a full build holds at most one row per bucket on average.
  static size_t BucketsFor(int64_t rows);

  /// Moves every entry into a bucket array of BucketsFor(size()) buckets
  /// when the table holds more than 2 rows per bucket; true when it did.
  /// Walks the chains (an arena chunk may hold bytes no entry owns), and
  /// needs the caller to be the table's only user: no Insert or probe runs
  /// concurrently.
  bool RelinkIfOverloaded();

  /// Copies `row` into the arena and links it; thread-safe. false when the
  /// arena's memory source refused the bytes (query over budget).
  bool Insert(const char* row);

  /// Same, with the key hash precomputed (batch build path: the whole block
  /// is hashed column-at-a-time first). Must be the HashRowKeys hash.
  bool Insert(const char* row, uint64_t hash);

  /// Invokes `fn(const char* build_row)` for every build row whose key equals
  /// the probe row's key.
  template <typename Fn>
  void ForEachMatch(const Schema& probe_schema, const char* probe_row,
                    const std::vector<int>& probe_keys, Fn&& fn) const {
    uint64_t h = HashRowKeys(probe_schema, probe_row, probe_keys);
    KeyComparator cmp(build_schema_, build_keys_, &probe_schema, probe_keys);
    ForEachMatchHashed(h, cmp, probe_row, fn);
  }

  /// Vectorized-probe core: hash and comparator are supplied by the caller,
  /// so a probe block hashes once (column-at-a-time) and reuses one hoisted
  /// KeyComparator instead of constructing one — two vector copies — per row.
  template <typename Fn>
  void ForEachMatchHashed(uint64_t h, const KeyComparator& cmp,
                          const char* probe_row, Fn&& fn) const {
    for (const Entry* e =
             buckets_[h & bucket_mask_].load(std::memory_order_acquire);
         e != nullptr; e = e->next) {
      if (e->hash == h && cmp.Equal(e->row(), probe_row)) {
        fn(e->row());
      }
    }
  }

  int64_t size() const { return size_.load(std::memory_order_relaxed); }
  int64_t bytes() const { return arena_.allocated_bytes(); }
  size_t bucket_count() const { return bucket_mask_ + 1; }

 private:
  struct Entry {
    Entry* next;
    uint64_t hash;
    char* row() { return reinterpret_cast<char*>(this + 1); }
    const char* row() const { return reinterpret_cast<const char*>(this + 1); }
  };
  using BucketArray = PooledArray<std::atomic<Entry*>>;

  const Schema* build_schema_;
  std::vector<int> build_keys_;
  /// Bucket count is rounded up to a power of two so the per-probe index is
  /// a mask, not an integer division. Drawn from the source's pool;
  /// RelinkIfOverloaded replaces it.
  BlockPool* bucket_pool_;
  std::unique_ptr<BucketArray> bucket_store_;
  std::atomic<Entry*>* buckets_;  ///< bucket_store_'s bucket_mask_ + 1 heads
  size_t bucket_mask_;
  Arena arena_;
  std::atomic<int64_t> size_{0};
};

/// Aggregate functions supported by the engine.
enum class AggFn { kCount, kSum, kAvg, kMin, kMax };

const char* AggFnName(AggFn fn);

/// Concurrent group-by hash table for **shared aggregation** (appendix
/// Alg. 7): group entries carry numeric accumulator slots updated under a
/// per-entry spinlock; bucket chains grow via per-bucket insert locks with
/// lock-free lookup. With few groups, all threads hammer the same entry
/// locks — precisely the contention that makes shared aggregation scale
/// poorly on low-cardinality group-bys (paper Fig. 8b, S-Q3).
///
/// Shared inserts never resize the bucket array (lookups walk it without a
/// lock). An exclusive insert — the caller is the table's only writer:
/// UpdateBatch or MergeFrom with `exclusive`, MergeSerialized — doubles it
/// once the groups fill an eighth of the buckets (half, past 16 K buckets),
/// so a table may start small and its fixed cost follows its group count
/// instead of a worst-case guess.
class AggHashTable {
 public:
  /// `group_schema` describes the key columns layout (a row holding just the
  /// group-by columns); `num_aggs` accumulator pairs (sum, count) follow.
  /// `num_buckets` is the starting bucket count (rounded up to a power of
  /// two); only exclusive inserts grow it.
  AggHashTable(Schema group_schema, int num_aggs, size_t num_buckets,
               MemSource source = {});
  CLAIMS_DISALLOW_COPY_AND_ASSIGN(AggHashTable);

  struct AggState {
    double sum = 0;       // SUM / running MIN / running MAX value
    int64_t count = 0;    // COUNT; 0 marks MIN/MAX as not-yet-set
  };

  /// Finds or creates the group of `group_row` and applies the update under
  /// the entry lock: for each aggregate i, fold `values[i]` using `fns[i]`.
  /// COUNT folds +1 per call scaled by `count_weight` (used when merging
  /// partial states). false when a new group could not be allocated (query
  /// over budget) — no partial fold happens.
  bool Update(const char* group_row, const std::vector<AggFn>& fns,
              const double* values, const int64_t* count_weights);

  /// Batch fold: folds rows `[0..n)` of a packed group-row buffer
  /// (`group_rows + i * stride`) with precomputed hashes (the HashRowKeys
  /// hash over all group columns). `arg_cols[a]` is a per-row value vector,
  /// or null to fold 0.0 (COUNT(*)); every fold carries count weight 1.
  /// Equivalent to n Update calls, with the per-row call and
  /// argument-marshalling overhead hoisted out of the loop. `exclusive` skips
  /// the per-entry spinlock; pass true only when the caller is the sole
  /// thread touching this table (a worker-private table of independent/hybrid
  /// aggregation). Stops and returns false at the first row whose group
  /// cannot be allocated; rows before it are folded (re-folding the block
  /// after a spill would double-count — callers spill-and-retry with
  /// `resume` = rows already folded).
  bool UpdateBatch(const char* group_rows, int32_t stride,
                   const uint64_t* hashes, int32_t n,
                   const std::vector<AggFn>& fns, const double* const* arg_cols,
                   bool exclusive, int32_t* folded = nullptr);

  /// Folds every group of `src` (a table of partial states with the same
  /// layout) into this one with the merge fold rules: partial sums / running
  /// min-max as values, partial counts as weights, reusing `src`'s stored
  /// hashes. `exclusive` as in UpdateBatch: the caller is this table's only
  /// writer, no lock is taken and the table grows with its groups; otherwise
  /// merges may run concurrently with each other and with shared updates.
  /// Stops and returns false at the first group that cannot be allocated
  /// (over budget) — the groups before it are folded.
  bool MergeFrom(const AggHashTable& src, const std::vector<AggFn>& fns,
                 bool exclusive);

  /// Exchanges the groups (bucket array, entries, count) of two tables of
  /// the same layout. Merging a table into an empty one is this swap. The
  /// caller is the only thread touching either table.
  void SwapGroups(AggHashTable* other);

  /// Iterates all groups in the order they were created: fn(const char*
  /// group_row, const AggState* states). No insert may run concurrently.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    ForEachEntry([&](const Entry* e) {
      fn(e->row(group_row_size_), e->states(group_row_size_, num_aggs_));
      return true;
    });
  }

  /// Serializes every group into a cold-tier run:
  ///   [int32 group_row_size][int32 num_aggs][int64 group_count]
  ///   then per group: group_row bytes + AggState x num_aggs.
  /// Caller guarantees no concurrent Update (spill happens on the owning
  /// worker's private table, or under the snapshot lock).
  Status SerializeTo(SpillRun* run) const;

  /// Merges a serialized run (SpillRun::ReadAll bytes) into `into` with the
  /// same fold rules as MergeFrom; the caller must be `into`'s only writer.
  /// kResourceExhausted when `into` cannot allocate a group; kInternal on a
  /// malformed run.
  static Status MergeSerialized(const char* data, size_t bytes,
                                const std::vector<AggFn>& fns,
                                AggHashTable* into);

  int64_t size() const { return size_.load(std::memory_order_relaxed); }
  int64_t bytes() const { return arena_.allocated_bytes(); }
  size_t bucket_count() const { return bucket_mask_ + 1; }
  const Schema& group_schema() const { return group_schema_; }
  int num_aggs() const { return num_aggs_; }

 private:
  struct Entry {
    Entry* next;
    uint64_t hash;
    std::atomic_flag lock = ATOMIC_FLAG_INIT;
    // layout: [group_row bytes][AggState x num_aggs]
    char* row(int group_size) {
      return reinterpret_cast<char*>(this + 1);
      (void)group_size;
    }
    const char* row(int group_size) const {
      (void)group_size;
      return reinterpret_cast<const char*>(this + 1);
    }
    AggState* states(int group_size, int) {
      return reinterpret_cast<AggState*>(
          reinterpret_cast<char*>(this + 1) + AlignUp(group_size));
    }
    const AggState* states(int group_size, int) const {
      return reinterpret_cast<const AggState*>(
          reinterpret_cast<const char*>(this + 1) + AlignUp(group_size));
    }
    static int AlignUp(int n) { return (n + 7) & ~7; }
  };

  struct Bucket {
    std::atomic<Entry*> head{nullptr};
    std::atomic_flag insert_lock = ATOMIC_FLAG_INIT;
  };

  /// nullptr when the arena refused the entry (over budget); the bucket
  /// insert lock is released before returning, so other threads proceed.
  /// `exclusive` (sole writer) skips the insert lock and may Grow.
  Entry* FindOrCreate(const char* group_row, uint64_t hash, bool exclusive);

  /// Merges one partial group (see MergeFrom).
  bool MergeGroup(const char* group_row, uint64_t hash, const AggState* states,
                  const std::vector<AggFn>& fns, bool exclusive);

  /// Calls fn(Entry*) for every group in creation order until fn returns
  /// false; false when stopped. Every entry of a table has the same size, so
  /// this is a sequential walk of the arena instead of a pointer chase
  /// through the chains. No insert may run concurrently (an entry in flight
  /// could be half-written).
  template <typename Fn>
  bool ForEachEntry(Fn&& fn) const {
    bool more = true;
    arena_.ForEachChunk([&](char* begin, char* end) {
      for (char* p = begin; more && p + entry_bytes_ <= end;
           p += entry_bytes_) {
        more = fn(reinterpret_cast<Entry*>(p));
      }
    });
    return more;
  }

  /// Doubles the bucket array and relinks every entry. Sole writer only.
  void Grow();

  bool KeysEqual(const char* a, const char* b) const {
    if (!bytewise_keys_) return group_cmp_.Equal(a, b);
    if (group_row_size_ == 4) {  // one INT32 / DATE key: the common case
      uint32_t x, y;
      std::memcpy(&x, a, sizeof(x));
      std::memcpy(&y, b, sizeof(y));
      return x == y;
    }
    return std::memcmp(a, b, group_row_size_) == 0;
  }

  /// The lock-free lookup of FindOrCreate, inlined into the batch fold.
  Entry* Find(const char* group_row, uint64_t hash) const {
    for (Entry* e = buckets_[hash & bucket_mask_].head.load(
             std::memory_order_acquire);
         e != nullptr; e = e->next) {
      if (e->hash == hash && KeysEqual(e->row(group_row_size_), group_row)) {
        return e;
      }
    }
    return nullptr;
  }

  Schema group_schema_;
  std::vector<int> all_group_cols_;
  /// Hoisted group-key comparator: constructing one per FindOrCreate (two
  /// vector copies each) dominated low-cardinality folds.
  KeyComparator group_cmp_;
  int group_row_size_;
  /// Every group column is an integer or a date: rows are packed, so two
  /// group rows are equal exactly when their bytes are (no call into the
  /// comparator per lookup).
  bool bytewise_keys_;
  int num_aggs_;
  /// Arena bytes of one entry: header, group row, AggState x num_aggs.
  size_t entry_bytes_;
  /// Power-of-two sized (rounded up in the constructor): bucket selection is
  /// a mask, not a division. Drawn from the source's pool; Grow replaces it.
  BlockPool* bucket_pool_;
  std::unique_ptr<PooledArray<Bucket>> bucket_store_;
  Bucket* buckets_;  ///< bucket_store_'s bucket_mask_ + 1 elements
  size_t bucket_mask_;
  Arena arena_;
  std::atomic<int64_t> size_{0};
};

/// Folds one observation into an AggState under the caller's lock.
inline void FoldAgg(AggFn fn, double value, int64_t count_weight,
                    AggHashTable::AggState* state) {
  switch (fn) {
    case AggFn::kCount:
      state->count += count_weight;
      break;
    case AggFn::kSum:
    case AggFn::kAvg:
      state->sum += value;
      state->count += count_weight;
      break;
    case AggFn::kMin:
      if (state->count == 0 || value < state->sum) state->sum = value;
      state->count += count_weight;
      break;
    case AggFn::kMax:
      if (state->count == 0 || value > state->sum) state->sum = value;
      state->count += count_weight;
      break;
  }
}

}  // namespace claims

#endif  // CLAIMS_EXEC_HASH_TABLE_H_
