#ifndef CLAIMS_EXEC_HASH_TABLE_H_
#define CLAIMS_EXEC_HASH_TABLE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <shared_mutex>
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

/// Group-by table of aggregation (appendix Alg. 7), open addressing: a
/// power-of-two array of 8-byte slots, probed linearly. A slot holds the top
/// 16 bits of the group's key hash (its tag) and the address of the group's
/// entry; a probe compares keys only where the tag matches. Entries
/// (spinlock, group row, AggState x num_aggs) stay in the arena in creation
/// order, so every walk of the groups (ForEach, SerializeTo, MergeFrom) is a
/// sequential scan of the arena. The table grows before a quarter of its
/// slots fill (kSlotsPerGroup).
///
/// Group rows compare bytewise when every group column is INT32, DATE, INT64
/// or CHAR (writers NUL-pad CHAR, so equal strings have equal bytes), and by
/// value otherwise, so a FLOAT64 -0.0 and 0.0 are one group. The table's one
/// key hash (HashKeys) follows the same rule.
///
/// Two kinds of callers. An *exclusive* one is the table's only user (a
/// worker-private table of independent/hybrid aggregation, a merge under
/// merge_mu_ held exclusively, MergeSerialized): it takes no lock. *Shared*
/// callers (Update, UpdateBatch and MergeFrom without `exclusive`) may run
/// concurrently: each batch holds the table lock shared, claims an empty slot
/// with a CAS before it allocates the entry (a racer that loses the slot
/// allocates nothing, so the arena holds no orphan), takes the lock
/// exclusively to grow, and folds under the per-entry spinlock. With few
/// groups all threads hammer the same entry locks — the contention that makes
/// shared aggregation scale poorly on low-cardinality group-bys (paper Fig.
/// 8b, S-Q3).
class AggHashTable {
 public:
  /// `group_schema` describes the key columns layout (a row holding just the
  /// group-by columns); `num_aggs` accumulator pairs (sum, count) follow.
  /// `num_slots` is the starting slot count (rounded up to a power of two, at
  /// least kSlotsPerGroup).
  AggHashTable(Schema group_schema, int num_aggs, size_t num_slots,
               MemSource source = {});
  CLAIMS_DISALLOW_COPY_AND_ASSIGN(AggHashTable);

  struct AggState {
    double sum = 0;       // SUM / running MIN / running MAX value
    int64_t count = 0;    // COUNT; 0 marks MIN/MAX as not-yet-set
  };

  /// The table's key hash of rows `[0..n)` of a group-row buffer
  /// (`group_rows + i * stride`): one mix of the packed key bytes when keys
  /// compare bytewise, HashRowKeysBatch over every column otherwise. Tables
  /// of the same group schema hash alike.
  void HashKeys(const char* group_rows, int32_t stride, int32_t n,
                uint64_t* out) const;

  /// Finds or creates the group of `group_row` and applies the update under
  /// the entry lock: for each aggregate i, fold `values[i]` using `fns[i]`.
  /// COUNT folds +1 per call scaled by `count_weight` (used when merging
  /// partial states). A shared caller. false when a new group could not be
  /// allocated (query over budget) — no partial fold happens.
  bool Update(const char* group_row, const std::vector<AggFn>& fns,
              const double* values, const int64_t* count_weights);

  /// Batch fold of rows `[0..n)` of a group-row buffer (`group_rows + i *
  /// stride`) with their HashKeys hashes, in two passes: the first resolves
  /// every row's group (finding or inserting it), the second runs one typed
  /// loop per aggregate over the rows' entries. `arg_cols[a]` is a per-row
  /// value vector, or null to fold 0.0 (COUNT(*)); every fold carries count
  /// weight 1. Each group folds its rows in input order, as n Update calls
  /// would. `exclusive` as in the class comment; a shared batch folds each
  /// run of rows of one group under one hold of its entry lock. Stops at the
  /// first row whose group cannot be allocated and returns false with
  /// `*folded` = the rows before it, which are folded (re-folding the block
  /// after a spill would double-count — callers spill and resume there).
  bool UpdateBatch(const char* group_rows, int32_t stride,
                   const uint64_t* hashes, int32_t n,
                   const std::vector<AggFn>& fns, const double* const* arg_cols,
                   bool exclusive, int32_t* folded = nullptr);

  /// Folds every group of `src` (a table of partial states with the same
  /// layout) into this one with the merge fold rules: partial sums / running
  /// min-max as values, partial counts as weights. `exclusive` as in
  /// UpdateBatch; shared merges may run concurrently with each other and
  /// with shared updates. Stops and returns false at the first group that
  /// cannot be allocated (over budget) — the groups before it are folded.
  bool MergeFrom(const AggHashTable& src, const std::vector<AggFn>& fns,
                 bool exclusive);

  /// Exchanges the groups (slot array, entries, count) of two tables of the
  /// same layout. Merging a table into an empty one is this swap. The caller
  /// is the only thread touching either table.
  void SwapGroups(AggHashTable* other);

  /// Iterates all groups in the order they were created: fn(const char*
  /// group_row, const AggState* states). No insert may run concurrently.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    ForEachEntry([&](const Entry* e) {
      fn(e->row(), States(e));
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
  /// same fold rules as MergeFrom; the caller must be `into`'s only user.
  /// kResourceExhausted when `into` cannot allocate a group; kInternal on a
  /// malformed run.
  static Status MergeSerialized(const char* data, size_t bytes,
                                const std::vector<AggFn>& fns,
                                AggHashTable* into);

  int64_t size() const { return size_.load(std::memory_order_relaxed); }
  int64_t bytes() const { return arena_.allocated_bytes(); }
  size_t slot_count() const { return slot_mask_ + 1; }
  const Schema& group_schema() const { return group_schema_; }
  int num_aggs() const { return num_aggs_; }

 private:
  /// An entry holds no hash: Grow and MergeFrom rehash its key, which for
  /// bytewise keys is one mix, and the smaller entry keeps more groups per
  /// cache line.
  struct alignas(8) Entry {
    std::atomic_flag lock = ATOMIC_FLAG_INIT;
    // layout: [group_row bytes, padded to 8][AggState x num_aggs]
    char* row() { return reinterpret_cast<char*>(this + 1); }
    const char* row() const { return reinterpret_cast<const char*>(this + 1); }
  };
  using SlotArray = PooledArray<std::atomic<uint64_t>>;

  /// Slot encoding. 0 is empty; otherwise the tag bits hold the hash's top
  /// 16 bits and the low 48 bits an entry address (user-space addresses fit
  /// 48 bits, and entries are 8-aligned) or one of the two markers.
  static constexpr uint64_t kTagMask = ~((uint64_t{1} << 48) - 1);
  static constexpr uint64_t kMarkerMask = 7;
  /// A shared insert claimed the slot; its entry is not published yet.
  static constexpr uint64_t kPending = 1;
  /// A shared insert claimed the slot and the arena refused its entry: the
  /// slot stays occupied (emptying it could cut another key's probe run)
  /// and matches nothing until the next Grow drops it.
  static constexpr uint64_t kDead = 2;

  static uint64_t TagOf(uint64_t hash) { return hash & kTagMask; }
  static Entry* EntryOf(uint64_t slot) {
    return reinterpret_cast<Entry*>(slot & ~kTagMask);
  }

  AggState* States(Entry* e) const {
    return reinterpret_cast<AggState*>(e->row() + states_offset_);
  }
  const AggState* States(const Entry* e) const {
    return reinterpret_cast<const AggState*>(e->row() + states_offset_);
  }

  /// Key equality for a table whose keys are `kWidth` bytes compared
  /// bytewise (a constant-size memcmp is one load and compare), or of any
  /// shape (kAnyWidth).
  static constexpr int kAnyWidth = 0;
  template <int kWidth>
  bool KeysEqualAs(const char* a, const char* b) const {
    if constexpr (kWidth != kAnyWidth) {
      return std::memcmp(a, b, kWidth) == 0;
    } else if (bytewise_width_ < 0) {
      return group_cmp_.Equal(a, b);
    } else {
      return std::memcmp(a, b, static_cast<size_t>(group_row_size_)) == 0;
    }
  }

  /// The least slots per group. A key not at its home slot costs a
  /// mispredicted branch, so the load sets the probe cost: 20 000 groups
  /// resolved at 11.7, 7.9 and 4.9 ns per row at loads 0.61, 0.31 and 0.15
  /// (standalone loop, 4-vCPU Xeon VM).
  static constexpr size_t kSlotsPerGroup = 4;

  /// True when one more group would fill more than a quarter of the slots
  /// (dead slots count as filled).
  bool Full(int64_t groups) const {
    const int64_t filled = groups + dead_.load(std::memory_order_relaxed) + 1;
    return static_cast<size_t>(filled) * kSlotsPerGroup > slot_count();
  }

  /// A new entry for `group_row` with zeroed states; nullptr when the arena
  /// refused it (over budget).
  Entry* NewEntry(const char* group_row, bool exclusive);

  uint64_t HashKey(const char* group_row) const {
    uint64_t hash;
    HashKeys(group_row, 0, 1, &hash);
    return hash;
  }

  /// True when `slot` holds a published entry whose tag is `tag`: one
  /// compare covers the tag bits and the marker bits.
  static bool TagMatches(uint64_t slot, uint64_t tag) {
    return (slot & (kTagMask | kMarkerMask)) == tag;
  }

  /// Inserts the group of `group_row` as the table's only user at empty slot
  /// `slot`, the end of its probe; grows first when the table is full.
  Entry* InsertAt(size_t slot, const char* group_row, uint64_t hash);

  /// Finds or inserts one group as a shared caller holding grow_mu_ through
  /// `lock`, which it trades for the exclusive lock to Grow.
  Entry* FindOrInsertShared(const char* group_row, uint64_t hash,
                            std::shared_lock<std::shared_mutex>* lock);

  /// Pass 1 of UpdateBatch: resolves rows `[0..n)` into `entries`, prefetching
  /// ahead once the slot array outgrows the L1 cache. Returns the rows
  /// resolved: n, or the index of the first row whose entry was refused.
  /// The exclusive loop is compiled for keys of 2, 4 and 8 bytes, and once
  /// for any other key. An exclusive merge resolves one group at a time
  /// (n = 1).
  int32_t Resolve(const char* group_rows, int32_t stride,
                  const uint64_t* hashes, int32_t n, bool exclusive,
                  Entry** entries);
  template <int kWidth>
  int32_t ResolveExclusive(const char* group_rows, int32_t stride,
                           const uint64_t* hashes, int32_t n,
                           Entry** entries);

  /// Pass 2 of UpdateBatch: folds rows `[begin..end)` of every aggregate
  /// into their entries' states, one typed loop per aggregate.
  void FoldRows(const std::vector<AggFn>& fns, const double* const* arg_cols,
                Entry* const* entries, int32_t begin, int32_t end) const;

  /// Merges one partial group (see MergeFrom) into `entry`.
  void MergeStates(Entry* entry, const AggState* states,
                   const std::vector<AggFn>& fns, bool exclusive) const;

  /// Calls fn(Entry*) for every group in creation order until fn returns
  /// false; false when stopped. Every entry of a table has the same size, so
  /// this is a sequential walk of the arena. No insert may run concurrently
  /// (an entry in flight could be half-written).
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

  /// Rebuilds the slot array, doubled until it holds one more group at most
  /// a quarter full, from the arena; drops dead slots. The caller is the table's
  /// only user (exclusive, or grow_mu_ held exclusively).
  void Grow();

  Schema group_schema_;
  std::vector<int> all_group_cols_;
  /// Hoisted group-key comparator for keys that compare by value.
  KeyComparator group_cmp_;
  int group_row_size_;
  /// The key width when group rows compare bytewise (every column INT32,
  /// DATE, INT64 or CHAR), -1 when they compare by value (a FLOAT64 column).
  int bytewise_width_;
  int num_aggs_;
  /// Bytes from an entry's group row to its first AggState: the row padded
  /// to 8.
  size_t states_offset_;
  /// Arena bytes of one entry: header, group row, AggState x num_aggs.
  size_t entry_bytes_;
  /// Shared callers hold it shared; Grow under it exclusively. Exclusive
  /// callers never take it.
  std::shared_mutex grow_mu_;
  /// Drawn from the source's pool; Grow replaces it.
  BlockPool* slot_pool_;
  std::unique_ptr<SlotArray> slot_store_;
  std::atomic<uint64_t>* slots_;  ///< slot_store_'s slot_mask_ + 1 slots
  size_t slot_mask_;
  Arena arena_;
  std::atomic<int64_t> size_{0};
  /// Dead slots (shared inserts the arena refused) since the last Grow.
  std::atomic<int64_t> dead_{0};
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
