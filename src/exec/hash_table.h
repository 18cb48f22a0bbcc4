#ifndef CLAIMS_EXEC_HASH_TABLE_H_
#define CLAIMS_EXEC_HASH_TABLE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <type_traits>
#include <vector>

#include "common/macros.h"
#include "common/status.h"
#include "mem/mem_source.h"
#include "mem/scratch.h"
#include "storage/schema.h"

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
      char* cursor = c->cursor.load(std::memory_order_relaxed);
      fn(c->handle.data, cursor <= c->limit
                             ? cursor
                             : c->filled.load(std::memory_order_relaxed));
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
    /// Once an allocation overshot the limit: the end of the bytes handed
    /// out, which the one allocation that straddled the limit found.
    std::atomic<char*> filled{nullptr};
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

/// The open-addressing table under both hash tables (appendix Alg. 6, 7): a
/// power-of-two array of 8-byte slots, probed linearly and grown before a
/// quarter fills. A slot holds a key hash's top 16 bits (its tag) and an
/// arena entry's address: an 8-byte header, then the key, packed in the key
/// schema. -0.0 is rewritten as 0.0 before a key is compared or stored, and
/// CHAR is NUL-padded, so keys compare bytewise.
class SlotTable {
 public:
  CLAIMS_DISALLOW_COPY_AND_ASSIGN(SlotTable);

  /// The one key hash (storage/partition.h) of keys `[0..n)` (`keys + i *
  /// stride`) packed in the key schema.
  void HashKeys(const char* keys, int32_t stride, int32_t n,
                uint64_t* out) const;

  /// The slot where the probe for a key of hash `hash` starts: bits 16 and up,
  /// below the tag. Routing reads the low bits, which every key one node
  /// receives may share.
  size_t HomeOf(uint64_t hash) const {
    return static_cast<size_t>(hash >> kHomeShift) & slot_mask_;
  }

  const Schema& key_schema() const { return key_schema_; }
  size_t slot_count() const { return slot_mask_ + 1; }
  int64_t bytes() const { return arena_.allocated_bytes(); }

 protected:
  using SlotArray = PooledArray<std::atomic<uint64_t>>;

  /// `num_slots` is rounded up to a power of two, at least kSlotsPerKey.
  SlotTable(Schema key_schema, size_t num_slots, MemSource source);
  ~SlotTable() = default;

  /// A slot is 0 (empty), or the tag bits and the low 48 bits of an
  /// 8-aligned entry address or, in the aggregation, a marker.
  static constexpr uint64_t kTagMask = ~((uint64_t{1} << 48) - 1);
  static constexpr int kHomeShift = 16;
  static constexpr uint64_t kMarkerMask = 7;
  static constexpr size_t kKeyOffset = 8;  ///< an entry's header bytes
  /// A key not at its home slot costs a mispredicted branch, so the load sets
  /// the probe cost: 20 000 keys resolved at 11.7, 7.9 and 4.9 ns per row at
  /// loads 0.61, 0.31 and 0.15 (standalone loop, 4-vCPU Xeon VM).
  static constexpr size_t kSlotsPerKey = 4;
  static constexpr int kAnyWidth = 0;  ///< FindFrom for any key size
  /// From this many slots (32 KiB, about an L1 data cache) ProbeRows
  /// prefetches.
  static constexpr size_t kPrefetchSlots = size_t{1} << 12;

  static uint64_t TagOf(uint64_t hash) { return hash & kTagMask; }
  static char* EntryOf(uint64_t slot) {
    return reinterpret_cast<char*>(slot & ~kTagMask);
  }
  /// True when `slot` holds a published entry tagged `tag`.
  static bool TagMatches(uint64_t slot, uint64_t tag) {
    return (slot & (kTagMask | kMarkerMask)) == tag;
  }
  /// Terminates on an entry address that does not fit beside the tag.
  static uint64_t SlotOf(uint64_t hash, const void* entry);

  bool Full(int64_t keys) const {
    return static_cast<size_t>(keys) * kSlotsPerKey > slot_count();
  }

  /// Rewrites every FLOAT64 -0.0 of keys `[0..n)` as 0.0.
  void Canonicalize(char* keys, int32_t stride, int32_t n) const;

  /// fn(std::integral_constant<int, W>) for the compiled key width W: 2, 4,
  /// 8 or kAnyWidth.
  template <typename Fn>
  decltype(auto) WithKeyWidth(Fn&& fn) const {
    switch (key_size_) {
      case 2: return fn(std::integral_constant<int, 2>{});
      case 4: return fn(std::integral_constant<int, 4>{});
      case 8: return fn(std::integral_constant<int, 8>{});
      default: return fn(std::integral_constant<int, kAnyWidth>{});
    }
  }

  /// Probes for `key` from slot `*j` on: its entry, or nullptr with `*j` at
  /// the empty slot that ends the probe. Keys compare bytewise, and a
  /// constant-size memcmp (kWidth 2, 4 or 8) is one load and compare.
  template <int kWidth>
  char* FindFrom(const char* key, uint64_t hash, size_t* j) const {
    const std::atomic<uint64_t>* slots = slots_;
    const size_t mask = slot_mask_;
    const uint64_t tag = TagOf(hash);
    for (uint64_t s; (s = slots[*j].load(std::memory_order_acquire)) != 0;
         *j = (*j + 1) & mask) {
      if (TagMatches(s, tag) &&
          std::memcmp(EntryOf(s) + kKeyOffset, key,
                      kWidth != kAnyWidth ? kWidth : key_size_) == 0) {
        return EntryOf(s);
      }
    }
    return nullptr;
  }

  /// The probe loop of both tables: visit(i) for rows `[0..n)` until one
  /// returns false; returns the rows visited. Past L1, row i + 2 * kAhead's
  /// home slot and row i + kAhead's entry load while row i resolves.
  template <typename Visit>
  int32_t ProbeRows(const uint64_t* hashes, int32_t n, Visit&& visit) const {
    constexpr int32_t kAhead = 8;
    for (int32_t i = 0; i < n; ++i) {
      const size_t mask = slot_mask_;
      if (mask >= kPrefetchSlots - 1) {
        if (i + 2 * kAhead < n) {
          __builtin_prefetch(&slots_[HomeOf(hashes[i + 2 * kAhead])]);
        }
        if (i + kAhead < n) {
          const uint64_t s = slots_[HomeOf(hashes[i + kAhead])].load(
              std::memory_order_relaxed);
          if (s != 0) __builtin_prefetch(EntryOf(s));
        }
      }
      if (!visit(i)) return i;
    }
    return n;
  }

  /// fn(char* entry, uint64_t hash) for every entry in creation order until
  /// fn returns false; false when stopped. Entries are entry_bytes_ apart, so
  /// this is a sequential walk of the arena. With kHashed, the keys of a run
  /// of entries hash in one call, stride the entry size; else `hash` is 0. No
  /// insert may run concurrently.
  template <bool kHashed, typename Fn>
  bool ForEachEntry(Fn&& fn) const {
    constexpr size_t kRun = 256;
    uint64_t hashes[kRun];
    bool more = true;
    arena_.ForEachChunk([&](char* p, char* end) {
      for (size_t left = static_cast<size_t>(end - p) / entry_bytes_;
           more && left > 0;) {
        const size_t m = std::min(kRun, left);
        if constexpr (kHashed) {
          HashKeys(p + kKeyOffset, static_cast<int32_t>(entry_bytes_),
                   static_cast<int32_t>(m), hashes);
        }
        for (size_t i = 0; more && i < m; ++i, p += entry_bytes_) {
          more = fn(p, kHashed ? hashes[i] : 0);
        }
        left -= m;
      }
    });
    return more;
  }

  /// Rebuilds the slots, doubled until `keys` keys fill at most a quarter,
  /// from the entries is_key picks (one per key) in arena order: a walk of
  /// the slots reads the entries at random, and made a 20 000-group fold's
  /// grows 1.3 to 2 times slower (4-vCPU VM). For the table's only user.
  template <typename IsKey>
  void Grow(int64_t keys, IsKey&& is_key) {
    size_t slots = slot_count() * 2;
    while (static_cast<size_t>(keys) * kSlotsPerKey > slots) slots *= 2;
    slot_store_ = std::make_unique<SlotArray>(slot_pool_, slots);
    slots_ = &(*slot_store_)[0];
    slot_mask_ = slots - 1;
    ForEachEntry<true>([&](char* entry, uint64_t hash) {
      if (is_key(entry)) {
        size_t j = HomeOf(hash);
        while (slots_[j].load(std::memory_order_relaxed) != 0) {
          j = (j + 1) & slot_mask_;
        }
        slots_[j].store(SlotOf(hash, entry), std::memory_order_relaxed);
      }
      return true;
    });
  }

  Schema key_schema_;
  std::vector<int> key_cols_;  ///< every column of the key schema
  int32_t key_size_;
  std::vector<int32_t> float_offsets_;  ///< of the FLOAT64 key columns
  /// Shared callers hold it shared, Grow exclusively; exclusive callers
  /// never take it.
  std::shared_mutex grow_mu_;
  Arena arena_;
  size_t entry_bytes_ = 0;  ///< set by the table's constructor
  BlockPool* slot_pool_;
  std::unique_ptr<SlotArray> slot_store_;  ///< Grow replaces it
  std::atomic<uint64_t>* slots_;           ///< slot_mask_ + 1 slots
  size_t slot_mask_;
};

/// Multi-map of a hash join's build side (appendix Alg. 6). Each build row is
/// an arena entry (link, key, row); a slot points to each key's first entry,
/// and later rows link from it. A batch insert holds grow_mu_ shared,
/// reserves room for its keys once, and takes an empty slot or links from
/// the key's first entry with one CAS per row; growing takes grow_mu_
/// exclusively. Probes run after the build and take no lock.
class JoinHashTable : public SlotTable {
 public:
  /// Keys are `build_keys` of `build_schema`, each of its own type. The
  /// table starts at the slots for `expected_rows` and grows past them.
  JoinHashTable(const Schema* build_schema, std::vector<int> build_keys,
                size_t expected_rows, MemSource source = {});
  /// Keys packed in `key_schema` (KeySchema).
  JoinHashTable(const Schema* build_schema, std::vector<int> build_keys,
                Schema key_schema, size_t expected_rows,
                MemSource source = {});

  /// A join's key schema: one column per key pair, of the pair's wider type:
  /// INT64 when either side is INT64 (INT32 and DATE widen by value),
  /// FLOAT64 when either is FLOAT64, CHAR of the larger width.
  static Schema KeySchema(const Schema& build,
                          const std::vector<int>& build_keys,
                          const Schema& probe,
                          const std::vector<int>& probe_keys);

  /// Inserts rows `[0..n)` (`rows + i * stride`) with keys `keys`, packed in
  /// the key schema (rewritten in place into canonical form). Thread-safe;
  /// false when the ledger refused entries, which ends the build.
  bool InsertBatch(char* keys, const char* rows, int32_t stride, int32_t n);

  /// InsertBatch of one build row.
  bool Insert(const char* row);

  /// fn(i, build_row) for every build row whose key equals key i of `keys`
  /// (as in InsertBatch), rows i in order. No insert may run concurrently.
  template <typename Fn>
  void ForEachMatchBatch(char* keys, int32_t n, Fn&& fn) const {
    const Entry* firsts[kProbeRun];
    for (int32_t begin = 0; begin < n; begin += kProbeRun) {
      const int32_t m = std::min(kProbeRun, n - begin);
      FindFirsts(keys + static_cast<size_t>(begin) * key_size_, m, firsts);
      for (int32_t i = 0; i < m; ++i) {
        for (const Entry* e = firsts[i]; e != nullptr; e = e->next()) {
          fn(begin + i, reinterpret_cast<const char*>(e) + row_offset_);
        }
      }
    }
  }

  /// fn(const char* build_row) for every build row whose key equals the
  /// probe row's `probe_keys`: ForEachMatchBatch of one key.
  template <typename Fn>
  void ForEachMatch(const Schema& probe_schema, const char* probe_row,
                    const std::vector<int>& probe_keys, Fn&& fn) const {
    ForEachMatchBatch(PackKey(probe_schema, probe_row, probe_keys), 1,
                      [&](int32_t, const char* row) { fn(row); });
  }

  int64_t size() const { return size_.load(std::memory_order_relaxed); }
  /// Distinct keys: the slots filled.
  int64_t key_count() const { return keys_.load(std::memory_order_relaxed); }

 private:
  /// Or'ed into the link of the entry a slot points to, the head of its key.
  static constexpr uintptr_t kHead = 1;
  struct alignas(8) Entry {
    std::atomic<uintptr_t> link{0};  ///< the next entry of the key | kHead
    const Entry* next() const {
      return reinterpret_cast<const Entry*>(
          link.load(std::memory_order_relaxed) & ~kHead);
    }
  };
  static_assert(sizeof(Entry) == kKeyOffset);
  /// Keys per FindFirsts call, whose hashes live on the stack.
  static constexpr int32_t kProbeRun = 256;

  /// firsts[i] = the first entry of key i (n <= kProbeRun), or nullptr.
  void FindFirsts(char* keys, int32_t n, const Entry** firsts) const;

  /// `cols` of `row` packed by value into a key of the key schema, in a
  /// buffer of the calling thread: no allocation once it has grown.
  char* PackKey(const Schema& schema, const char* row,
                const std::vector<int>& cols) const;

  const Schema* build_schema_;
  std::vector<int> build_keys_;
  size_t row_offset_;  ///< from an entry to its row: header, key
  /// About 4 KiB of entries per arena allocation: one atomic bump per
  /// allocation, not per row, and a chunk's unused tail under 4 KiB.
  size_t entries_per_allocation_;
  /// Distinct keys, plus the room inserting batches reserved.
  std::atomic<int64_t> keys_{0};
  std::atomic<int64_t> size_{0};
};

/// Aggregate functions supported by the engine.
enum class AggFn { kCount, kSum, kAvg, kMin, kMax };

const char* AggFnName(AggFn fn);

/// Group-by table of aggregation (appendix Alg. 7). An entry (spinlock,
/// group row, AggState x num_aggs) stays in the arena in creation order, so
/// ForEach, SerializeTo and MergeFrom scan the arena. An *exclusive* caller
/// is the table's only user and takes no lock. *Shared* callers (Update,
/// UpdateBatch and MergeFrom without `exclusive`) hold grow_mu_ shared,
/// claim an empty slot with a CAS before allocating its entry (so the arena
/// holds no orphan), and fold under the per-entry spinlock, which few groups
/// contend on (paper Fig. 8b, S-Q3).
class AggHashTable : public SlotTable {
 public:
  /// `group_schema` describes the key columns layout (a row holding just the
  /// group-by columns); `num_aggs` accumulator pairs (sum, count) follow.
  /// `num_slots` is the starting slot count (rounded up to a power of two, at
  /// least kSlotsPerKey).
  AggHashTable(Schema group_schema, int num_aggs, size_t num_slots,
               MemSource source = {});
  CLAIMS_DISALLOW_COPY_AND_ASSIGN(AggHashTable);

  struct AggState {
    double sum = 0;       // SUM / running MIN / running MAX value
    int64_t count = 0;    // COUNT; 0 marks MIN/MAX as not-yet-set
  };

  /// Finds or creates the group of `group_row` and applies the update under
  /// the entry lock: for each aggregate i, fold `values[i]` using `fns[i]`.
  /// COUNT folds +1 per call scaled by `count_weight` (used when merging
  /// partial states). A shared caller. false when a new group could not be
  /// allocated (query over budget) — no partial fold happens.
  bool Update(const char* group_row, const std::vector<AggFn>& fns,
              const double* values, const int64_t* count_weights);

  /// Batch fold of rows `[0..n)` of a group-row buffer (`group_rows + i *
  /// stride`, rewritten in place into canonical form, as JoinHashTable's
  /// keys are) with their HashKeys hashes, in two passes: the first resolves
  /// every row's group (finding or inserting it), the second runs one typed
  /// loop per aggregate over the rows' entries. `arg_cols[a]` is a per-row
  /// value vector, or null to fold 0.0 (COUNT(*)); every fold carries count
  /// weight 1. Each group folds its rows in input order, as n Update calls
  /// would. `exclusive` as in the class comment; a shared batch folds each
  /// run of rows of one group under one hold of its entry lock. Stops at the
  /// first row whose group cannot be allocated and returns false with
  /// `*folded` = the rows before it, which are folded (re-folding the block
  /// after a spill would double-count — callers spill and resume there).
  bool UpdateBatch(char* group_rows, int32_t stride,
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
    ForEachEntry<false>([&](char* e, uint64_t) {
      fn(e + kKeyOffset, States(GroupOf(e)));
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
  int num_aggs() const { return num_aggs_; }

 private:
  /// An entry holds no hash: Grow and MergeFrom rehash the keys of a run of
  /// entries in one call, and the smaller entry keeps more groups per cache
  /// line.
  struct alignas(8) Entry {
    std::atomic_flag lock = ATOMIC_FLAG_INIT;
    // layout: [group_row bytes, padded to 8][AggState x num_aggs]
    char* row() { return reinterpret_cast<char*>(this + 1); }
    const char* row() const { return reinterpret_cast<const char*>(this + 1); }
  };
  static_assert(sizeof(Entry) == kKeyOffset);

  /// A shared insert claimed the slot; its entry is not published yet.
  static constexpr uint64_t kPending = 1;
  /// A shared insert claimed the slot and the arena refused its entry: the
  /// slot stays occupied (emptying it could cut another key's probe run)
  /// and matches nothing until the next Grow drops it.
  static constexpr uint64_t kDead = 2;

  static Entry* GroupOf(char* entry) { return reinterpret_cast<Entry*>(entry); }
  AggState* States(Entry* e) const {
    return reinterpret_cast<AggState*>(e->row() + states_offset_);
  }
  const AggState* States(const Entry* e) const {
    return reinterpret_cast<const AggState*>(e->row() + states_offset_);
  }

  /// True when one more group would fill more than a quarter of the slots
  /// (dead slots count as filled).
  bool FullWith(int64_t groups) const {
    return Full(groups + dead_.load(std::memory_order_relaxed) + 1);
  }

  /// Grows the slots to hold one more group, dropping dead slots.
  void GrowForNextGroup();

  /// A new entry for `group_row` with zeroed states; nullptr when the arena
  /// refused it (over budget).
  Entry* NewEntry(const char* group_row, bool exclusive);

  /// Inserts the group of `group_row` as the table's only user at empty slot
  /// `slot`, the end of its probe; grows first when the table is full.
  Entry* InsertAt(size_t slot, const char* group_row, uint64_t hash);

  /// Finds or inserts one group as a shared caller holding grow_mu_ through
  /// `lock`, which it trades for the exclusive lock to Grow.
  Entry* FindOrInsertShared(const char* group_row, uint64_t hash,
                            std::shared_lock<std::shared_mutex>* lock);

  /// Pass 1 of UpdateBatch: resolves rows `[0..n)` of canonical group rows
  /// into `entries`. Returns the rows resolved: n, or the index of the first
  /// row whose entry was refused. An exclusive merge resolves one group at a
  /// time (n = 1).
  int32_t Resolve(const char* group_rows, int32_t stride,
                  const uint64_t* hashes, int32_t n, bool exclusive,
                  Entry** entries);

  /// Pass 2 of UpdateBatch: folds rows `[begin..end)` of every aggregate
  /// into their entries' states, one typed loop per aggregate.
  void FoldRows(const std::vector<AggFn>& fns, const double* const* arg_cols,
                Entry* const* entries, int32_t begin, int32_t end) const;

  /// Merges one partial group (see MergeFrom) into `entry`.
  void MergeStates(Entry* entry, const AggState* states,
                   const std::vector<AggFn>& fns, bool exclusive) const;

  int num_aggs_;
  /// Bytes from an entry's group row to its first AggState: the row padded
  /// to 8.
  size_t states_offset_;
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
