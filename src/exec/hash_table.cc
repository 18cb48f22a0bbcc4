#include "exec/hash_table.h"

#include <algorithm>
#include <cstring>
#include <exception>

#include "mem/spill.h"

namespace claims {

namespace {

size_t RoundUpPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

/// From this many slots (32 KiB, about an L1 data cache) a batch fold
/// prefetches the slots and entries it is about to touch.
constexpr size_t kPrefetchSlots = size_t{1} << 12;

/// Seed of the aggregation tables' key hash.
constexpr uint64_t kKeySeed = 0x2545F4914F6CDD1DULL;

}  // namespace

// --- Arena ---------------------------------------------------------------------

Arena::~Arena() { ReleaseChunksLocked(); }

void Arena::Reset() {
  std::lock_guard<std::mutex> lock(refill_mu_);
  current_.store(nullptr, std::memory_order_release);
  ReleaseChunksLocked();
  chunks_.clear();
  allocated_.store(0, std::memory_order_relaxed);
}

void Arena::Swap(Arena* other) {
  std::swap(chunk_bytes_, other->chunk_bytes_);
  std::swap(source_, other->source_);
  chunks_.swap(other->chunks_);
  Chunk* current = current_.load(std::memory_order_relaxed);
  current_.store(other->current_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
  other->current_.store(current, std::memory_order_relaxed);
  const int64_t allocated = allocated_.load(std::memory_order_relaxed);
  allocated_.store(other->allocated_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
  other->allocated_.store(allocated, std::memory_order_relaxed);
}

void Arena::ReleaseChunksLocked() {
  // Pool-backed chunks recycle into the BlockPool (arena.recycled_bytes)
  // instead of churning through the global allocator once per query.
  const bool recycled = source_.pool != nullptr;
  for (const auto& c : chunks_) {
    source_.ReleaseChunk(c->handle, recycled);
  }
}

char* Arena::Allocate(size_t bytes) {
  bytes = (bytes + 7) & ~size_t{7};
  while (true) {
    Chunk* chunk = current_.load(std::memory_order_acquire);
    if (chunk != nullptr) {
      // fetch_add may overshoot the limit; overshooters fall through to the
      // refill path and retry against the next region. The wasted tail is at
      // most (threads - 1) * bytes per refill — bounded and harmless.
      char* cur = chunk->cursor.fetch_add(static_cast<int64_t>(bytes),
                                          std::memory_order_relaxed);
      if (cur + bytes <= chunk->limit) {
        allocated_.fetch_add(static_cast<int64_t>(bytes),
                             std::memory_order_relaxed);
        return cur;
      }
    }
    // Refill. Oversized requests get a dedicated chunk.
    std::lock_guard<std::mutex> lock(refill_mu_);
    if (current_.load(std::memory_order_acquire) != chunk) {
      continue;  // raced a refill — retry on the new region
    }
    size_t size = std::max(bytes, chunk_bytes_);
    PoolAlloc handle = source_.AllocateChunk(size);
    if (!handle) {
      // The query's ledger refused the chunk. The caller turns this into a
      // fallible insert; the arena stays usable — a later attempt after a
      // spill may succeed.
      return nullptr;
    }
    auto fresh = std::make_unique<Chunk>();
    fresh->handle = handle;
    fresh->limit = handle.data + handle.bytes;
    fresh->cursor.store(handle.data, std::memory_order_relaxed);
    if (bytes > chunk_bytes_) {
      // Dedicated chunk: hand it out directly, leave the bump region alone.
      fresh->cursor.store(fresh->limit, std::memory_order_relaxed);
      char* data = handle.data;
      chunks_.push_back(std::move(fresh));
      allocated_.fetch_add(static_cast<int64_t>(bytes),
                           std::memory_order_relaxed);
      return data;
    }
    Chunk* published = fresh.get();
    chunks_.push_back(std::move(fresh));
    current_.store(published, std::memory_order_release);
  }
}

char* Arena::AllocateExclusive(size_t bytes) {
  bytes = (bytes + 7) & ~size_t{7};
  Chunk* chunk = current_.load(std::memory_order_relaxed);
  if (chunk != nullptr) {
    char* cur = chunk->cursor.load(std::memory_order_relaxed);
    if (cur + bytes <= chunk->limit) {
      chunk->cursor.store(cur + bytes, std::memory_order_relaxed);
      allocated_.store(allocated_.load(std::memory_order_relaxed) +
                           static_cast<int64_t>(bytes),
                       std::memory_order_relaxed);
      return cur;
    }
  }
  return Allocate(bytes);
}

// --- KeyComparator -------------------------------------------------------------

KeyComparator::KeyComparator(const Schema* left_schema,
                             std::vector<int> left_cols,
                             const Schema* right_schema,
                             std::vector<int> right_cols)
    : left_schema_(left_schema),
      right_schema_(right_schema),
      left_cols_(std::move(left_cols)),
      right_cols_(std::move(right_cols)) {}

bool KeyComparator::Equal(const char* left_row, const char* right_row) const {
  for (size_t i = 0; i < left_cols_.size(); ++i) {
    int lc = left_cols_[i];
    int rc = right_cols_[i];
    switch (left_schema_->column(lc).type) {
      case DataType::kInt32:
      case DataType::kDate:
        if (left_schema_->GetInt32(left_row, lc) !=
            right_schema_->GetInt32(right_row, rc))
          return false;
        break;
      case DataType::kInt64:
        if (left_schema_->GetInt64(left_row, lc) !=
            right_schema_->GetInt64(right_row, rc))
          return false;
        break;
      case DataType::kFloat64:
        if (left_schema_->GetFloat64(left_row, lc) !=
            right_schema_->GetFloat64(right_row, rc))
          return false;
        break;
      case DataType::kChar:
        if (left_schema_->GetString(left_row, lc) !=
            right_schema_->GetString(right_row, rc))
          return false;
        break;
    }
  }
  return true;
}

// --- JoinHashTable -------------------------------------------------------------

JoinHashTable::JoinHashTable(const Schema* build_schema,
                             std::vector<int> build_keys, size_t num_buckets,
                             MemSource source)
    : build_schema_(build_schema),
      build_keys_(std::move(build_keys)),
      bucket_pool_(source.pool),
      bucket_store_(std::make_unique<BucketArray>(
          source.pool, RoundUpPow2(num_buckets == 0 ? 1 : num_buckets))),
      buckets_(&(*bucket_store_)[0]),
      bucket_mask_(bucket_store_->size() - 1),
      arena_(1 << 18, source) {}

size_t JoinHashTable::BucketsFor(int64_t rows) {
  return RoundUpPow2(2 * static_cast<size_t>(std::max<int64_t>(rows, 1)));
}

bool JoinHashTable::RelinkIfOverloaded() {
  const int64_t rows = size();
  if (rows <= 2 * static_cast<int64_t>(bucket_count())) return false;
  auto bigger = std::make_unique<BucketArray>(bucket_pool_, BucketsFor(rows));
  const size_t mask = bigger->size() - 1;
  for (size_t b = 0; b <= bucket_mask_; ++b) {
    Entry* e = buckets_[b].load(std::memory_order_relaxed);
    while (e != nullptr) {
      Entry* next = e->next;
      std::atomic<Entry*>& head = (*bigger)[e->hash & mask];
      e->next = head.load(std::memory_order_relaxed);
      head.store(e, std::memory_order_relaxed);
      e = next;
    }
  }
  bucket_store_ = std::move(bigger);
  buckets_ = &(*bucket_store_)[0];
  bucket_mask_ = mask;
  return true;
}

bool JoinHashTable::Insert(const char* row) {
  return Insert(row, HashRowKeys(*build_schema_, row, build_keys_));
}

bool JoinHashTable::Insert(const char* row, uint64_t h) {
  char* storage = arena_.Allocate(sizeof(Entry) + build_schema_->row_size());
  if (storage == nullptr) return false;
  auto* entry = reinterpret_cast<Entry*>(storage);
  entry->hash = h;
  std::memcpy(entry->row(), row, build_schema_->row_size());
  std::atomic<Entry*>& head = buckets_[h & bucket_mask_];
  Entry* expected = head.load(std::memory_order_relaxed);
  do {
    entry->next = expected;
  } while (!head.compare_exchange_weak(expected, entry,
                                       std::memory_order_release,
                                       std::memory_order_relaxed));
  size_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

// --- AggHashTable --------------------------------------------------------------

const char* AggFnName(AggFn fn) {
  switch (fn) {
    case AggFn::kCount: return "count";
    case AggFn::kSum: return "sum";
    case AggFn::kAvg: return "avg";
    case AggFn::kMin: return "min";
    case AggFn::kMax: return "max";
  }
  return "?";
}

AggHashTable::AggHashTable(Schema group_schema, int num_aggs,
                           size_t num_slots, MemSource source)
    : group_schema_(std::move(group_schema)),
      all_group_cols_([this] {
        std::vector<int> cols(
            static_cast<size_t>(group_schema_.num_columns()));
        for (size_t i = 0; i < cols.size(); ++i) cols[i] = static_cast<int>(i);
        return cols;
      }()),
      group_cmp_(&group_schema_, all_group_cols_, &group_schema_,
                 all_group_cols_),
      group_row_size_(group_schema_.row_size()),
      bytewise_width_([this] {
        for (const ColumnDef& c : group_schema_.columns()) {
          if (c.type == DataType::kFloat64) return -1;
        }
        return group_row_size_;
      }()),
      num_aggs_(num_aggs),
      states_offset_((static_cast<size_t>(group_row_size_) + 7) & ~size_t{7}),
      entry_bytes_(sizeof(Entry) + states_offset_ +
                   sizeof(AggState) * static_cast<size_t>(num_aggs_)),
      slot_pool_(source.pool),
      slot_store_(std::make_unique<SlotArray>(
          source.pool, RoundUpPow2(std::max(num_slots, kSlotsPerGroup)))),
      slots_(&(*slot_store_)[0]),
      slot_mask_(slot_store_->size() - 1),
      arena_(1 << 18, source) {}

void AggHashTable::HashKeys(const char* group_rows, int32_t stride, int32_t n,
                            uint64_t* out) const {
  // A key of 2, 4 or 8 bytes is one word: load it, mix once.
  auto words = [&](auto word) {
    for (int32_t i = 0; i < n; ++i) {
      decltype(word) w;
      std::memcpy(&w, group_rows + static_cast<size_t>(i) * stride, sizeof(w));
      out[i] = MixHash(kKeySeed ^ static_cast<uint64_t>(w));
    }
  };
  switch (bytewise_width_) {
    case 0:  // no group columns: every row is the one group
      std::fill(out, out + n, MixHash(kKeySeed));
      break;
    case -1:
      HashRowKeysBatch(group_schema_, group_rows, stride, all_group_cols_,
                       nullptr, n, out);
      break;
    case 2:
      words(uint16_t{});
      break;
    case 4:
      words(uint32_t{});
      break;
    case 8:
      words(uint64_t{});
      break;
    default:
      for (int32_t i = 0; i < n; ++i) {
        out[i] = HashBytes(group_rows + static_cast<size_t>(i) * stride,
                           static_cast<size_t>(group_row_size_), kKeySeed);
      }
      break;
  }
}

AggHashTable::Entry* AggHashTable::NewEntry(const char* group_row,
                                            bool exclusive) {
  char* storage = exclusive ? arena_.AllocateExclusive(entry_bytes_)
                            : arena_.Allocate(entry_bytes_);
  if (storage == nullptr) return nullptr;
  // A slot keeps the entry's address beside its tag and marker bits.
  if ((reinterpret_cast<uintptr_t>(storage) & (kTagMask | kMarkerMask)) != 0) {
    std::terminate();
  }
  auto* entry = new (storage) Entry();
  std::memcpy(entry->row(), group_row, static_cast<size_t>(group_row_size_));
  AggState* states = States(entry);
  for (int i = 0; i < num_aggs_; ++i) new (&states[i]) AggState();
  return entry;
}

AggHashTable::Entry* AggHashTable::InsertAt(size_t slot, const char* group_row,
                                            uint64_t hash) {
  const int64_t groups = size();
  if (Full(groups)) {
    Grow();
    slot = hash & slot_mask_;
    while (slots_[slot].load(std::memory_order_relaxed) != 0) {
      slot = (slot + 1) & slot_mask_;
    }
  }
  Entry* entry = NewEntry(group_row, /*exclusive=*/true);
  if (entry == nullptr) return nullptr;
  slots_[slot].store(TagOf(hash) | reinterpret_cast<uintptr_t>(entry),
                     std::memory_order_relaxed);
  // Sole user: a plain store, no read-modify-write.
  size_.store(groups + 1, std::memory_order_relaxed);
  return entry;
}

AggHashTable::Entry* AggHashTable::FindOrInsertShared(
    const char* group_row, uint64_t hash,
    std::shared_lock<std::shared_mutex>* lock) {
  const uint64_t tag = TagOf(hash);
  // Whether this insert holds a place in size_ (taken at the first empty
  // slot, so that the table cannot pass a quarter full while the lock is
  // held shared).
  bool reserved = false;
  size_t i = hash & slot_mask_;
  while (true) {
    uint64_t s = slots_[i].load(std::memory_order_acquire);
    if (s == 0) {
      if (!reserved) {
        if (Full(size_.fetch_add(1, std::memory_order_relaxed))) {
          size_.fetch_sub(1, std::memory_order_relaxed);
          lock->unlock();
          {
            std::lock_guard<std::shared_mutex> grow(grow_mu_);
            if (Full(size())) Grow();
          }
          lock->lock();
          i = hash & slot_mask_;  // the slots moved: probe again
          continue;
        }
        reserved = true;
      }
      // Claim the slot before allocating, so a racer that loses it has
      // nothing to give back.
      if (slots_[i].compare_exchange_strong(s, tag | kPending,
                                            std::memory_order_acquire)) {
        Entry* entry = NewEntry(group_row, /*exclusive=*/false);
        if (entry == nullptr) {
          slots_[i].store(kDead, std::memory_order_release);
          dead_.fetch_add(1, std::memory_order_relaxed);
          size_.fetch_sub(1, std::memory_order_relaxed);
          return nullptr;
        }
        slots_[i].store(tag | reinterpret_cast<uintptr_t>(entry),
                        std::memory_order_release);
        return entry;
      }
      // Lost the slot: `s` now holds the winner's claim; look at it.
    }
    if ((s & kTagMask) == tag) {
      // A pending claim with this tag may be this very key: wait for it.
      while ((s & kMarkerMask) == kPending) {
        s = slots_[i].load(std::memory_order_acquire);
      }
      if ((s & kMarkerMask) == 0 &&
          KeysEqualAs<kAnyWidth>(EntryOf(s)->row(), group_row)) {
        if (reserved) size_.fetch_sub(1, std::memory_order_relaxed);
        return EntryOf(s);
      }
    }
    i = (i + 1) & slot_mask_;
  }
}

void AggHashTable::Grow() {
  size_t slots = slot_count() * 2;
  while (static_cast<size_t>(size() + 1) * kSlotsPerGroup > slots) slots *= 2;
  auto grown = std::make_unique<SlotArray>(slot_pool_, slots);
  const size_t mask = slots - 1;
  ForEachEntry([&](Entry* e) {
    const uint64_t hash = HashKey(e->row());
    size_t i = hash & mask;
    while ((*grown)[i].load(std::memory_order_relaxed) != 0) {
      i = (i + 1) & mask;
    }
    (*grown)[i].store(TagOf(hash) | reinterpret_cast<uintptr_t>(e),
                      std::memory_order_relaxed);
    return true;
  });
  slot_store_ = std::move(grown);
  slots_ = &(*slot_store_)[0];
  slot_mask_ = mask;
  dead_.store(0, std::memory_order_relaxed);
}

void AggHashTable::SwapGroups(AggHashTable* other) {
  std::swap(slot_pool_, other->slot_pool_);
  slot_store_.swap(other->slot_store_);
  std::swap(slots_, other->slots_);
  std::swap(slot_mask_, other->slot_mask_);
  arena_.Swap(&other->arena_);
  const int64_t size = size_.load(std::memory_order_relaxed);
  size_.store(other->size(), std::memory_order_relaxed);
  other->size_.store(size, std::memory_order_relaxed);
  const int64_t dead = dead_.load(std::memory_order_relaxed);
  dead_.store(other->dead_.load(std::memory_order_relaxed),
              std::memory_order_relaxed);
  other->dead_.store(dead, std::memory_order_relaxed);
}

template <int kWidth>
int32_t AggHashTable::ResolveExclusive(const char* group_rows, int32_t stride,
                                       const uint64_t* hashes, int32_t n,
                                       Entry** entries) {
  // The hashes are known up front: once the slots outgrow the L1 cache,
  // load row i + 2 * kAhead's home slot, and row i + kAhead's entry, while
  // row i resolves.
  constexpr int32_t kAhead = 8;
  std::atomic<uint64_t>* slots = slots_;
  size_t mask = slot_mask_;
  for (int32_t i = 0; i < n; ++i) {
    if (mask >= kPrefetchSlots - 1) {
      if (i + 2 * kAhead < n) {
        __builtin_prefetch(&slots[hashes[i + 2 * kAhead] & mask]);
      }
      if (i + kAhead < n) {
        const uint64_t s =
            slots[hashes[i + kAhead] & mask].load(std::memory_order_relaxed);
        if (s != 0) __builtin_prefetch(EntryOf(s));
      }
    }
    const char* row = group_rows + static_cast<size_t>(i) * stride;
    const uint64_t hash = hashes[i];
    const uint64_t tag = TagOf(hash);
    size_t j = hash & mask;
    Entry* entry = nullptr;
    for (uint64_t s; (s = slots[j].load(std::memory_order_relaxed)) != 0;
         j = (j + 1) & mask) {
      if (TagMatches(s, tag) && KeysEqualAs<kWidth>(EntryOf(s)->row(), row)) {
        entry = EntryOf(s);
        break;
      }
    }
    if (entry == nullptr) {
      entry = InsertAt(j, row, hash);
      if (entry == nullptr) return i;
      slots = slots_;  // InsertAt may have grown the table
      mask = slot_mask_;
    }
    entries[i] = entry;
  }
  return n;
}

int32_t AggHashTable::Resolve(const char* group_rows, int32_t stride,
                              const uint64_t* hashes, int32_t n,
                              bool exclusive, Entry** entries) {
  if (exclusive) {
    switch (bytewise_width_) {
      case 2:
        return ResolveExclusive<2>(group_rows, stride, hashes, n, entries);
      case 4:
        return ResolveExclusive<4>(group_rows, stride, hashes, n, entries);
      case 8:
        return ResolveExclusive<8>(group_rows, stride, hashes, n, entries);
      default:
        return ResolveExclusive<kAnyWidth>(group_rows, stride, hashes, n,
                                           entries);
    }
  }
  std::shared_lock<std::shared_mutex> lock(grow_mu_);
  for (int32_t i = 0; i < n; ++i) {
    entries[i] = FindOrInsertShared(
        group_rows + static_cast<size_t>(i) * stride, hashes[i], &lock);
    if (entries[i] == nullptr) return i;
  }
  return n;
}

void AggHashTable::FoldRows(const std::vector<AggFn>& fns,
                            const double* const* arg_cols,
                            Entry* const* entries, int32_t begin,
                            int32_t end) const {
  for (size_t a = 0; a < fns.size(); ++a) {
    const size_t offset = states_offset_ + a * sizeof(AggState);
    auto state = [&](int32_t i) {
      return reinterpret_cast<AggState*>(entries[i]->row() + offset);
    };
    const double* v = arg_cols[a];
    if (v == nullptr && fns[a] != AggFn::kCount) {
      for (int32_t i = begin; i < end; ++i) FoldAgg(fns[a], 0.0, 1, state(i));
      continue;
    }
    switch (fns[a]) {
      case AggFn::kCount:
        for (int32_t i = begin; i < end; ++i) state(i)->count += 1;
        break;
      case AggFn::kSum:
      case AggFn::kAvg:
        for (int32_t i = begin; i < end; ++i) {
          AggState* st = state(i);
          st->sum += v[i];
          st->count += 1;
        }
        break;
      case AggFn::kMin:
        for (int32_t i = begin; i < end; ++i) {
          AggState* st = state(i);
          if (st->count == 0 || v[i] < st->sum) st->sum = v[i];
          st->count += 1;
        }
        break;
      case AggFn::kMax:
        for (int32_t i = begin; i < end; ++i) {
          AggState* st = state(i);
          if (st->count == 0 || v[i] > st->sum) st->sum = v[i];
          st->count += 1;
        }
        break;
    }
  }
}

bool AggHashTable::UpdateBatch(const char* group_rows, int32_t stride,
                               const uint64_t* hashes, int32_t n,
                               const std::vector<AggFn>& fns,
                               const double* const* arg_cols, bool exclusive,
                               int32_t* folded) {
  Scratch<Entry*> entries(slot_pool_, static_cast<size_t>(std::max(n, 1)));
  const int32_t resolved =
      Resolve(group_rows, stride, hashes, n, exclusive, entries.data());
  if (exclusive) {
    FoldRows(fns, arg_cols, entries.data(), 0, resolved);
  } else {
    // One hold of the entry lock per run of rows in the same group: a
    // scalar aggregation's block folds under a single acquisition.
    for (int32_t begin = 0, end; begin < resolved; begin = end) {
      Entry* entry = entries[begin];
      for (end = begin + 1; end < resolved && entries[end] == entry; ++end) {
      }
      while (entry->lock.test_and_set(std::memory_order_acquire)) {
      }
      FoldRows(fns, arg_cols, entries.data(), begin, end);
      entry->lock.clear(std::memory_order_release);
    }
  }
  if (folded != nullptr) *folded = resolved;
  return resolved == n;
}

bool AggHashTable::Update(const char* group_row, const std::vector<AggFn>& fns,
                          const double* values, const int64_t* count_weights) {
  Entry* entry;
  {
    std::shared_lock<std::shared_mutex> lock(grow_mu_);
    entry = FindOrInsertShared(group_row, HashKey(group_row), &lock);
  }
  if (entry == nullptr) return false;
  AggState* states = States(entry);
  // Per-entry spinlock: the contention point of shared aggregation.
  while (entry->lock.test_and_set(std::memory_order_acquire)) {
  }
  for (int i = 0; i < num_aggs_; ++i) {
    FoldAgg(fns[i], values[i], count_weights[i], &states[i]);
  }
  entry->lock.clear(std::memory_order_release);
  return true;
}

void AggHashTable::MergeStates(Entry* entry, const AggState* states,
                               const std::vector<AggFn>& fns,
                               bool exclusive) const {
  AggState* into = States(entry);
  if (!exclusive) {
    while (entry->lock.test_and_set(std::memory_order_acquire)) {
    }
  }
  for (int i = 0; i < num_aggs_; ++i) {
    FoldAgg(fns[i], states[i].sum, states[i].count, &into[i]);
  }
  if (!exclusive) entry->lock.clear(std::memory_order_release);
}

bool AggHashTable::MergeFrom(const AggHashTable& src,
                             const std::vector<AggFn>& fns, bool exclusive) {
  std::shared_lock<std::shared_mutex> lock(grow_mu_, std::defer_lock);
  if (!exclusive) lock.lock();
  return src.ForEachEntry([&](const Entry* e) {
    const uint64_t hash = HashKey(e->row());
    Entry* entry = nullptr;
    if (exclusive) {
      Resolve(e->row(), 0, &hash, 1, /*exclusive=*/true, &entry);
    } else {
      entry = FindOrInsertShared(e->row(), hash, &lock);
    }
    if (entry == nullptr) return false;
    MergeStates(entry, src.States(e), fns, exclusive);
    return true;
  });
}

Status AggHashTable::SerializeTo(SpillRun* run) const {
  const int32_t header[2] = {group_row_size_, num_aggs_};
  Status s = run->Append(header, sizeof(header));
  if (!s.ok()) return s;
  const int64_t count = size();
  s = run->Append(&count, sizeof(count));
  if (!s.ok()) return s;
  Status append_status;
  ForEach([&](const char* group_row, const AggState* states) {
    if (!append_status.ok()) return;
    append_status = run->Append(group_row, group_row_size_);
    if (!append_status.ok()) return;
    append_status =
        run->Append(states, sizeof(AggState) * static_cast<size_t>(num_aggs_));
  });
  return append_status;
}

Status AggHashTable::MergeSerialized(const char* data, size_t bytes,
                                     const std::vector<AggFn>& fns,
                                     AggHashTable* into) {
  if (bytes < sizeof(int32_t) * 2 + sizeof(int64_t)) {
    return Status::Internal("spill run truncated header");
  }
  int32_t group_row_size = 0;
  int32_t num_aggs = 0;
  int64_t count = 0;
  std::memcpy(&group_row_size, data, sizeof(group_row_size));
  std::memcpy(&num_aggs, data + sizeof(int32_t), sizeof(num_aggs));
  std::memcpy(&count, data + sizeof(int32_t) * 2, sizeof(count));
  if (group_row_size != into->group_row_size_ || num_aggs != into->num_aggs_) {
    return Status::Internal("spill run layout mismatch");
  }
  const size_t entry_bytes =
      static_cast<size_t>(group_row_size) +
      sizeof(AggState) * static_cast<size_t>(num_aggs);
  const char* p = data + sizeof(int32_t) * 2 + sizeof(int64_t);
  const char* end = data + bytes;
  std::vector<AggState> states(static_cast<size_t>(num_aggs));
  for (int64_t i = 0; i < count; ++i) {
    if (p + entry_bytes > end) {
      return Status::Internal("spill run truncated entry");
    }
    const char* group_row = p;
    // Identical fold rules to MergeFrom (count == 0 marks MIN/MAX unset, so
    // merging preserves first-fold semantics). memcpy because the packed run
    // does not align AggStates after an odd-sized group row.
    std::memcpy(states.data(), p + group_row_size,
                sizeof(AggState) * static_cast<size_t>(num_aggs));
    const uint64_t hash = into->HashKey(group_row);
    Entry* entry = nullptr;
    if (into->Resolve(group_row, 0, &hash, 1, /*exclusive=*/true, &entry) ==
        0) {
      return Status::ResourceExhausted("agg table over budget during restore");
    }
    into->MergeStates(entry, states.data(), fns, /*exclusive=*/true);
    p += entry_bytes;
  }
  return Status::OK();
}

}  // namespace claims
