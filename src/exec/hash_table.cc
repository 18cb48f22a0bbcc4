#include "exec/hash_table.h"

#include <algorithm>
#include <cstring>
#include <exception>
#include <new>

#include "mem/spill.h"
#include "storage/partition.h"

namespace claims {

namespace {

size_t RoundUpPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

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
      if (cur <= chunk->limit) {
        chunk->filled.store(cur, std::memory_order_relaxed);
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

// --- SlotTable -----------------------------------------------------------------

SlotTable::SlotTable(Schema key_schema, size_t num_slots, MemSource source)
    : key_schema_(std::move(key_schema)),
      key_size_(key_schema_.row_size()),
      arena_(1 << 18, source),
      slot_pool_(source.pool),
      slot_store_(std::make_unique<SlotArray>(
          source.pool, RoundUpPow2(std::max(num_slots, kSlotsPerKey)))),
      slots_(&(*slot_store_)[0]),
      slot_mask_(slot_store_->size() - 1) {
  for (int c = 0; c < key_schema_.num_columns(); ++c) {
    key_cols_.push_back(c);
    if (key_schema_.column(c).type == DataType::kFloat64) {
      float_offsets_.push_back(key_schema_.offset(c));
    }
  }
}

uint64_t SlotTable::SlotOf(uint64_t hash, const void* entry) {
  const auto address = reinterpret_cast<uintptr_t>(entry);
  if ((address & (kTagMask | kMarkerMask)) != 0) std::terminate();
  return TagOf(hash) | address;
}

void SlotTable::Canonicalize(char* keys, int32_t stride, int32_t n) const {
  for (const int32_t offset : float_offsets_) {
    for (int32_t i = 0; i < n; ++i) {
      char* p = keys + static_cast<size_t>(i) * stride + offset;
      double d;
      std::memcpy(&d, p, sizeof(d));
      if (d == 0.0) std::memset(p, 0, sizeof(d));  // 0.0's bits
    }
  }
}

void SlotTable::HashKeys(const char* keys, int32_t stride, int32_t n,
                         uint64_t* out) const {
  claims::HashKeys(key_schema_, keys, stride, key_cols_, n, out);
}

// --- JoinHashTable -------------------------------------------------------------

JoinHashTable::JoinHashTable(const Schema* build_schema,
                             std::vector<int> build_keys, size_t expected_rows,
                             MemSource source)
    : JoinHashTable(build_schema, build_keys,
                    KeySchema(*build_schema, build_keys, *build_schema,
                              build_keys),
                    expected_rows, source) {}

JoinHashTable::JoinHashTable(const Schema* build_schema,
                             std::vector<int> build_keys, Schema key_schema,
                             size_t expected_rows, MemSource source)
    : SlotTable(std::move(key_schema),
                RoundUpPow2(std::max<size_t>(expected_rows, 1) * kSlotsPerKey),
                source),
      build_schema_(build_schema),
      build_keys_(std::move(build_keys)),
      row_offset_(kKeyOffset + static_cast<size_t>(key_size_)) {
  entry_bytes_ =
      (row_offset_ + static_cast<size_t>(build_schema->row_size()) + 7) &
      ~size_t{7};
  entries_per_allocation_ = std::max<size_t>(1, 4096 / entry_bytes_);
}

Schema JoinHashTable::KeySchema(const Schema& build,
                                const std::vector<int>& build_keys,
                                const Schema& probe,
                                const std::vector<int>& probe_keys) {
  std::vector<ColumnDef> cols;
  for (size_t i = 0; i < build_keys.size(); ++i) {
    ColumnDef col = build.column(build_keys[i]);
    const ColumnDef& other = probe.column(probe_keys[i]);
    // INT32 and DATE pair as the build side's type: 4 bytes by value.
    if (other.type == DataType::kFloat64 ||
        (other.type == DataType::kInt64 && col.type != DataType::kFloat64)) {
      col.type = other.type;
    }
    col.char_width = std::max(col.char_width, other.char_width);
    cols.push_back(std::move(col));
  }
  return Schema(std::move(cols));
}

char* JoinHashTable::PackKey(const Schema& schema, const char* row,
                             const std::vector<int>& cols) const {
  // Per thread: a caller reads the key before it calls back into any table.
  thread_local std::vector<char> key;
  key.resize(static_cast<size_t>(key_size_));
  for (int c = 0; c < key_schema_.num_columns(); ++c) {
    const int col = cols[static_cast<size_t>(c)];
    // By value; a CHAR key is copied as bytes, building no string.
    if (key_schema_.column(c).type == DataType::kChar) {
      key_schema_.SetString(key.data(), c, schema.GetString(row, col));
    } else {
      key_schema_.SetValue(key.data(), c, schema.GetValue(row, col));
    }
  }
  return key.data();
}

bool JoinHashTable::Insert(const char* row) {
  return InsertBatch(PackKey(*build_schema_, row, build_keys_), row, 0, 1);
}

bool JoinHashTable::InsertBatch(char* keys, const char* rows, int32_t stride,
                                int32_t n) {
  if (n <= 0) return true;
  Canonicalize(keys, key_size_, n);
  std::shared_lock<std::shared_mutex> lock(grow_mu_);
  // Room for every key of the batch, reserved once: while the lock is held
  // shared, the table cannot pass a quarter full.
  while (Full(keys_.fetch_add(n, std::memory_order_relaxed) + n)) {
    keys_.fetch_sub(n, std::memory_order_relaxed);
    lock.unlock();
    {
      std::lock_guard<std::shared_mutex> grow(grow_mu_);
      const int64_t want = key_count() + n;
      if (Full(want)) {
        Grow(want, [](const char* entry) {
          return (reinterpret_cast<const Entry*>(entry)->link.load(
                      std::memory_order_relaxed) &
                  kHead) != 0;
        });
      }
    }
    lock.lock();
  }
  int64_t added = 0;  // keys that took a slot
  const int32_t linked = WithKeyWidth([&](auto width) -> int32_t {
    constexpr int kWidth = decltype(width)::value;
    const size_t row_size = static_cast<size_t>(build_schema_->row_size());
    char* next = nullptr;  // this batch's unused entries: [next, end)
    char* end = nullptr;
    uint64_t hashes[kProbeRun];
    for (int32_t begin = 0; begin < n; begin += kProbeRun) {
      const int32_t m = std::min(kProbeRun, n - begin);
      const char* run_keys = keys + static_cast<size_t>(begin) * key_size_;
      HashKeys(run_keys, key_size_, m, hashes);
      const int32_t done = ProbeRows(hashes, m, [&](int32_t i) {
        if (next == end) {
          const size_t count = std::min(entries_per_allocation_,
                                        static_cast<size_t>(n - begin - i));
          next = arena_.Allocate(count * entry_bytes_);
          if (next == nullptr) return false;
          end = next + count * entry_bytes_;
        }
        auto* entry = new (next) Entry();
        const char* key = run_keys + static_cast<size_t>(i) * key_size_;
        std::memcpy(next + kKeyOffset, key, static_cast<size_t>(key_size_));
        std::memcpy(next + row_offset_,
                    rows + static_cast<size_t>(begin + i) * stride, row_size);
        next += entry_bytes_;
        // The entry heads its key's list unless the key is there already.
        entry->link.store(kHead, std::memory_order_relaxed);
        const uint64_t hash = hashes[i];
        for (size_t j = HomeOf(hash);;) {
          auto* first =
              reinterpret_cast<Entry*>(FindFrom<kWidth>(key, hash, &j));
          if (first != nullptr) {  // link second: first -> entry -> the rest
            uintptr_t head = first->link.load(std::memory_order_relaxed);
            do {
              entry->link.store(head & ~kHead, std::memory_order_relaxed);
            } while (!first->link.compare_exchange_weak(
                head, reinterpret_cast<uintptr_t>(entry) | kHead,
                std::memory_order_release, std::memory_order_relaxed));
            return true;
          }
          uint64_t empty = 0;
          if (slots_[j].compare_exchange_strong(empty, SlotOf(hash, entry),
                                                std::memory_order_release,
                                                std::memory_order_relaxed)) {
            ++added;
            return true;
          }
          // Lost slot j to a racer, whose key may be this one: probe on.
        }
      });
      if (done < m) return begin + done;
    }
    return n;
  });
  if (added < n) keys_.fetch_sub(n - added, std::memory_order_relaxed);
  size_.fetch_add(linked, std::memory_order_relaxed);
  return linked == n;
}

void JoinHashTable::FindFirsts(char* keys, int32_t n,
                               const Entry** firsts) const {
  Canonicalize(keys, key_size_, n);
  uint64_t hashes[kProbeRun];
  HashKeys(keys, key_size_, n, hashes);
  WithKeyWidth([&](auto width) {
    ProbeRows(hashes, n, [&](int32_t i) {
      size_t j = HomeOf(hashes[i]);
      firsts[i] = reinterpret_cast<const Entry*>(
          FindFrom<decltype(width)::value>(
              keys + static_cast<size_t>(i) * key_size_, hashes[i], &j));
      return true;
    });
  });
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
    : SlotTable(std::move(group_schema), num_slots, source),
      num_aggs_(num_aggs),
      states_offset_((static_cast<size_t>(key_size_) + 7) & ~size_t{7}) {
  entry_bytes_ = sizeof(Entry) + states_offset_ +
                 sizeof(AggState) * static_cast<size_t>(num_aggs_);
}

AggHashTable::Entry* AggHashTable::NewEntry(const char* group_row,
                                            bool exclusive) {
  char* storage = exclusive ? arena_.AllocateExclusive(entry_bytes_)
                            : arena_.Allocate(entry_bytes_);
  if (storage == nullptr) return nullptr;
  auto* entry = new (storage) Entry();
  std::memcpy(entry->row(), group_row, static_cast<size_t>(key_size_));
  AggState* states = States(entry);
  for (int i = 0; i < num_aggs_; ++i) new (&states[i]) AggState();
  return entry;
}

void AggHashTable::GrowForNextGroup() {
  Grow(size() + 1, [](const char*) { return true; });
  dead_.store(0, std::memory_order_relaxed);
}

AggHashTable::Entry* AggHashTable::InsertAt(size_t slot, const char* group_row,
                                            uint64_t hash) {
  const int64_t groups = size();
  if (FullWith(groups)) {
    GrowForNextGroup();
    slot = HomeOf(hash);
    while (slots_[slot].load(std::memory_order_relaxed) != 0) {
      slot = (slot + 1) & slot_mask_;
    }
  }
  Entry* entry = NewEntry(group_row, /*exclusive=*/true);
  if (entry == nullptr) return nullptr;
  slots_[slot].store(SlotOf(hash, entry), std::memory_order_relaxed);
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
  size_t i = HomeOf(hash);
  while (true) {
    uint64_t s = slots_[i].load(std::memory_order_acquire);
    if (s == 0) {
      if (!reserved) {
        if (FullWith(size_.fetch_add(1, std::memory_order_relaxed))) {
          size_.fetch_sub(1, std::memory_order_relaxed);
          lock->unlock();
          {
            std::lock_guard<std::shared_mutex> grow(grow_mu_);
            if (FullWith(size())) GrowForNextGroup();
          }
          lock->lock();
          i = HomeOf(hash);  // the slots moved: probe again
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
        slots_[i].store(SlotOf(hash, entry), std::memory_order_release);
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
          std::memcmp(EntryOf(s) + kKeyOffset, group_row, key_size_) == 0) {
        if (reserved) size_.fetch_sub(1, std::memory_order_relaxed);
        return GroupOf(EntryOf(s));
      }
    }
    i = (i + 1) & slot_mask_;
  }
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

int32_t AggHashTable::Resolve(const char* group_rows, int32_t stride,
                              const uint64_t* hashes, int32_t n,
                              bool exclusive, Entry** entries) {
  if (exclusive) {
    return WithKeyWidth([&](auto width) {
      return ProbeRows(hashes, n, [&](int32_t i) {
        const char* row = group_rows + static_cast<size_t>(i) * stride;
        size_t j = HomeOf(hashes[i]);
        Entry* entry =
            GroupOf(FindFrom<decltype(width)::value>(row, hashes[i], &j));
        if (entry == nullptr) entry = InsertAt(j, row, hashes[i]);
        entries[i] = entry;
        return entry != nullptr;
      });
    });
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

bool AggHashTable::UpdateBatch(char* group_rows, int32_t stride,
                               const uint64_t* hashes, int32_t n,
                               const std::vector<AggFn>& fns,
                               const double* const* arg_cols, bool exclusive,
                               int32_t* folded) {
  Canonicalize(group_rows, stride, n);
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
  // A canonical copy, per thread: no allocation once it has grown.
  thread_local std::vector<char> canonical;
  if (!float_offsets_.empty()) {
    canonical.assign(group_row, group_row + key_size_);
    Canonicalize(canonical.data(), key_size_, 1);
    group_row = canonical.data();
  }
  uint64_t hash;
  HashKeys(group_row, 0, 1, &hash);
  Entry* entry;
  {
    std::shared_lock<std::shared_mutex> lock(grow_mu_);
    entry = FindOrInsertShared(group_row, hash, &lock);
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
  return src.ForEachEntry<true>([&](char* group, uint64_t hash) {
    const Entry* e = GroupOf(group);
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
  const int32_t header[2] = {key_size_, num_aggs_};
  Status s = run->Append(header, sizeof(header));
  if (!s.ok()) return s;
  const int64_t count = size();
  s = run->Append(&count, sizeof(count));
  if (!s.ok()) return s;
  Status append_status;
  ForEach([&](const char* group_row, const AggState* states) {
    if (!append_status.ok()) return;
    append_status = run->Append(group_row, key_size_);
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
  if (group_row_size != into->key_size_ || num_aggs != into->num_aggs_) {
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
    uint64_t hash;
    into->HashKeys(group_row, 0, 1, &hash);
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
