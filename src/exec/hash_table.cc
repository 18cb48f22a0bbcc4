#include "exec/hash_table.h"

#include <cstring>

#include "mem/spill.h"

namespace claims {

namespace {

size_t RoundUpPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

/// Up to this many buckets (256 KiB, the fixed size of a shared aggregation
/// table) a growing aggregation table stays at most 1/8 full, beyond it at
/// most half full. While the table is cache-resident a fold's cost rises
/// with the load (2000 groups: +30% at 1/2 full against 1/8); once lookups
/// are memory-bound the load barely matters and the array's size does.
constexpr size_t kSparseBuckets = size_t{1} << 14;

/// From this many buckets (64 KiB, more than an L1 data cache holds) a batch
/// fold prefetches the buckets and entries it is about to touch.
constexpr size_t kPrefetchBuckets = size_t{1} << 12;

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
                           size_t num_buckets, MemSource source)
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
      bytewise_keys_([this] {
        for (const ColumnDef& c : group_schema_.columns()) {
          if (c.type != DataType::kInt32 && c.type != DataType::kDate &&
              c.type != DataType::kInt64) {
            return false;
          }
        }
        return true;
      }()),
      num_aggs_(num_aggs),
      entry_bytes_(sizeof(Entry) + Entry::AlignUp(group_row_size_) +
                   sizeof(AggState) * static_cast<size_t>(num_aggs_)),
      bucket_pool_(source.pool),
      bucket_store_(std::make_unique<PooledArray<Bucket>>(
          source.pool, RoundUpPow2(num_buckets == 0 ? 1 : num_buckets))),
      buckets_(&(*bucket_store_)[0]),
      bucket_mask_(bucket_store_->size() - 1),
      arena_(1 << 18, source) {}

AggHashTable::Entry* AggHashTable::FindOrCreate(const char* group_row,
                                                uint64_t hash,
                                                bool exclusive) {
  // Lock-free lookup first.
  if (Entry* e = Find(group_row, hash)) return e;
  Bucket& bucket = buckets_[hash & bucket_mask_];
  // Slow path: exclusive insert for this bucket, re-check, then link. A sole
  // writer has nobody to exclude and nothing to re-check.
  Entry* head = bucket.head.load(std::memory_order_relaxed);
  if (!exclusive) {
    while (bucket.insert_lock.test_and_set(std::memory_order_acquire)) {
    }
    head = bucket.head.load(std::memory_order_relaxed);
    for (Entry* e = head; e != nullptr; e = e->next) {
      if (e->hash == hash && KeysEqual(e->row(group_row_size_), group_row)) {
        bucket.insert_lock.clear(std::memory_order_release);
        return e;
      }
    }
  }
  char* storage = exclusive ? arena_.AllocateExclusive(entry_bytes_)
                            : arena_.Allocate(entry_bytes_);
  if (storage == nullptr) {
    // Release the bucket lock before failing or every other thread hashing
    // into this bucket would spin forever.
    if (!exclusive) bucket.insert_lock.clear(std::memory_order_release);
    return nullptr;
  }
  auto* entry = reinterpret_cast<Entry*>(storage);
  new (entry) Entry();
  entry->hash = hash;
  std::memcpy(entry->row(group_row_size_), group_row, group_row_size_);
  AggState* states = entry->states(group_row_size_, num_aggs_);
  for (int i = 0; i < num_aggs_; ++i) new (&states[i]) AggState();
  entry->next = head;
  bucket.head.store(entry, std::memory_order_release);
  if (!exclusive) bucket.insert_lock.clear(std::memory_order_release);
  size_t groups;
  if (exclusive) {
    // Sole writer: a plain store, no read-modify-write.
    groups = static_cast<size_t>(size_.load(std::memory_order_relaxed)) + 1;
    size_.store(static_cast<int64_t>(groups), std::memory_order_relaxed);
  } else {
    groups =
        static_cast<size_t>(size_.fetch_add(1, std::memory_order_relaxed)) + 1;
  }
  // One group (a scalar aggregation) never needs a second bucket.
  const size_t max_load_inverse = bucket_count() < kSparseBuckets ? 8 : 2;
  if (exclusive && groups > 1 && groups * max_load_inverse > bucket_count()) {
    Grow();
  }
  return entry;
}

void AggHashTable::Grow() {
  auto grown =
      std::make_unique<PooledArray<Bucket>>(bucket_pool_, bucket_count() * 2);
  const size_t mask = grown->size() - 1;
  ForEachEntry([&](Entry* e) {
    std::atomic<Entry*>& head = (*grown)[e->hash & mask].head;
    e->next = head.load(std::memory_order_relaxed);
    head.store(e, std::memory_order_relaxed);
    return true;
  });
  bucket_store_ = std::move(grown);
  buckets_ = &(*bucket_store_)[0];
  bucket_mask_ = mask;
}

void AggHashTable::SwapGroups(AggHashTable* other) {
  std::swap(bucket_pool_, other->bucket_pool_);
  bucket_store_.swap(other->bucket_store_);
  std::swap(buckets_, other->buckets_);
  std::swap(bucket_mask_, other->bucket_mask_);
  arena_.Swap(&other->arena_);
  const int64_t size = size_.load(std::memory_order_relaxed);
  size_.store(other->size(), std::memory_order_relaxed);
  other->size_.store(size, std::memory_order_relaxed);
}

bool AggHashTable::MergeGroup(const char* group_row, uint64_t hash,
                              const AggState* states,
                              const std::vector<AggFn>& fns, bool exclusive) {
  Entry* entry = FindOrCreate(group_row, hash, exclusive);
  if (entry == nullptr) return false;
  AggState* into = entry->states(group_row_size_, num_aggs_);
  if (!exclusive) {
    while (entry->lock.test_and_set(std::memory_order_acquire)) {
    }
  }
  for (int i = 0; i < num_aggs_; ++i) {
    FoldAgg(fns[i], states[i].sum, states[i].count, &into[i]);
  }
  if (!exclusive) entry->lock.clear(std::memory_order_release);
  return true;
}

bool AggHashTable::MergeFrom(const AggHashTable& src,
                             const std::vector<AggFn>& fns, bool exclusive) {
  return src.ForEachEntry([&](const Entry* e) {
    return MergeGroup(e->row(src.group_row_size_), e->hash,
                      e->states(src.group_row_size_, src.num_aggs_), fns,
                      exclusive);
  });
}

bool AggHashTable::Update(const char* group_row, const std::vector<AggFn>& fns,
                          const double* values, const int64_t* count_weights) {
  Entry* entry = FindOrCreate(
      group_row, HashRowKeys(group_schema_, group_row, all_group_cols_),
      /*exclusive=*/false);
  if (entry == nullptr) return false;
  AggState* states = entry->states(group_row_size_, num_aggs_);
  // Per-entry spinlock: the contention point of shared aggregation.
  while (entry->lock.test_and_set(std::memory_order_acquire)) {
  }
  for (int i = 0; i < num_aggs_; ++i) {
    FoldAgg(fns[i], values[i], count_weights[i], &states[i]);
  }
  entry->lock.clear(std::memory_order_release);
  return true;
}

bool AggHashTable::UpdateBatch(const char* group_rows, int32_t stride,
                               const uint64_t* hashes, int32_t n,
                               const std::vector<AggFn>& fns,
                               const double* const* arg_cols, bool exclusive,
                               int32_t* folded) {
  const int num_aggs = num_aggs_;
  // The hashes are known up front: once the table outgrows the L1 cache,
  // load row i + kAhead's first entry, and row i + 2 * kAhead's bucket,
  // while row i folds. (A Grow mid-batch only makes a few hints stale.)
  constexpr int32_t kAhead = 8;
  for (int32_t i = 0; i < n; ++i) {
    const bool ahead = bucket_mask_ >= kPrefetchBuckets - 1;
    if (ahead && i + 2 * kAhead < n) {
      __builtin_prefetch(&buckets_[hashes[i + 2 * kAhead] & bucket_mask_]);
    }
    if (ahead && i + kAhead < n) {
      const Entry* next = buckets_[hashes[i + kAhead] & bucket_mask_].head.load(
          std::memory_order_relaxed);
      if (next != nullptr) __builtin_prefetch(next);
    }
    const char* row = group_rows + static_cast<size_t>(i) * stride;
    Entry* entry = Find(row, hashes[i]);
    if (entry == nullptr) entry = FindOrCreate(row, hashes[i], exclusive);
    if (entry == nullptr) {
      if (folded != nullptr) *folded = i;
      return false;
    }
    AggState* states = entry->states(group_row_size_, num_aggs);
    if (!exclusive) {
      while (entry->lock.test_and_set(std::memory_order_acquire)) {
      }
    }
    for (int a = 0; a < num_aggs; ++a) {
      FoldAgg(fns[a], arg_cols[a] != nullptr ? arg_cols[a][i] : 0.0, 1,
              &states[a]);
    }
    if (!exclusive) entry->lock.clear(std::memory_order_release);
  }
  if (folded != nullptr) *folded = n;
  return true;
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
    const uint64_t hash =
        HashRowKeys(into->group_schema_, group_row, into->all_group_cols_);
    if (!into->MergeGroup(group_row, hash, states.data(), fns,
                          /*exclusive=*/true)) {
      return Status::ResourceExhausted("agg table over budget during restore");
    }
    p += entry_bytes;
  }
  return Status::OK();
}

}  // namespace claims
