#include "exec/ops/sort.h"

#include <algorithm>
#include <cstring>

#include "mem/query_budget.h"

namespace claims {

int RowComparator::Compare(const char* a, const char* b) const {
  for (const SortKey& k : keys_) {
    int c = 0;
    switch (schema_->column(k.column).type) {
      case DataType::kInt32:
      case DataType::kDate: {
        int32_t x = schema_->GetInt32(a, k.column);
        int32_t y = schema_->GetInt32(b, k.column);
        c = x < y ? -1 : (x == y ? 0 : 1);
        break;
      }
      case DataType::kInt64: {
        int64_t x = schema_->GetInt64(a, k.column);
        int64_t y = schema_->GetInt64(b, k.column);
        c = x < y ? -1 : (x == y ? 0 : 1);
        break;
      }
      case DataType::kFloat64: {
        double x = schema_->GetFloat64(a, k.column);
        double y = schema_->GetFloat64(b, k.column);
        c = x < y ? -1 : (x == y ? 0 : 1);
        break;
      }
      case DataType::kChar: {
        std::string_view x = schema_->GetString(a, k.column);
        std::string_view y = schema_->GetString(b, k.column);
        c = x < y ? -1 : (x == y ? 0 : 1);
        break;
      }
    }
    if (c != 0) return k.ascending ? c : -c;
  }
  return 0;
}

SortIterator::SortIterator(std::unique_ptr<Iterator> child,
                           const Schema* schema, std::vector<SortKey> keys,
                           QueryBudget* budget, int num_ranges)
    : child_(std::move(child)),
      schema_(schema),
      comparator_(schema, std::move(keys)),
      budget_(budget),
      num_ranges_(std::max(1, num_ranges)) {
  range_blocks_.resize(static_cast<size_t>(num_ranges_));
}

void SortIterator::DeregisterAll() {
  barrier1_.Deregister();
  barrier3_.Deregister();
}

bool SortIterator::Charge(int64_t bytes) {
  if (budget_ == nullptr) return true;
  if (!budget_->TryCharge(bytes)) {
    budget_->MarkRejected();
    return false;
  }
  charged_.fetch_add(bytes, std::memory_order_relaxed);
  return true;
}

std::vector<const char*> SortIterator::MakeRun(const Block& block) const {
  std::vector<const char*> run;
  run.reserve(static_cast<size_t>(block.num_rows()));
  for (int i = 0; i < block.num_rows(); ++i) run.push_back(block.RowAt(i));
  std::sort(run.begin(), run.end(), comparator_);
  return run;
}

void SortIterator::FinishRuns() {
  std::lock_guard<std::mutex> lock(mu_);
  // A worker that left after buffering its last block may have found every
  // other worker past phase 1b already: its chunk is still unsorted.
  for (int chunk = chunk_cursor_.load(std::memory_order_relaxed);
       chunk < static_cast<int>(buffered_.size()); ++chunk) {
    runs_.push_back(MakeRun(*buffered_[static_cast<size_t>(chunk)]));
  }
  chunk_cursor_.store(static_cast<int>(buffered_.size()),
                      std::memory_order_relaxed);
  // Sample up to 64 rows per run, sort the sample, take quantiles.
  std::vector<const char*> sample;
  for (const auto& run : runs_) {
    size_t step = std::max<size_t>(1, run.size() / 64);
    for (size_t i = 0; i < run.size(); i += step) sample.push_back(run[i]);
  }
  std::sort(sample.begin(), sample.end(), comparator_);
  for (int r = 1; r < num_ranges_; ++r) {
    if (sample.empty()) break;
    size_t idx = sample.size() * static_cast<size_t>(r) /
                 static_cast<size_t>(num_ranges_);
    if (idx >= sample.size()) idx = sample.size() - 1;
    std::vector<char> sep(static_cast<size_t>(schema_->row_size()));
    std::memcpy(sep.data(), sample[idx], sep.size());
    separators_.push_back(std::move(sep));
  }
}

NextResult SortIterator::Open(WorkerContext* ctx) {
  // registerToAllBarriers (appendix A.2.2).
  barrier1_.Register();
  barrier3_.Register();
  // kTerminated (shrink) and kError (broken stream) both unwind through the
  // same deregistration; the original code is re-raised so errors propagate.
  auto bail = [&](NextResult r) -> NextResult {
    DeregisterAll();
    return r;
  };
  NextResult opened = child_->Open(ctx);
  if (opened != NextResult::kSuccess) return bail(opened);

  // --- Phase 1a: drain the child into the shared buffer ---------------------
  while (true) {
    BlockPtr block;
    NextResult r = child_->Next(ctx, &block);
    if (r == NextResult::kEndOfFile) break;
    if (r != NextResult::kSuccess) return bail(r);
    // The block and the 8 bytes per row its run will hold.
    if (!Charge(block->payload_bytes() +
                static_cast<int64_t>(sizeof(const char*)) *
                    block->num_rows())) {
      return bail(NextResult::kError);
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      total_rows_.fetch_add(block->num_rows(), std::memory_order_relaxed);
      buffered_.push_back(std::move(block));
    }
    if (ctx->DetectedTerminateRequest()) return bail(NextResult::kTerminated);
  }

  // --- Phase 1b: chunk-sort (one block per chunk) ----------------------------
  while (true) {
    if (ctx->DetectedTerminateRequest()) return bail(NextResult::kTerminated);
    BlockPtr chunk_block;
    {
      // The buffer only grows while some worker is still draining. Claim the
      // chunk AND copy its BlockPtr under the lock — a concurrent push_back
      // may reallocate buffered_, so indexing it unlocked is a use-after-free
      // (the block itself is pinned by the shared_ptr copy).
      std::lock_guard<std::mutex> lock(mu_);
      int chunk = chunk_cursor_.load(std::memory_order_relaxed);
      if (chunk >= static_cast<int>(buffered_.size())) break;
      chunk_cursor_.store(chunk + 1, std::memory_order_relaxed);
      chunk_block = buffered_[static_cast<size_t>(chunk)];
    }
    std::vector<const char*> run = MakeRun(*chunk_block);
    std::lock_guard<std::mutex> lock(mu_);
    runs_.push_back(std::move(run));
  }
  // The arrival that opens the barrier runs phase 2 (FinishRuns).
  barrier1_.Arrive();

  // --- Phase 3: range merges (claimed work units) -----------------------------
  const int nsep = static_cast<int>(separators_.size());
  while (true) {
    if (ctx->DetectedTerminateRequest()) return bail(NextResult::kTerminated);
    int range = range_cursor_.fetch_add(1, std::memory_order_relaxed);
    if (range > nsep) break;  // ranges = nsep + 1
    const char* lo = range > 0 ? separators_[range - 1].data() : nullptr;
    const char* hi = range < nsep ? separators_[range].data() : nullptr;
    std::vector<const char*> rows;
    for (const auto& run : runs_) {
      auto begin = lo == nullptr
                       ? run.begin()
                       : std::lower_bound(run.begin(), run.end(), lo,
                                          comparator_);
      auto end = hi == nullptr
                     ? run.end()
                     : std::lower_bound(run.begin(), run.end(), hi,
                                        comparator_);
      rows.insert(rows.end(), begin, end);
    }
    std::sort(rows.begin(), rows.end(), comparator_);
    std::vector<std::shared_ptr<Block>> blocks;
    std::shared_ptr<Block> current;
    // Each output block is charged once it is complete.
    auto keep_current = [&] {
      if (!Charge(current->payload_bytes())) return false;
      blocks.push_back(std::move(current));
      return true;
    };
    for (const char* row : rows) {
      if (current == nullptr || current->full()) {
        if (current != nullptr && !keep_current()) {
          return bail(NextResult::kError);
        }
        current = MakeBlock(schema_->row_size());
      }
      current->AppendRowCopy(row);
    }
    if (current != nullptr && !keep_current()) return bail(NextResult::kError);
    range_blocks_[static_cast<size_t>(range)] = std::move(blocks);
  }
  barrier3_.Arrive();
  return NextResult::kSuccess;
}

NextResult SortIterator::Next(WorkerContext* ctx, BlockPtr* out) {
  if (ctx->DetectedTerminateRequest()) return NextResult::kTerminated;
  if (!emit_ready_) {
    std::lock_guard<std::mutex> lock(emit_mu_);
    if (!emit_ready_) {
      uint64_t seq = 0;
      for (auto& range : range_blocks_) {
        for (std::shared_ptr<Block>& b : range) {
          b->set_sequence_number(seq++);
          emit_list_.push_back(std::move(b));
        }
        range.clear();
      }
      emit_ready_ = true;
    }
  }
  int64_t i = emit_cursor_.fetch_add(1, std::memory_order_relaxed);
  if (i >= static_cast<int64_t>(emit_list_.size())) {
    return NextResult::kEndOfFile;
  }
  *out = emit_list_[static_cast<size_t>(i)];
  return NextResult::kSuccess;
}

void SortIterator::Close() {
  child_->Close();
  std::lock_guard<std::mutex> lock(mu_);
  buffered_.clear();
  runs_.clear();
  emit_list_.clear();
  if (budget_ != nullptr) {
    budget_->Release(charged_.exchange(0, std::memory_order_relaxed));
  }
}

}  // namespace claims
