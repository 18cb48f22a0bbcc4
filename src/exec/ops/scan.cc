#include "exec/ops/scan.h"

#include <algorithm>
#include <cstring>

#include "mem/scratch.h"

namespace claims {

ScanIterator::ScanIterator(const TablePartition* partition,
                           const Schema* schema, Options options)
    : partition_(partition), schema_(schema), options_(std::move(options)) {
  if (options_.predicate != nullptr) {
    batch_pred_ = BatchPredicate::Compile(*schema_, options_.predicate);
  }
}

NextResult ScanIterator::Open(WorkerContext* ctx) {
  bool already_open = open_barrier_.Register();
  if (ctx->DetectedTerminateRequest()) {
    if (!already_open) open_barrier_.Deregister();
    return NextResult::kTerminated;
  }
  // The read cursor is a member initialized at construction; the first
  // worker has nothing heavy to do, matching the appendix's instant open.
  init_gate_.TryClaim();
  open_barrier_.Arrive();
  return NextResult::kSuccess;
}

NextResult ScanIterator::Next(WorkerContext* ctx, BlockPtr* out) {
  if (ctx->DetectedTerminateRequest()) return NextResult::kTerminated;
  const int index = cursor_.fetch_add(1, std::memory_order_relaxed);
  if (index >= partition_->num_blocks()) return NextResult::kEndOfFile;

  const Block& src = *partition_->block(index);
  // Copy out of immutable storage so downstream stages own their blocks
  // (metadata tails are per-flow mutable state). A pushed-down predicate
  // filters during this copy — survivors gather straight out of storage, and
  // a fully filtered block goes out empty as the sequence watermark.
  const int32_t n = src.num_rows();
  auto block = MakeBlock(
      schema_->row_size(),
      std::max<int32_t>(kDefaultBlockBytes, n * schema_->row_size()));
  if (batch_pred_ != nullptr) {
    Scratch<int32_t> sel(BlockPool::Global(), n);
    int32_t k = batch_pred_->FilterBlock(src, nullptr, n, sel.data());
    block->AppendGather(src, sel.data(), k);
  } else {
    for (int32_t i = 0; i < n; ++i) block->AppendRow();
    std::memcpy(block->MutableRowAt(0), src.RowAt(0),
                static_cast<size_t>(n) * src.row_size());
  }
  block->set_sequence_number(static_cast<uint64_t>(index));
  block->set_visit_rate(1.0);  // input group: every source tuple visits once
  if (ctx->processing_started != nullptr) {
    ctx->processing_started->store(true, std::memory_order_release);
  }
  if (ctx->stats != nullptr) {
    ctx->stats->input_tuples.fetch_add(src.num_rows(),
                                       std::memory_order_relaxed);
  }
  *out = std::move(block);
  return NextResult::kSuccess;
}

void ScanIterator::Close() {}

}  // namespace claims
