#include "exec/ops/scan.h"

#include <algorithm>

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
  if (ctx->DetectedTerminateRequest()) return NextResult::kTerminated;
  return NextResult::kSuccess;
}

NextResult ScanIterator::Next(WorkerContext* ctx, BlockPtr* out) {
  if (ctx->DetectedTerminateRequest()) return NextResult::kTerminated;
  const int index = cursor_.fetch_add(1, std::memory_order_relaxed);
  if (index >= partition_->num_blocks()) return NextResult::kEndOfFile;

  const BlockPtr& src = partition_->block(index);
  if (ctx->processing_started != nullptr) {
    ctx->processing_started->store(true, std::memory_order_release);
  }
  if (ctx->stats != nullptr) {
    ctx->stats->input_tuples.fetch_add(src->num_rows(),
                                       std::memory_order_relaxed);
  }
  if (batch_pred_ == nullptr) {
    *out = src;
    return NextResult::kSuccess;
  }
  // Survivors gather straight out of storage; a fully filtered block goes
  // out empty as the sequence watermark.
  const int32_t n = src->num_rows();
  auto block = MakeBlock(
      schema_->row_size(),
      std::max<int32_t>(kDefaultBlockBytes, n * schema_->row_size()));
  Scratch<int32_t> sel(BlockPool::Global(), n);
  int32_t k = batch_pred_->FilterBlock(*src, nullptr, n, sel.data());
  block->AppendGather(*src, sel.data(), k);
  block->set_sequence_number(src->sequence_number());
  *out = std::move(block);
  return NextResult::kSuccess;
}

void ScanIterator::Close() {}

}  // namespace claims
