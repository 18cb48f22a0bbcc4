#include "exec/ops/filter.h"

#include <algorithm>

#include "mem/scratch.h"

namespace claims {

FilterIterator::FilterIterator(std::unique_ptr<Iterator> child,
                               const Schema* schema, ExprPtr predicate)
    : child_(std::move(child)),
      schema_(schema),
      batch_pred_(BatchPredicate::Compile(*schema, std::move(predicate))) {}

NextResult FilterIterator::Open(WorkerContext* ctx) {
  return child_->Open(ctx);
}

NextResult FilterIterator::Next(WorkerContext* ctx, BlockPtr* out) {
  BlockPtr input;
  NextResult r = child_->Next(ctx, &input);
  if (r != NextResult::kSuccess) return r;
  const int32_t n = input->num_rows();
  // Worst-case sizing like project: an oversized input block (larger than the
  // default 64 KB) must never truncate survivors.
  auto output = MakeBlock(
      schema_->row_size(),
      std::max<int32_t>(kDefaultBlockBytes, n * schema_->row_size()));
  Scratch<int32_t> sel(BlockPool::Global(), n);
  int32_t k = batch_pred_->FilterBlock(*input, nullptr, n, sel.data());
  output->AppendGather(*input, sel.data(), k);
  // A fully filtered block is emitted empty, sequence number intact, as the
  // downstream watermark — never silently dropped.
  output->set_sequence_number(input->sequence_number());
  *out = std::move(output);
  return NextResult::kSuccess;
}

void FilterIterator::Close() { child_->Close(); }

ProjectIterator::ProjectIterator(std::unique_ptr<Iterator> child,
                                 const Schema* input_schema,
                                 Schema output_schema,
                                 std::vector<ExprPtr> exprs)
    : child_(std::move(child)), output_schema_(std::move(output_schema)) {
  columns_.reserve(exprs.size());
  for (ExprPtr& e : exprs) {
    columns_.push_back(BatchCompute::Compile(*input_schema, std::move(e)));
  }
}

NextResult ProjectIterator::Open(WorkerContext* ctx) {
  return child_->Open(ctx);
}

NextResult ProjectIterator::Next(WorkerContext* ctx, BlockPtr* out) {
  BlockPtr input;
  NextResult r = child_->Next(ctx, &input);
  if (r != NextResult::kSuccess) return r;
  const int32_t n = input->num_rows();
  // Size the output for the worst case (wider output rows than input rows),
  // so a whole input block always projects into one output block and Next
  // stays stateless across concurrent workers.
  auto output = MakeBlock(
      output_schema_.row_size(),
      std::max<int32_t>(kDefaultBlockBytes, n * output_schema_.row_size()));
  char* rows = output->AppendRows(n);
  for (size_t c = 0; c < columns_.size(); ++c) {
    columns_[c]->Materialize(*input, nullptr, n, output_schema_,
                             static_cast<int>(c), rows);
  }
  output->set_sequence_number(input->sequence_number());
  *out = std::move(output);
  return NextResult::kSuccess;
}

void ProjectIterator::Close() { child_->Close(); }

}  // namespace claims
