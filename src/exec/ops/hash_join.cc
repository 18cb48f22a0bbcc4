#include "exec/ops/hash_join.h"

#include <algorithm>
#include <cstring>

#include "mem/scratch.h"

namespace claims {

Schema JoinOutputSchema(const Schema& left, const Schema& right) {
  std::vector<ColumnDef> cols;
  cols.reserve(left.num_columns() + right.num_columns());
  for (const ColumnDef& c : left.columns()) cols.push_back(c);
  for (const ColumnDef& c : right.columns()) {
    ColumnDef copy = c;
    if (left.FindColumn(c.name) >= 0) copy.name = "r_" + copy.name;
    cols.push_back(copy);
  }
  return Schema(std::move(cols));
}

namespace {

/// One bare column reference per key column of `schema`.
std::vector<std::unique_ptr<BatchCompute>> KeyComputes(
    const Schema& schema, const std::vector<int>& keys) {
  std::vector<std::unique_ptr<BatchCompute>> computes;
  for (const int col : keys) {
    computes.push_back(BatchCompute::Compile(
        schema, MakeColumnRef(col, schema.column(col).type)));
  }
  return computes;
}

}  // namespace

HashJoinIterator::HashJoinIterator(std::unique_ptr<Iterator> build_child,
                                   std::unique_ptr<Iterator> probe_child,
                                   Spec spec)
    : build_child_(std::move(build_child)),
      probe_child_(std::move(probe_child)),
      spec_(spec),
      output_schema_(JoinOutputSchema(*spec.build_schema, *spec.probe_schema)),
      table_(spec.build_schema, spec.build_keys,
             JoinHashTable::KeySchema(*spec.build_schema, spec.build_keys,
                                      *spec.probe_schema, spec.probe_keys),
             spec.expected_build_rows, MemSource{spec.pool, spec.budget}),
      build_key_computes_(KeyComputes(*spec_.build_schema, spec_.build_keys)),
      probe_key_computes_(
          KeyComputes(*spec_.probe_schema, spec_.probe_keys)) {}

NextResult HashJoinIterator::Open(WorkerContext* ctx) {
  bool already_open = build_barrier_.Register();
  NextResult opened = build_child_->Open(ctx);
  if (opened != NextResult::kSuccess) {
    if (!already_open) build_barrier_.Deregister();
    return opened;
  }
  // Parallel build: every worker drains build blocks into the shared table.
  while (true) {
    BlockPtr block;
    NextResult r = build_child_->Next(ctx, &block);
    if (r == NextResult::kEndOfFile) break;
    if (r != NextResult::kSuccess) {
      // kTerminated (shrink) and kError (broken stream) both unwind and are
      // re-raised as-is; deregistering keeps the barrier honest either way.
      if (!already_open) build_barrier_.Deregister();
      return r;
    }
    // Gather the block's keys, then link every row.
    const int32_t nb = block->num_rows();
    const Schema& key_schema = table_.key_schema();
    Scratch<char> keys(spec_.pool,
                       std::max<size_t>(1, static_cast<size_t>(nb) *
                                               key_schema.row_size()));
    MaterializeRows(build_key_computes_, *block, nb, key_schema, keys.data());
    if (!table_.InsertBatch(keys.data(), block->RowAt(0), block->row_size(),
                            nb)) {
      // The query's ledger refused the build rows. The shared build table
      // cannot spill (every worker holds row pointers into it), so this is
      // the last rung: latch rejected and fail the segment — the executor
      // maps it to kResourceExhausted.
      if (spec_.budget != nullptr) spec_.budget->MarkRejected();
      if (!already_open) build_barrier_.Deregister();
      return NextResult::kError;
    }
    if (ctx->DetectedTerminateRequest()) {
      if (!already_open) build_barrier_.Deregister();
      return NextResult::kTerminated;
    }
  }
  opened = probe_child_->Open(ctx);
  if (opened != NextResult::kSuccess) {
    if (!already_open) build_barrier_.Deregister();
    return opened;
  }
  build_barrier_.Arrive();
  return NextResult::kSuccess;
}

NextResult HashJoinIterator::Next(WorkerContext* ctx, BlockPtr* out) {
  const int build_size = spec_.build_schema->row_size();
  const int probe_size = spec_.probe_schema->row_size();
  if (ctx->DetectedTerminateRequest()) return NextResult::kTerminated;
  BlockPtr input;
  NextResult r = probe_child_->Next(ctx, &input);
  if (r != NextResult::kSuccess) return r;
  const int32_t n = input->num_rows();
  // Join fan-out is unbounded: matches go straight into a default-size
  // output block that doubles through the pool when it fills, so Next stays
  // stateless for concurrent workers. Each match writes its whole row.
  auto output = MakeBlock(output_schema_.row_size());
  Block& block = *output;
  auto emit = [&](const char* probe_row, const char* build_row) {
    char* slot = block.AppendRow();
    if (slot == nullptr) {
      block.DoubleCapacity();
      slot = block.AppendRow();
    }
    std::memcpy(slot, build_row, build_size);
    std::memcpy(slot + build_size, probe_row, probe_size);
  };
  // Gather the block's keys, find every row's first entry in one pass, then
  // emit each row's matches, rows in input order.
  const Schema& key_schema = table_.key_schema();
  Scratch<char> keys(spec_.pool,
                     std::max<size_t>(1, static_cast<size_t>(n) *
                                             key_schema.row_size()));
  MaterializeRows(probe_key_computes_, *input, n, key_schema, keys.data());
  table_.ForEachMatchBatch(keys.data(), n,
                           [&](int32_t i, const char* build_row) {
                             emit(input->RowAt(i), build_row);
                           });
  // A probe block with no matches still emits (empty): its sequence number
  // is the watermark the order-preserving merge is waiting for.
  output->set_sequence_number(input->sequence_number());
  *out = std::move(output);
  return NextResult::kSuccess;
}

void HashJoinIterator::Close() {
  build_child_->Close();
  probe_child_->Close();
}

}  // namespace claims
