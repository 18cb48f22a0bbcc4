#include "exec/ops/hash_agg.h"

#include <algorithm>
#include <cstring>

#include "mem/scratch.h"

namespace claims {

namespace {

/// Starting slot count of a grouped table: one 4 KiB pool size class of
/// slots.
constexpr size_t kGroupedSlots = 512;

}  // namespace

DataType AggOutputType(AggFn fn, DataType arg_type) {
  if (fn == AggFn::kCount) return DataType::kInt64;
  if (fn == AggFn::kAvg) return DataType::kFloat64;
  if (arg_type == DataType::kFloat64) return DataType::kFloat64;
  if (arg_type == DataType::kDate && (fn == AggFn::kMin || fn == AggFn::kMax)) {
    return DataType::kDate;
  }
  return DataType::kInt64;
}

HashAggIterator::HashAggIterator(std::unique_ptr<Iterator> child, Spec spec)
    : child_(std::move(child)),
      spec_(std::move(spec)),
      group_schema_([this] {
        std::vector<ColumnDef> cols;
        for (size_t i = 0; i < spec_.group_exprs.size(); ++i) {
          const ExprPtr& e = spec_.group_exprs[i];
          std::string name = i < spec_.group_names.size()
                                 ? spec_.group_names[i]
                                 : e->ToString();
          DataType t = e->type();
          int32_t width = 0;
          int col = AsColumnRef(*e);
          if (t == DataType::kChar) {
            width = col >= 0 ? spec_.input_schema->column(col).char_width : 64;
          }
          cols.push_back(ColumnDef{std::move(name), t, width});
        }
        return Schema(std::move(cols));
      }()),
      output_schema_([this] {
        std::vector<ColumnDef> cols = group_schema_.columns();
        for (const Aggregate& a : spec_.aggregates) {
          DataType arg_type =
              a.arg != nullptr ? a.arg->type() : DataType::kInt64;
          cols.push_back(ColumnDef{a.name, AggOutputType(a.fn, arg_type), 0});
        }
        return Schema(std::move(cols));
      }()),
      initial_slots_(group_schema_.num_columns() == 0 ? 4 : kGroupedSlots),
      global_(group_schema_, static_cast<int>(spec_.aggregates.size()),
              initial_slots_, MemSource{spec_.pool, spec_.budget}) {
  fns_.reserve(spec_.aggregates.size());
  for (const Aggregate& a : spec_.aggregates) fns_.push_back(a.fn);
  for (const ExprPtr& e : spec_.group_exprs) {
    group_computes_.push_back(BatchCompute::Compile(*spec_.input_schema, e));
  }
  for (const Aggregate& a : spec_.aggregates) {
    agg_computes_.push_back(
        a.arg != nullptr ? BatchCompute::Compile(*spec_.input_schema, a.arg)
                         : nullptr);
  }
}

bool HashAggIterator::FoldBlock(const Block& block, AggHashTable* table,
                                bool exclusive, int32_t start,
                                int32_t* folded) {
  *folded = 0;
  const int32_t n = block.num_rows();
  if (start >= n) return true;
  const int32_t group_size = group_schema_.row_size();

  // Pass 1's inputs: the block's group rows, gathered into pooled scratch
  // (a bare column key is a width-specialized strided copy), and their
  // hashes. A spill retry gathers the whole block again — wasteful, but
  // spills are the rare path and it keeps the scratch lifetime one call
  // deep.
  Scratch<char> group_rows(
      spec_.pool, std::max<size_t>(1, static_cast<size_t>(group_size) * n));
  MaterializeRows(group_computes_, block, n, group_schema_, group_rows.data());
  Scratch<uint64_t> hashes(spec_.pool, static_cast<size_t>(n));
  table->HashKeys(group_rows.data(), group_size, n, hashes.data());

  // Pass 2's inputs: every aggregate argument as a value vector, one column
  // of `args` per aggregate; COUNT(*) has none.
  Scratch<double> args(spec_.pool, static_cast<size_t>(n) * fns_.size());
  std::vector<const double*> arg_cols(fns_.size(), nullptr);
  for (size_t a = 0; a < fns_.size(); ++a) {
    if (agg_computes_[a] == nullptr) continue;
    double* col = args.data() + a * static_cast<size_t>(n);
    agg_computes_[a]->EvalDouble(block, nullptr, n, col);
    arg_cols[a] = col + start;
  }

  // Both passes over the resumable sub-range: resolve every row's group,
  // then one typed loop per aggregate.
  return table->UpdateBatch(
      group_rows.data() + static_cast<size_t>(start) * group_size, group_size,
      hashes.data() + start, n - start, fns_, arg_cols.data(), exclusive,
      folded);
}

bool HashAggIterator::SpillPrivate(PrivateAggContext* priv) {
  std::unique_ptr<SpillRun> run = SpillRun::Create();
  if (run == nullptr) return false;
  if (!priv->table->SerializeTo(run.get()).ok()) return false;
  if (!run->Finish().ok()) return false;
  const int64_t run_bytes = run->bytes();
  {
    std::lock_guard<std::mutex> lock(spill_mu_);
    spill_runs_.push_back(std::move(run));
  }
  if (spec_.budget != nullptr) spec_.budget->AddSpilledBytes(run_bytes);
  // Retiring the old table refunds its arena's ledger charges — that refund
  // is the headroom the fresh table folds into.
  priv->table = NewTable(initial_slots_);
  return true;
}

std::unique_ptr<AggHashTable> HashAggIterator::NewTable(size_t slots) const {
  return std::make_unique<AggHashTable>(
      group_schema_, static_cast<int>(fns_.size()), slots,
      MemSource{spec_.pool, spec_.budget});
}

bool HashAggIterator::ConsumeBlock(const Block& block, PrivateAggContext* priv,
                                   AggHashTable** sink, bool privately) {
  int32_t start = 0;
  const int32_t n = block.num_rows();
  bool spilled_without_progress = false;
  while (start < n) {
    int32_t folded = 0;
    if (FoldBlock(block, *sink, privately, start, &folded)) return true;
    // Ledger refused a group mid-block: rows [start, start+folded) landed.
    if (!privately) return false;  // the shared table cannot spill
    // Progress guard: a fresh table that cannot hold even one row means the
    // budget is below a single arena chunk — spilling again would loop
    // forever, so give up and let the executor reject the query.
    if (folded == 0 && spilled_without_progress) return false;
    spilled_without_progress = folded == 0;
    start += folded;
    if (!SpillPrivate(priv)) return false;
    *sink = priv->table.get();
  }
  return true;
}

bool HashAggIterator::MergeInto(AggHashTable* src) {
  {
    // Merges run together under the shared lock (the table grows itself).
    // An empty global table takes the swap below.
    std::shared_lock<std::shared_mutex> lock(merge_mu_);
    if (global_.size() > 0) {
      return global_.MergeFrom(*src, fns_, /*exclusive=*/false);
    }
  }
  std::lock_guard<std::shared_mutex> lock(merge_mu_);
  if (global_.size() == 0) {
    global_.SwapGroups(src);
    return true;
  }
  return global_.MergeFrom(*src, fns_, /*exclusive=*/true);
}

NextResult HashAggIterator::Open(WorkerContext* ctx) {
  bool already_open = build_barrier_.Register();
  NextResult opened = child_->Open(ctx);
  if (opened != NextResult::kSuccess) {
    if (!already_open) build_barrier_.Deregister();
    return opened;
  }

  const bool privately =
      spec_.mode == Mode::kIndependent || spec_.mode == Mode::kHybrid;
  std::unique_ptr<PrivateAggContext> priv;
  if (privately) {
    // Try to reuse a parked private table allocated by this core (§3.2(1)).
    auto reused = context_pool_.Acquire(ctx->core_id);
    if (reused != nullptr) {
      priv.reset(static_cast<PrivateAggContext*>(reused.release()));
    } else {
      priv = std::make_unique<PrivateAggContext>();
      priv->table = NewTable(initial_slots_);
    }
  }
  AggHashTable* sink = privately ? priv->table.get() : &global_;

  // Degradation exhausted (the spill rung could not absorb the fold): latch
  // rejected and fail the segment. The private table is dropped, not
  // parked — its destructor refunds the ledger, and the query is past saving
  // anyway.
  auto fail_build = [&] {
    if (spec_.budget != nullptr) spec_.budget->MarkRejected();
    if (!already_open) build_barrier_.Deregister();
    return NextResult::kError;
  };

  while (true) {
    BlockPtr block;
    NextResult r = child_->Next(ctx, &block);
    if (r == NextResult::kEndOfFile) break;
    if (r != NextResult::kSuccess ||
        ctx->DetectedTerminateRequest()) {
      if (r == NextResult::kSuccess) {
        // Finish the in-flight block before unwinding — no tuple is lost.
        if (!ConsumeBlock(*block, priv.get(), &sink, privately)) {
          return fail_build();
        }
      }
      if (privately) {
        // Park the partial table for reuse; flushed by the last finisher.
        context_pool_.Release(std::move(priv), ctx->core_id);
      }
      if (!already_open) build_barrier_.Deregister();
      // kError re-raises (broken stream); everything else unwinds as a shrink.
      return r == NextResult::kError ? NextResult::kError
                                     : NextResult::kTerminated;
    }
    if (!ConsumeBlock(*block, priv.get(), &sink, privately)) {
      return fail_build();
    }
    if (spec_.mode == Mode::kHybrid &&
        sink->size() > static_cast<int64_t>(spec_.hybrid_max_groups)) {
      // The flushed table's size is this worker's cardinality: start the
      // next one there instead of regrowing from the minimum.
      const size_t slots = sink->slot_count();
      if (!MergeInto(sink)) return fail_build();
      priv->table = NewTable(slots);
      sink = priv->table.get();
    }
  }

  if (privately) {
    if (!MergeInto(priv->table.get())) return fail_build();
  }
  build_barrier_.Arrive();
  // Parked partial tables (terminated workers') are folded in by the
  // snapshot builder, not here: a post-Arrive flush would race workers that
  // already passed the barrier and are emitting from global_.
  return NextResult::kSuccess;
}

void HashAggIterator::SnapshotGroups() {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  if (snapshot_ready_.load(std::memory_order_relaxed)) return;
  if (restore_failed_.load(std::memory_order_relaxed)) return;
  // Fold every parked partial table first. All parks happened before the
  // build barrier opened (a parking worker releases its table before it
  // deregisters), and no emitter reads global_ before snapshot_ready_, so
  // doing the flush here — under snapshot_mu_, before the snapshot — is the
  // one place it cannot race the emit path.
  for (auto& parked : context_pool_.TakeAll()) {
    auto* p = static_cast<PrivateAggContext*>(parked.get());
    if (!MergeInto(p->table.get())) {
      if (spec_.budget != nullptr) spec_.budget->MarkRejected();
      restore_failed_.store(true, std::memory_order_release);
      return;
    }
  }
  // Transparent re-read of the cold tier: merge every spilled run back into
  // the global table before anything is emitted.
  std::vector<std::unique_ptr<SpillRun>> runs;
  {
    std::lock_guard<std::mutex> spill_lock(spill_mu_);
    runs.swap(spill_runs_);
  }
  std::lock_guard<std::shared_mutex> merge_lock(merge_mu_);
  for (const auto& run : runs) {
    std::vector<char> data;
    Status s = run->ReadAll(&data);
    if (s.ok()) {
      s = AggHashTable::MergeSerialized(data.data(), data.size(), fns_,
                                        &global_);
    }
    if (!s.ok()) {
      if (s.code() == StatusCode::kResourceExhausted &&
          spec_.budget != nullptr) {
        spec_.budget->MarkRejected();
      }
      restore_failed_.store(true, std::memory_order_release);
      return;
    }
  }
  groups_.reserve(static_cast<size_t>(global_.size()));
  global_.ForEach(
      [&](const char* row, const AggHashTable::AggState* states) {
        groups_.emplace_back(row, states);
      });
  if (groups_.empty() && spec_.scalar_final) {
    // SQL's one row over no input: zeroed states emit 0 for every aggregate.
    // The group key has no bytes; any valid pointer stands for it.
    empty_states_.resize(fns_.size());
    groups_.emplace_back(reinterpret_cast<const char*>(&empty_states_),
                         empty_states_.data());
  }
  snapshot_ready_.store(true, std::memory_order_release);
}

NextResult HashAggIterator::Next(WorkerContext* ctx, BlockPtr* out) {
  if (ctx->DetectedTerminateRequest()) return NextResult::kTerminated;
  if (!snapshot_ready_.load(std::memory_order_acquire)) SnapshotGroups();
  // Restore failure (parked-table or spilled-run merge refused by the
  // ledger): a partial result would be silently wrong — fail the segment.
  if (restore_failed_.load(std::memory_order_acquire)) return NextResult::kError;

  const int out_size = output_schema_.row_size();
  const int rows_per_block = std::max(1, kDefaultBlockBytes / out_size);
  size_t start = emit_cursor_.fetch_add(static_cast<size_t>(rows_per_block),
                                        std::memory_order_relaxed);
  if (start >= groups_.size()) return NextResult::kEndOfFile;
  size_t end = std::min(groups_.size(), start + rows_per_block);

  auto block = MakeBlock(out_size);
  const int ngroup = group_schema_.num_columns();
  for (size_t i = start; i < end; ++i) {
    char* slot = block->AppendRow();
    std::memcpy(slot, groups_[i].first, group_schema_.row_size());
    for (size_t a = 0; a < fns_.size(); ++a) {
      const AggHashTable::AggState& st = *(groups_[i].second + a);
      const int col = ngroup + static_cast<int>(a);
      // Typed stores, no boxed Value per cell: COUNT is INT64, AVG FLOAT64,
      // and SUM/MIN/MAX keep their argument's type (AggOutputType).
      switch (fns_[a]) {
        case AggFn::kCount:
          output_schema_.SetInt64(slot, col, st.count);
          break;
        case AggFn::kAvg:
          output_schema_.SetFloat64(slot, col,
                                    st.count == 0 ? 0 : st.sum / st.count);
          break;
        default:
          switch (output_schema_.column(col).type) {
            case DataType::kFloat64:
              output_schema_.SetFloat64(slot, col, st.sum);
              break;
            case DataType::kInt64:
              output_schema_.SetInt64(slot, col, static_cast<int64_t>(st.sum));
              break;
            default:  // kInt32 / kDate
              output_schema_.SetInt32(
                  slot, col,
                  static_cast<int32_t>(static_cast<int64_t>(st.sum)));
              break;
          }
          break;
      }
    }
  }
  block->set_sequence_number(start / rows_per_block);
  *out = std::move(block);
  return NextResult::kSuccess;
}

void HashAggIterator::Close() { child_->Close(); }

}  // namespace claims
