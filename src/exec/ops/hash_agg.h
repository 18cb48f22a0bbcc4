#ifndef CLAIMS_EXEC_OPS_HASH_AGG_H_
#define CLAIMS_EXEC_OPS_HASH_AGG_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <vector>

#include "core/barrier.h"
#include "core/context_pool.h"
#include "core/iterator.h"
#include "exec/expr/batch_expr.h"
#include "exec/expr/expr.h"
#include "exec/hash_table.h"
#include "mem/query_budget.h"
#include "mem/spill.h"

namespace claims {

/// Hash aggregation — a pipeline breaker (appendix Alg. 7) with the paper's
/// two aggregation strategies:
///
///  * **kShared**: all workers fold tuples directly into one global
///    AggHashTable, which grows under its own lock. Fast for large group-by
///    cardinalities; per-entry lock contention makes it scale poorly when
///    groups are few (Fig. 8b, S-Q3).
///  * **kIndependent / kHybrid**: each worker aggregates into a *private*
///    table (acquired from the context-reuse pool in core mode, §3.2(1)),
///    merged into the global table at build end. kHybrid additionally
///    flushes the private table whenever it exceeds `hybrid_max_groups`,
///    bounding per-worker memory on large cardinalities.
///
/// A terminating worker parks its private table in the context pool without
/// flushing (short shrinkage delay); the partial results are folded in by
/// the snapshot builder — the first Next() caller, after the build barrier
/// has opened but before anything is emitted — so no tuple is ever lost
/// across expand/shrink cycles and the flush cannot race the emit path.
class HashAggIterator : public Iterator {
 public:
  enum class Mode { kShared, kIndependent, kHybrid };

  struct Aggregate {
    AggFn fn;
    ExprPtr arg;  ///< null for COUNT(*)
    std::string name;
  };

  struct Spec {
    const Schema* input_schema = nullptr;
    std::vector<ExprPtr> group_exprs;
    std::vector<std::string> group_names;
    std::vector<Aggregate> aggregates;
    Mode mode = Mode::kShared;
    /// kHybrid's flush point: at most this many groups (~3 MiB of entries
    /// plus slots) per private table. Each flush merges every group of the
    /// table into the global one, so a worker with a few more groups than
    /// this merges most of them twice.
    size_t hybrid_max_groups = 1 << 16;
    /// Block pool + the query's ledger the table arenas draw from. When the
    /// ledger refuses a fold into a worker-*private* table, that table is
    /// spilled to a cold SpillRun and the fold retried against a fresh table
    /// (degradation ladder, docs/MEMORY.md); spilled runs are merged back in
    /// by the snapshot builder. A refusal on the *shared* table (or during
    /// restore) is terminal: rejected() is latched and the segment fails,
    /// which the executor maps to kResourceExhausted.
    BlockPool* pool = nullptr;
    QueryBudget* budget = nullptr;
    /// The final aggregation of a query without GROUP BY: over no input it
    /// still emits SQL's one row, every aggregate 0 (the engine has no NULL,
    /// and x / 0 is 0, so a split AVG is 0 too). Partial aggregations emit
    /// nothing over no input, so no false 0 reaches the final MIN or MAX.
    bool scalar_final = false;
  };

  HashAggIterator(std::unique_ptr<Iterator> child, Spec spec);

  NextResult Open(WorkerContext* ctx) override;
  NextResult Next(WorkerContext* ctx, BlockPtr* out) override;
  void Close() override;
  int SubtreeSize() const override { return 1 + child_->SubtreeSize(); }

  const Schema& output_schema() const { return output_schema_; }
  const ContextPool& context_pool() const { return context_pool_; }

 private:
  struct PrivateAggContext : IteratorContext {
    std::unique_ptr<AggHashTable> table;
  };

  /// Gathers all group rows of `block`, hashes them with the table's key
  /// hash, evaluates every aggregate argument as a double vector, then folds
  /// in two passes (AggHashTable::UpdateBatch): resolve every row's group,
  /// then one typed loop per aggregate. `exclusive` means `table` is private
  /// to the calling worker, so no lock is taken. Folds rows `[start..n)`; on
  /// a ledger refusal returns false with `*folded` = rows folded past
  /// `start` (the caller spills and resumes at start + *folded).
  bool FoldBlock(const Block& block, AggHashTable* table, bool exclusive,
                 int32_t start, int32_t* folded);

  /// Folds one input block into `*sink`, riding the degradation ladder on a
  /// ledger refusal: if the sink is the worker-private table, spill it to a
  /// cold run, point `*sink` at a fresh table, and resume where the fold
  /// stopped. false when degradation is exhausted (shared table refused, a
  /// fresh empty table refused, or the spill itself failed) — the build must
  /// fail.
  bool ConsumeBlock(const Block& block, PrivateAggContext* priv,
                    AggHashTable** sink, bool privately);

  /// Serializes `priv`'s table into a cold SpillRun (charged bytes refunded
  /// by the retired arena) and replaces it with a fresh empty table.
  bool SpillPrivate(PrivateAggContext* priv);

  /// A fresh empty table of this aggregation's layout with `slots` starting
  /// slots.
  std::unique_ptr<AggHashTable> NewTable(size_t slots) const;

  /// Merges every (group, state) of `src` into the global table, alongside
  /// other mergers (merge_mu_ held shared; the table grows under its own
  /// lock). The first table merged into an empty global table is swapped in
  /// whole (merge_mu_ held exclusively), leaving `src` empty — with one
  /// worker, the only merge costs nothing. false when the global table
  /// refused a group — terminal: re-merging a partially folded source would
  /// double-count.
  bool MergeInto(AggHashTable* src);

  /// Builds the sorted snapshot emitted by Next (first caller only).
  void SnapshotGroups();

  std::unique_ptr<Iterator> child_;
  Spec spec_;
  Schema group_schema_;
  Schema output_schema_;
  std::vector<AggFn> fns_;
  /// Batch-compiled group-key and aggregate-argument expressions (agg entry
  /// is null for COUNT(*)).
  std::vector<std::unique_ptr<BatchCompute>> group_computes_;
  std::vector<std::unique_ptr<BatchCompute>> agg_computes_;
  /// Starting slot count of every table: the fewest that hold a scalar
  /// aggregation's one group, otherwise one pool size class of slots.
  size_t initial_slots_;
  AggHashTable global_;
  /// Guards global_ outside kShared mode: concurrent merges hold it shared;
  /// the swap into an empty table and the snapshot builder (restore of
  /// spilled runs, the snapshot walk) hold it exclusively.
  std::shared_mutex merge_mu_;
  ContextPool context_pool_;
  DynamicBarrier build_barrier_;

  /// Cold tier: serialized private tables evicted under memory pressure.
  /// Merged back into global_ by the snapshot builder (transparent re-read).
  std::mutex spill_mu_;
  std::vector<std::unique_ptr<SpillRun>> spill_runs_;
  /// Latched when restoring a spilled run (or folding a parked table) into
  /// global_ fails; Next() reports kError instead of a partial result.
  std::atomic<bool> restore_failed_{false};

  std::mutex snapshot_mu_;
  /// Release-published by the snapshot builder (under snapshot_mu_) so the
  /// lock-free fast path in Next() sees a fully built groups_ vector.
  std::atomic<bool> snapshot_ready_{false};
  std::vector<std::pair<const char*, const AggHashTable::AggState*>> groups_;
  /// The states of a scalar_final aggregation's row over no input.
  std::vector<AggHashTable::AggState> empty_states_;
  std::atomic<size_t> emit_cursor_{0};
};

/// Result column type of an aggregate over `arg_type`.
DataType AggOutputType(AggFn fn, DataType arg_type);

}  // namespace claims

#endif  // CLAIMS_EXEC_OPS_HASH_AGG_H_
