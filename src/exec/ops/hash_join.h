#ifndef CLAIMS_EXEC_OPS_HASH_JOIN_H_
#define CLAIMS_EXEC_OPS_HASH_JOIN_H_

#include <memory>
#include <vector>

#include "core/barrier.h"
#include "core/iterator.h"
#include "exec/expr/batch_expr.h"
#include "exec/hash_table.h"
#include "mem/query_budget.h"

namespace claims {

/// Equi hash join — a pipeline breaker (appendix Alg. 6).
///
/// Open() drains the **left** (build) child: every worker thread pulls build
/// blocks and CAS-inserts tuples into the shared JoinHashTable in parallel;
/// a dynamic barrier separates build from probe so that no worker probes a
/// half-built table. Workers that receive a terminate request mid-build
/// deregister from the barrier and unwind (shrink); workers expanded
/// mid-build register and join the build immediately (state sharing, §3).
/// The table's bucket array is sized from the expected build rows; the call
/// that opens the barrier relinks it once if the build outgrew that size
/// (JoinHashTable::RelinkIfOverloaded), before any worker probes.
///
/// Next() probes with **right**-child blocks — read-only on the table, no
/// synchronization. Output rows are [left columns | right columns]; the
/// planner projects afterwards.
class HashJoinIterator : public Iterator {
 public:
  struct Spec {
    const Schema* build_schema = nullptr;
    const Schema* probe_schema = nullptr;
    std::vector<int> build_keys;
    std::vector<int> probe_keys;
    /// Bucket count, rounded up to a power of two (0 counts as 1). A plan's
    /// join sets JoinHashTable::BucketsFor(its build estimate).
    size_t num_buckets = 1 << 16;
    /// Block pool + the query's ledger the build arena draws from. A build
    /// insert the ledger refuses fails the build with kError and rejected()
    /// latched — join builds do not spill (docs/MEMORY.md); the executor
    /// surfaces kResourceExhausted.
    BlockPool* pool = nullptr;
    QueryBudget* budget = nullptr;
  };

  HashJoinIterator(std::unique_ptr<Iterator> build_child,
                   std::unique_ptr<Iterator> probe_child, Spec spec);

  NextResult Open(WorkerContext* ctx) override;
  NextResult Next(WorkerContext* ctx, BlockPtr* out) override;
  void Close() override;
  int SubtreeSize() const override {
    return 1 + build_child_->SubtreeSize() + probe_child_->SubtreeSize();
  }

  const Schema& output_schema() const { return output_schema_; }
  int64_t build_rows() const { return table_.size(); }
  size_t bucket_count() const { return table_.bucket_count(); }

 private:
  std::unique_ptr<Iterator> build_child_;
  std::unique_ptr<Iterator> probe_child_;
  Spec spec_;
  Schema output_schema_;
  JoinHashTable table_;
  /// Build-vs-probe key comparator, built once: constructing one per probe
  /// row costs two vector copies.
  KeyComparator probe_cmp_;
  /// Opens on a complete build; its completion action relinks the table.
  DynamicBarrier build_barrier_;
};

/// Builds the concatenated [left | right] schema of a join, prefixing
/// duplicate column names with the side index.
Schema JoinOutputSchema(const Schema& left, const Schema& right);

}  // namespace claims

#endif  // CLAIMS_EXEC_OPS_HASH_JOIN_H_
