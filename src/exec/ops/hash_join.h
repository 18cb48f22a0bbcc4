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
/// blocks and inserts them into the shared JoinHashTable in parallel; a
/// dynamic barrier separates build from probe so that no worker probes a
/// half-built table. Workers that receive a terminate request mid-build
/// deregister from the barrier and unwind (shrink); workers expanded
/// mid-build register and join the build immediately (state sharing, §3).
///
/// Next() probes with **right**-child blocks — read-only on the table, no
/// synchronization. Output rows are [left columns | right columns]; the
/// planner projects afterwards. Both sides gather their keys into the
/// table's key schema, so an INT32 key meets an INT64 one by value.
class HashJoinIterator : public Iterator {
 public:
  struct Spec {
    const Schema* build_schema = nullptr;
    const Schema* probe_schema = nullptr;
    std::vector<int> build_keys;
    std::vector<int> probe_keys;
    /// Build rows the table is sized for; it grows past them. A plan's join
    /// sets its build estimate.
    size_t expected_build_rows = 1 << 14;
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
  const JoinHashTable& table() const { return table_; }

 private:
  std::unique_ptr<Iterator> build_child_;
  std::unique_ptr<Iterator> probe_child_;
  Spec spec_;
  Schema output_schema_;
  JoinHashTable table_;
  /// The gathers of each side's key columns into the table's key schema.
  std::vector<std::unique_ptr<BatchCompute>> build_key_computes_;
  std::vector<std::unique_ptr<BatchCompute>> probe_key_computes_;
  DynamicBarrier build_barrier_;
};

/// Builds the concatenated [left | right] schema of a join, prefixing
/// duplicate column names with the side index.
Schema JoinOutputSchema(const Schema& left, const Schema& right);

}  // namespace claims

#endif  // CLAIMS_EXEC_OPS_HASH_JOIN_H_
