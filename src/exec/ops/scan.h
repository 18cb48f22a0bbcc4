#ifndef CLAIMS_EXEC_OPS_SCAN_H_
#define CLAIMS_EXEC_OPS_SCAN_H_

#include <atomic>
#include <memory>

#include "core/iterator.h"
#include "core/metrics.h"
#include "exec/expr/batch_expr.h"
#include "exec/expr/expr.h"
#include "storage/table.h"

namespace claims {

/// Table-partition scan — a pipeline/stage beginner (appendix Alg. 3).
///
/// All worker threads share one read cursor advanced with an atomic
/// fetch-add, so expansion/shrinkage needs no repartitioning of the input.
/// Without a predicate the scan emits the storage blocks themselves: they
/// are immutable and carry their storage index as sequence number, the
/// numbering that order-preserving elastic iterators merge on (§3.2). Open
/// has nothing to build: the cursor and the compiled predicate are members
/// set up at construction.
class ScanIterator : public Iterator {
 public:
  struct Options {
    /// Optional pushed-down predicate: survivors are gathered out of the
    /// storage block into a fresh block numbered like it (one pass, no
    /// intermediate block). A fully filtered storage block still emits an
    /// empty watermark block so the order-preserving merge sees its
    /// sequence number.
    ExprPtr predicate;
  };

  ScanIterator(const TablePartition* partition, const Schema* schema,
               Options options);
  ScanIterator(const TablePartition* partition, const Schema* schema)
      : ScanIterator(partition, schema, Options()) {}

  NextResult Open(WorkerContext* ctx) override;
  NextResult Next(WorkerContext* ctx, BlockPtr* out) override;
  void Close() override;

 private:
  const TablePartition* partition_;
  const Schema* schema_;
  Options options_;
  std::unique_ptr<BatchPredicate> batch_pred_;  ///< compiled pushdown filter
  /// Next unread block index, shared by every worker.
  std::atomic<int> cursor_{0};
};

}  // namespace claims

#endif  // CLAIMS_EXEC_OPS_SCAN_H_
