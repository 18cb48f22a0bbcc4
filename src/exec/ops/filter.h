#ifndef CLAIMS_EXEC_OPS_FILTER_H_
#define CLAIMS_EXEC_OPS_FILTER_H_

#include <memory>

#include "core/iterator.h"
#include "exec/expr/batch_expr.h"
#include "exec/expr/expr.h"

namespace claims {

/// Predicate filter — a non-blocking iterator whose only state, the compiled
/// predicate, is built at construction, so Open has nothing to initialize
/// and Next, read-only on state, needs no synchronization. Output blocks
/// inherit the input block's sequence number.
///
/// A fully filtered input block still comes out: as an **empty watermark
/// block** carrying the input's sequence number, so the order-preserving
/// DataBuffer learns the sequence was consumed and the merge cannot stall at
/// low selectivity (the elastic worker converts it to a watermark advance
/// instead of enqueuing it).
///
/// The predicate is compiled once into selection-vector kernels (see
/// docs/VECTORIZATION.md); survivors are gathered with one memcpy per row.
class FilterIterator : public Iterator {
 public:
  FilterIterator(std::unique_ptr<Iterator> child, const Schema* schema,
                 ExprPtr predicate);

  NextResult Open(WorkerContext* ctx) override;
  NextResult Next(WorkerContext* ctx, BlockPtr* out) override;
  void Close() override;
  int SubtreeSize() const override { return 1 + child_->SubtreeSize(); }

 private:
  std::unique_ptr<Iterator> child_;
  const Schema* schema_;
  std::unique_ptr<BatchPredicate> batch_pred_;
};

/// Projection: computes `exprs` over input rows into rows of `output_schema`.
/// Non-blocking and stateless like filter. Each expression is compiled once
/// into a `BatchCompute`, which writes its output column for a whole block
/// (a bare column reference of matching type is a strided copy).
class ProjectIterator : public Iterator {
 public:
  ProjectIterator(std::unique_ptr<Iterator> child, const Schema* input_schema,
                  Schema output_schema, std::vector<ExprPtr> exprs);

  NextResult Open(WorkerContext* ctx) override;
  NextResult Next(WorkerContext* ctx, BlockPtr* out) override;
  void Close() override;
  int SubtreeSize() const override { return 1 + child_->SubtreeSize(); }

  const Schema& output_schema() const { return output_schema_; }

 private:
  std::unique_ptr<Iterator> child_;
  Schema output_schema_;
  std::vector<std::unique_ptr<BatchCompute>> columns_;  ///< per output column
};

}  // namespace claims

#endif  // CLAIMS_EXEC_OPS_FILTER_H_
