#ifndef CLAIMS_EXEC_EXPR_BATCH_EXPR_H_
#define CLAIMS_EXEC_EXPR_BATCH_EXPR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "exec/expr/expr.h"
#include "storage/block.h"
#include "storage/schema.h"

namespace claims {

/// A boolean `Expr` tree compiled into selection-vector kernels. Supported
/// shapes (column compare against literal or column, YEAR(date) compare,
/// LIKE over a CHAR column, IN lists, AND/OR/NOT combinations) become tight
/// typed loops; any other subtree is wrapped in a scalar node that calls
/// `Expr::EvalBool` per surviving row, so compilation never fails and the
/// result is always exactly what a row-at-a-time `EvalBool` loop selects.
///
/// Thread-safe after construction: `FilterBlock` is const and keeps no
/// mutable state, matching the iterator contract of concurrent `Next` calls.
class BatchPredicate {
 public:
  ~BatchPredicate();

  /// Compiles `expr` (a boolean predicate over rows of `schema`). Never
  /// returns null; unsupported shapes fall back per-node.
  static std::unique_ptr<BatchPredicate> Compile(const Schema& schema,
                                                 ExprPtr expr);

  /// Filters rows `sel[0..n)` of `block` (`sel == nullptr` means rows
  /// 0..n-1), writing surviving row indices to `out` in ascending order.
  /// Returns the survivor count. `out` may alias `sel` (in-place narrowing):
  /// every kernel writes at or behind its read cursor.
  int32_t FilterBlock(const Block& block, const int32_t* sel, int32_t n,
                      int32_t* out) const;

  /// True when no scalar-fallback node was emitted (perf-smoke asserts this
  /// for the benchmark predicates so a silent fallback cannot masquerade as
  /// a batch kernel).
  bool fully_compiled() const;

 private:
  BatchPredicate();
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// A numeric (or group-key) `Expr` compiled for batch evaluation: typed
/// column loads, literal splats, and int64/double arithmetic lanes that
/// mirror `ArithExpr::Eval` exactly (pure-int stays exact int64, any float or
/// division widens to double, divide-by-zero yields 0). Used by the
/// aggregation fold for argument vectors and group-key materialization, and
/// by projection for every output column.
class BatchCompute {
 public:
  ~BatchCompute();

  /// Compiles `expr` over rows of `schema`, which must outlive the result
  /// (operators pass their input schema, which outlives the iterator).
  static std::unique_ptr<BatchCompute> Compile(const Schema& schema,
                                               ExprPtr expr);

  /// Evaluates the expression for rows `sel[0..n)` (`sel == nullptr` = rows
  /// 0..n-1) widened to double — bit-identical to `Eval(...).ToDouble()`.
  void EvalDouble(const Block& block, const int32_t* sel, int32_t n,
                  double* out) const;

  /// Writes the expression value into column `out_col` of `n` consecutive
  /// `out_schema` rows starting at `out_rows`. Equivalent to per-row
  /// `out_schema.SetValue(row, out_col, Eval(...))`; a bare column reference
  /// of matching type is a strided copy.
  void Materialize(const Block& block, const int32_t* sel, int32_t n,
                   const Schema& out_schema, int out_col,
                   char* out_rows) const;

  bool fully_compiled() const;

 private:
  BatchCompute();
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Writes rows 0..n-1 of `block` as `n` consecutive `out_schema` rows at
/// `out_rows`, column c from computes[c]: the packed key rows the hash
/// tables take (aggregation group keys, join build and probe keys).
void MaterializeRows(const std::vector<std::unique_ptr<BatchCompute>>& computes,
                     const Block& block, int32_t n, const Schema& out_schema,
                     char* out_rows);

}  // namespace claims

#endif  // CLAIMS_EXEC_EXPR_BATCH_EXPR_H_
