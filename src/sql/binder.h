#ifndef CLAIMS_SQL_BINDER_H_
#define CLAIMS_SQL_BINDER_H_

#include <memory>
#include <string>
#include <vector>

#include "sql/ast.h"
#include "sql/bound_expr.h"
#include "exec/hash_table.h"
#include "storage/catalog.h"

namespace claims {

struct BoundQuery;

/// One FROM relation after name resolution. Base tables carry their catalog
/// entry; derived tables carry a recursively bound subquery. Every relation
/// owns a contiguous range of the query's virtual joined schema starting at
/// `virtual_base`.
struct BoundRelation {
  std::string alias;  // lower-cased
  TablePtr table;     // null for derived tables
  std::unique_ptr<BoundQuery> subquery;
  Schema schema;
  int virtual_base = 0;
  /// Relation-local columns its rows are hash-partitioned on, in hash order
  /// (a derived table's: column 0).
  std::vector<int> partition_cols;
  int64_t estimated_rows = 0;
};

struct BoundAggregate {
  AggFn fn = AggFn::kCount;
  BExprPtr arg;  // null for COUNT(*)
  std::string name;
};

/// Post-projection ORDER BY: index into the select outputs.
struct BoundOrder {
  int output_index = 0;
  bool ascending = true;
};

/// A fully resolved SELECT, ready for the distributed planner.
struct BoundQuery {
  std::vector<BoundRelation> relations;
  /// WHERE conjuncts over the virtual joined schema.
  std::vector<BExprPtr> conjuncts;
  /// Aggregation (empty group_by + empty aggregates ⇒ plain projection).
  std::vector<BExprPtr> group_by;
  std::vector<BoundAggregate> aggregates;
  /// Final select expressions; kAggSlot nodes refer into `aggregates`.
  std::vector<BExprPtr> select_exprs;
  std::vector<std::string> select_names;
  BExprPtr having;  // over group columns + agg slots
  std::vector<BoundOrder> order_by;
  int64_t limit = -1;

  bool has_aggregation() const {
    return !group_by.empty() || !aggregates.empty();
  }
  int num_virtual_columns() const {
    if (relations.empty()) return 0;
    const BoundRelation& last = relations.back();
    return last.virtual_base + last.schema.num_columns();
  }
  /// Type/width of a virtual column.
  const ColumnDef& virtual_column(int v) const;
  /// Relation index owning virtual column `v`.
  int relation_of(int v) const;
};

/// Resolves a parsed SELECT against the catalog.
Result<std::unique_ptr<BoundQuery>> BindSelect(const SelectStmt& stmt,
                                               const Catalog& catalog);

}  // namespace claims

#endif  // CLAIMS_SQL_BINDER_H_
