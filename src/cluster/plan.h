#ifndef CLAIMS_CLUSTER_PLAN_H_
#define CLAIMS_CLUSTER_PLAN_H_

#include <memory>
#include <string>
#include <vector>

#include "cluster/exchange.h"
#include "exec/expr/expr.h"
#include "exec/ops/hash_agg.h"
#include "exec/ops/sort.h"
#include "storage/catalog.h"

namespace claims {

/// A node of a fragment's physical operator tree. Leaves are stage beginners
/// (table scans or exchange mergers); a fragment instance on each node turns
/// this tree into an iterator tree topped by an elastic iterator and a
/// sender (paper Fig. 3).
struct POp {
  enum class Kind {
    kScan,
    kMerger,
    kFilter,
    kProject,
    kHashJoin,
    kHashAgg,
    kSort,
  };

  Kind kind;
  std::vector<std::unique_ptr<POp>> children;  ///< join: [build, probe]
  Schema output_schema;

  // kScan
  std::string table_name;
  // kMerger: input exchange fed by a child fragment.
  int exchange_id = -1;
  // kFilter — also set on a kScan when a filter over it was fused in
  // (predicate pushdown, see MakeFilterOp)
  ExprPtr predicate;
  // kProject
  std::vector<ExprPtr> project_exprs;
  // kHashJoin
  std::vector<int> build_keys;
  std::vector<int> probe_keys;
  /// The planner's estimate of the build relation's filtered rows (all of
  /// them, not one node's share), which sizes the join's table. -1
  /// when no planner computed one. Not part of EXPLAIN.
  int64_t build_rows = -1;
  // kHashAgg
  std::vector<ExprPtr> group_exprs;
  std::vector<std::string> group_names;
  std::vector<HashAggIterator::Aggregate> aggregates;
  HashAggIterator::Mode agg_mode = HashAggIterator::Mode::kHybrid;
  /// HashAggIterator::Spec::scalar_final. Not part of EXPLAIN.
  bool agg_scalar_final = false;
  // kSort
  std::vector<SortKey> sort_keys;

  /// The planner's estimate of this operator's output rows, summed over its
  /// node instances: a scan's filtered rows or a hash join's running join
  /// estimate. -1 when no planner decision computed one. Not part of
  /// EXPLAIN; the profile prints it beside the actual rows.
  int64_t est_rows = -1;

  /// Indented EXPLAIN rendering.
  std::string ToString(int indent = 0) const;
};

// --- POp factories (output schemas computed here) ---------------------------------

std::unique_ptr<POp> MakeScanOp(const Table& table);
std::unique_ptr<POp> MakeMergerOp(int exchange_id, Schema schema);
std::unique_ptr<POp> MakeFilterOp(std::unique_ptr<POp> child, ExprPtr pred);
std::unique_ptr<POp> MakeProjectOp(std::unique_ptr<POp> child,
                                   std::vector<ExprPtr> exprs,
                                   std::vector<std::string> names);
std::unique_ptr<POp> MakeHashJoinOp(std::unique_ptr<POp> build,
                                    std::unique_ptr<POp> probe,
                                    std::vector<int> build_keys,
                                    std::vector<int> probe_keys);
std::unique_ptr<POp> MakeHashAggOp(std::unique_ptr<POp> child,
                                   std::vector<ExprPtr> group_exprs,
                                   std::vector<std::string> group_names,
                                   std::vector<HashAggIterator::Aggregate> aggs,
                                   HashAggIterator::Mode mode);
std::unique_ptr<POp> MakeSortOp(std::unique_ptr<POp> child,
                                std::vector<SortKey> keys);

/// One segment group of the distributed plan: identical segments on each of
/// `nodes`, producing into exchange `out_exchange_id` (the root fragment
/// produces into the master collector's exchange).
struct Fragment {
  int id = 0;
  std::unique_ptr<POp> root;
  std::vector<int> nodes;

  int out_exchange_id = -1;
  Partitioning partitioning = Partitioning::kToOne;
  std::vector<int> hash_cols;        ///< indexes in root->output_schema
  std::vector<int> consumer_nodes;

  /// ORDER BY / LIMIT style fragments keep output order; repartitioned ones
  /// do not need it. An order-preserving segment merges on the sequence
  /// numbers its own operators wrote (mergers pass blocks through unchanged),
  /// so its root must number its output: the planner marks only the master
  /// sort fragment, whose sort numbers blocks by output rank.
  bool order_preserving = false;

  std::string ToString() const;
};

/// A complete distributed physical plan: fragments in topological order
/// (producers before consumers); the last fragment gathers to the master.
struct PhysicalPlan {
  std::vector<std::unique_ptr<Fragment>> fragments;
  Schema result_schema;
  /// Exchange the master collector drains (the root fragment's output).
  int result_exchange_id = -1;
  /// LIMIT clause (applied by the engine at the collector); -1 = none.
  int64_t limit = -1;

  std::string ToString() const;
};

}  // namespace claims

#endif  // CLAIMS_CLUSTER_PLAN_H_
