#ifndef CLAIMS_SQL_PLANNER_H_
#define CLAIMS_SQL_PLANNER_H_

#include <memory>
#include <vector>

#include "cluster/plan.h"
#include "sql/binder.h"

namespace claims {

struct PlannerOptions {
  /// Cluster size; exchanges address nodes 0..num_nodes-1, master is node 0.
  int num_nodes = 4;
  /// Build sides at or below this many (estimated, post-filter) rows are
  /// broadcast instead of repartitioned.
  int64_t broadcast_threshold_rows = 20000;
};

/// The planner's selectivity sample of one relation's pushed-down filter:
/// the rows of `table` at SelectivitySamplePositions, and how many of them
/// satisfy `pred`. Counted block by block through the batch filter kernels'
/// selection vector (`BatchPredicate`).
struct SelectivitySample {
  int64_t rows = 0;
  int64_t hits = 0;

  double fraction() const {
    return rows == 0 ? 0.0 : static_cast<double>(hits) / rows;
  }
};

/// The positions the sample reads, in storage order (partition, then block,
/// then row) and ascending: every row of a table of at most 4 000 rows,
/// otherwise one seeded pseudo-random row from each of 4 000 equal slices of
/// the table (two neighbouring slices may draw the same row), so every block
/// of every partition contributes in proportion to its rows and every row is
/// drawn with the same probability. Neither a prefix (which misses whatever
/// sorted data holds later) nor a fixed stride (which aliases with periodic
/// data).
std::vector<int64_t> SelectivitySamplePositions(int64_t num_rows);

SelectivitySample SampleSelectivity(const Table& table, const ExprPtr& pred);

/// The master node's query optimizer / distributed planner: turns a bound
/// query into a pipelined, fragment-decomposed physical plan (paper §2's
/// master responsibilities). Techniques:
///  * predicate pushdown onto base relations, with sampled selectivities
///    (sampled only for relations a join decision compares);
///  * greedy left-deep join ordering: the largest filtered relation streams
///    as the probe, and each next relation is the connected one with the
///    smallest estimated join output, from per-column distinct counts
///    (Catalog::DistinctCount) over the most selective equi edge; ties go
///    to the smaller relation, and a decision with one candidate reads no
///    distinct count;
///  * locality-aware exchange placement: co-located joins when both sides
///    are partitioned on the join key, broadcast of small build sides,
///    repartition (shuffle) joins otherwise — the paper's Fig. 1/3 shapes;
///  * local aggregation when the stream is already partitioned by a subset
///    of the group keys, and two-phase aggregation otherwise: a partial
///    HashAgg where the stream lives, an exchange of the partial rows (hash
///    on the group keys, or a gather for scalar aggregates), and a final
///    HashAgg merging the partial states — where the paper's Fig. 1 ships
///    every input row to its group's node and aggregates once there;
///  * projection pushdown in front of shuffles (only needed columns cross
///    the network);
///  * global sort at the master for ORDER BY.
class Planner {
 public:
  Planner(Catalog* catalog, PlannerOptions options);

  /// Full pipeline: parse → bind → plan.
  Result<PhysicalPlan> PlanSql(std::string_view sql);

  Result<PhysicalPlan> Plan(const BoundQuery& query);

 private:
  class Impl;
  Catalog* catalog_;
  PlannerOptions options_;
};

}  // namespace claims

#endif  // CLAIMS_SQL_PLANNER_H_
