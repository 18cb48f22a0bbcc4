#ifndef CLAIMS_ENGINE_DATABASE_H_
#define CLAIMS_ENGINE_DATABASE_H_

#include <memory>
#include <string>

#include "cluster/executor.h"
#include "sql/planner.h"
#include "storage/datagen/sse_gen.h"
#include "storage/datagen/tpch_gen.h"

namespace claims {

struct DatabaseOptions {
  ClusterOptions cluster;
  PlannerOptions planner;  ///< num_nodes is forced to cluster.num_nodes
};

/// The top-level public API — an in-process elastic-pipelining in-memory
/// database cluster. Typical use:
///
///   DatabaseOptions options;
///   options.cluster.num_nodes = 4;
///   Database db(options);
///   db.LoadTpch({.scale_factor = 0.01});
///   auto result = db.Query("SELECT count(*) FROM lineitem");
///   std::cout << result->ToString();
///
/// Query() runs one statement at a time on this object. For concurrent
/// streams, plan here and submit the plans to a QueryService (src/wlm) over
/// cluster() — the workload manager runs many executors at once (the
/// multi-query scheduling the paper defers to future work in §7).
class Database {
 public:
  explicit Database(DatabaseOptions options = DatabaseOptions());

  Catalog* catalog() { return &catalog_; }
  Cluster* cluster() { return cluster_.get(); }
  const DatabaseOptions& options() const { return options_; }

  /// Generates TPC-H tables partitioned across the cluster nodes.
  Status LoadTpch(TpchConfig config);

  /// Generates the synthetic Stock-Exchange dataset (paper §5.1).
  Status LoadSse(SseConfig config);

  /// Parses, optimizes, and runs `sql`; applies LIMIT at the collector.
  Result<ResultSet> Query(std::string_view sql,
                          ExecOptions exec = ExecOptions());

  /// The distributed physical plan for `sql`, rendered as text.
  Result<std::string> Explain(std::string_view sql);

  /// Plan without executing (for benches that instrument execution).
  Result<PhysicalPlan> Plan(std::string_view sql);

  /// The executor of every Query call; its report() describes the most
  /// recent one.
  Executor* executor() { return executor_.get(); }

 private:
  DatabaseOptions options_;
  Catalog catalog_;
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<Executor> executor_;
};

}  // namespace claims

#endif  // CLAIMS_ENGINE_DATABASE_H_
