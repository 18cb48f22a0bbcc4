// Quickstart: spin up an in-process elastic-pipelining cluster, load TPC-H
// data, and run SQL under the three execution frameworks.
//
//   ./quickstart [scale_factor]

#include <cstdio>
#include <cstdlib>

#include "common/string_util.h"
#include "engine/database.h"
#include "engine/workloads.h"

int main(int argc, char** argv) {
  using namespace claims;
  double sf = argc > 1 ? std::atof(argv[1]) : 0.01;

  // A 4-node shared-nothing cluster with 8 worker cores per node.
  DatabaseOptions options;
  options.cluster.num_nodes = 4;
  options.cluster.cores_per_node = 8;
  Database db(options);

  std::printf("Generating TPC-H data at SF=%.3f ...\n", sf);
  TpchConfig tpch;
  tpch.scale_factor = sf;
  if (Status s = db.LoadTpch(tpch); !s.ok()) {
    std::fprintf(stderr, "load failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("lineitem rows: %lld\n",
              static_cast<long long>(
                  (*db.catalog()->GetTable("lineitem"))->num_rows()));

  // EXPLAIN shows the distributed fragment plan the optimizer produced.
  const char* sql =
      "SELECT l_returnflag, l_linestatus, sum(l_quantity) AS qty, "
      "count(*) AS cnt FROM lineitem WHERE l_shipdate <= '1998-09-02' "
      "GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, "
      "l_linestatus";
  auto plan_text = db.Explain(sql);
  std::printf("\nEXPLAIN:\n%s\n", plan_text->c_str());

  // Run the same query under elastic (EP), static (SP), and materialized
  // (ME) execution; results must agree, and the stats show each framework's
  // footprint.
  for (ExecMode mode :
       {ExecMode::kElastic, ExecMode::kStatic, ExecMode::kMaterialized}) {
    ExecOptions exec;
    exec.mode = mode;
    exec.parallelism = 2;
    auto result = db.Query(sql, exec);
    if (!result.ok()) {
      std::fprintf(stderr, "query failed: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    const ExecutionReport& report = db.executor()->report();
    std::printf("--- %s: %.1f ms, peak memory %s ---\n", ExecModeName(mode),
                report.elapsed_ns / 1e6,
                HumanBytes(report.peak_memory_bytes).c_str());
    std::printf("%s\n", result->ToString().c_str());
  }

  // A join out of the paper's workload library.
  auto r = db.Query(*TpchQuery(3));
  std::printf("TPC-H Q3 top rows:\n%s\n", r->ToString(5).c_str());
  return 0;
}
