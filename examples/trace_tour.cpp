// Captures one Perfetto trace spanning both execution substrates:
//
//   1. a real 2-node cluster query (threads, wall-clock timestamps) — the
//      repartition-join-aggregate shape of the paper's Fig. 1, run under EP
//      so the dynamic schedulers emit Expand/Shrink decisions;
//   2. a scaled-down SSE-Q9 on the virtual-time simulator (virtual
//      timestamps, pids 1000+node).
//
// Writes trace_tour.json (override with CLAIMS_TRACE=<path>), prints the
// query's EXPLAIN-ANALYZE report and the metrics snapshot. Load the JSON in
// https://ui.perfetto.dev: the real nodes appear as processes 0-1, the
// simulated nodes as 1000-1002; look for "tick" instants with lambda args,
// Expand/Shrink decision markers (the audit's action as reason),
// "send"/"recv"/"xfer" wire-batch spans joined by flow arrows, and the
// per-segment "parallelism:*" counter tracks.

#include <cstdio>
#include <cstdlib>

#include "cluster/executor.h"
#include "obs/metrics_registry.h"
#include "obs/recorder.h"
#include "sim/specs.h"

using namespace claims;

namespace {

ExprPtr Col(const Schema& s, const char* name) {
  int i = s.FindColumn(name);
  return MakeColumnRef(i, s.column(i).type, name);
}

/// Fig. 1 shape on two nodes: repartition kv1 on k, join with co-located
/// kv2, aggregate, gather at the master.
PhysicalPlan JoinAggPlan(Catalog* catalog) {
  TablePtr kv1 = *catalog->GetTable("kv1");
  TablePtr kv2 = *catalog->GetTable("kv2");
  PhysicalPlan plan;

  auto f0 = std::make_unique<Fragment>();
  f0->id = 0;
  f0->root = MakeScanOp(*kv1);
  f0->nodes = {0, 1};
  f0->out_exchange_id = 0;
  f0->partitioning = Partitioning::kHash;
  f0->hash_cols = {0};
  f0->consumer_nodes = {0, 1};

  auto f1 = std::make_unique<Fragment>();
  f1->id = 1;
  auto merger = MakeMergerOp(0, f0->root->output_schema);
  auto join = MakeHashJoinOp(std::move(merger), MakeScanOp(*kv2),
                             /*build_keys=*/{0}, /*probe_keys=*/{0});
  const Schema join_schema = join->output_schema;
  std::vector<HashAggIterator::Aggregate> aggs = {
      {AggFn::kSum, Col(join_schema, "v"), "sum_v"},
      {AggFn::kCount, nullptr, "cnt"},
  };
  f1->root = MakeHashAggOp(std::move(join), {Col(join_schema, "k")}, {"k"},
                           std::move(aggs), HashAggIterator::Mode::kShared);
  f1->nodes = {0, 1};
  f1->out_exchange_id = 1;
  f1->partitioning = Partitioning::kToOne;
  f1->consumer_nodes = {0};

  plan.result_schema = f1->root->output_schema;
  plan.result_exchange_id = 1;
  plan.fragments.push_back(std::move(f0));
  plan.fragments.push_back(std::move(f1));
  return plan;
}

}  // namespace

int main() {
  const char* env = std::getenv("CLAIMS_TRACE");
  std::string path = env != nullptr && env[0] != '\0' ? env
                                                      : "trace_tour.json";
  EventRecorder* rec = EventRecorder::Global();
  rec->Enable();

  // ---- 1. Real engine: 2-node EP query ------------------------------------
  Catalog catalog;
  {
    Schema s({ColumnDef::Int32("k"), ColumnDef::Int64("v")});
    auto t = std::make_shared<Table>("kv1", s, /*partitions=*/2,
                                     std::vector<int>{});
    for (int i = 0; i < 200000; ++i) {
      t->AppendValues({Value::Int32(i % 500), Value::Int64(i)});
    }
    if (!catalog.RegisterTable(std::move(t)).ok()) return 1;
  }
  {
    Schema s({ColumnDef::Int32("k"), ColumnDef::Int64("w")});
    auto t = std::make_shared<Table>("kv2", s, /*partitions=*/2,
                                     std::vector<int>{0});
    for (int i = 0; i < 500; ++i) {
      t->AppendValues({Value::Int32(i), Value::Int64(i * 10)});
    }
    if (!catalog.RegisterTable(std::move(t)).ok()) return 1;
  }
  ClusterOptions copts;
  copts.num_nodes = 2;
  copts.cores_per_node = 8;
  copts.scheduler_period_ms = 5;  // tick often enough to adapt a short query
  Cluster cluster(copts, &catalog);

  Executor exec(&cluster);
  ExecOptions opts;
  opts.mode = ExecMode::kElastic;
  opts.parallelism = 1;  // let the schedulers expand it
  PhysicalPlan plan = JoinAggPlan(&catalog);
  auto result = exec.Execute(plan, opts);
  if (!result.ok()) {
    std::fprintf(stderr, "query failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  std::printf("=== real engine (2 nodes, EP) ===\n%s\n",
              exec.report().ToString().c_str());

  // ---- 2. Virtual-time simulator: scaled-down SSE-Q9 ----------------------
  SseSimParams params;
  params.num_nodes = 3;
  params.trades_rows = 3'000'000;
  params.securities_rows = 3'000'000;
  params.result_groups = 50'000;
  SimCostParams costs;
  SimOptions sopt;
  sopt.num_nodes = 3;
  sopt.policy = SimPolicy::kElastic;
  sopt.parallelism = 1;
  SimRun run(SseQ9Spec(params, costs), sopt);
  auto metrics = run.Run();
  if (!metrics.ok()) {
    std::fprintf(stderr, "simulation failed: %s\n",
                 metrics.status().ToString().c_str());
    return 1;
  }
  std::printf("=== simulator (3 nodes, SSE-Q9, EP) ===\n");
  std::printf("virtual response %.2f s, cpu util %.2f, net %.2f GB\n\n",
              metrics->response_ns / 1e9, metrics->avg_cpu_utilization,
              metrics->network_bytes / 1e9);

  std::printf("=== metrics ===\n%s\n",
              MetricsRegistry::Global()->TextSnapshot().c_str());

  Status s = rec->WriteChromeJson(path);
  if (!s.ok()) {
    std::fprintf(stderr, "trace write failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("wrote %zu records to %s — open in ui.perfetto.dev\n",
              rec->size(), path.c_str());
  return 0;
}
