// Chaos stress: a seeded random fault storm (drops, delays, duplicates, NIC
// degrades, stragglers) raging under a closed-loop query stream, plus a
// scripted mid-storm node crash. The resilience contract this hammers is the
// one docs/FAULTS.md states: every submitted query reaches a terminal state
// — correct results or a typed kUnavailable — and nothing ever hangs. Under
// TSan this drives the injector's OnSend path against the fabric's retry
// loop, the NIC rewriter against live token buckets, and the crash handler
// against mid-stream segment teardown all at once.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/executor.h"
#include "fault/injector.h"
#include "wlm/query_service.h"

namespace claims {
namespace {

constexpr int kNodes = 3;

ExprPtr Col(const Schema& s, const char* name) {
  int i = s.FindColumn(name);
  EXPECT_GE(i, 0) << name;
  return MakeColumnRef(i, s.column(i).type, name);
}

int64_t CounterValue(const char* name) {
  return MetricsRegistry::Global()->counter(name)->value();
}

/// Same two-table fixture as fault_test: kva round-robin (build side), kvb
/// hash-partitioned on k (probe side) so the repartitioned join is exactly
/// co-partitioned and its result deterministic — (rows/300)² per key.
/// Fresh per test: crashes are permanent for a cluster's lifetime.
struct ChaosCluster {
  explicit ChaosCluster(int rows = 24000) : rows_per_key(rows / 300) {
    {
      Schema s({ColumnDef::Int32("k"), ColumnDef::Int64("v")});
      auto t = std::make_shared<Table>("kva", s, kNodes, std::vector<int>{});
      for (int i = 0; i < rows; ++i) {
        t->AppendValues({Value::Int32(i % 300), Value::Int64(i)});
      }
      EXPECT_TRUE(catalog.RegisterTable(std::move(t)).ok());
    }
    {
      Schema s({ColumnDef::Int32("k"), ColumnDef::Int64("w")});
      auto t = std::make_shared<Table>("kvb", s, kNodes, std::vector<int>{0});
      for (int i = 0; i < rows; ++i) {
        t->AppendValues({Value::Int32(i % 300), Value::Int64(i)});
      }
      EXPECT_TRUE(catalog.RegisterTable(std::move(t)).ok());
    }
    ClusterOptions copts;
    copts.num_nodes = kNodes;
    copts.cores_per_node = 4;
    cluster = std::make_unique<Cluster>(copts, &catalog);
  }

  PhysicalPlan FastPlan() {
    TablePtr kva = *catalog.GetTable("kva");
    PhysicalPlan plan;
    auto f = std::make_unique<Fragment>();
    f->id = 0;
    f->root = MakeFilterOp(
        MakeScanOp(*kva), MakeCompare(CompareOp::kLt, Col(kva->schema(), "k"),
                                      MakeLiteral(Value::Int32(100))));
    f->nodes = {0, 1, 2};
    f->out_exchange_id = 0;
    f->partitioning = Partitioning::kToOne;
    f->consumer_nodes = {0};
    plan.result_schema = f->root->output_schema;
    plan.result_exchange_id = 0;
    plan.fragments.push_back(std::move(f));
    return plan;
  }

  PhysicalPlan SlowPlan() {
    TablePtr kva = *catalog.GetTable("kva");
    TablePtr kvb = *catalog.GetTable("kvb");
    PhysicalPlan plan;
    auto f0 = std::make_unique<Fragment>();
    f0->id = 0;
    f0->root = MakeScanOp(*kva);
    f0->nodes = {0, 1, 2};
    f0->out_exchange_id = 0;
    f0->partitioning = Partitioning::kHash;
    f0->hash_cols = {0};
    f0->consumer_nodes = {0, 1, 2};

    auto f1 = std::make_unique<Fragment>();
    f1->id = 1;
    auto merger = MakeMergerOp(0, f0->root->output_schema);
    auto join = MakeHashJoinOp(std::move(merger), MakeScanOp(*kvb),
                               /*build_keys=*/{0}, /*probe_keys=*/{0});
    const Schema join_schema = join->output_schema;
    f1->root = MakeHashAggOp(std::move(join), {Col(join_schema, "k")}, {"k"},
                             {{AggFn::kCount, nullptr, "cnt"}},
                             HashAggIterator::Mode::kShared);
    f1->nodes = {0, 1, 2};
    f1->out_exchange_id = 1;
    f1->partitioning = Partitioning::kToOne;
    f1->consumer_nodes = {0};

    plan.result_schema = f1->root->output_schema;
    plan.result_exchange_id = 1;
    plan.fragments.push_back(std::move(f0));
    plan.fragments.push_back(std::move(f1));
    return plan;
  }

  int64_t SlowPlanCountPerKey() const {
    return static_cast<int64_t>(rows_per_key) * rows_per_key;
  }

  int rows_per_key;
  Catalog catalog;
  std::unique_ptr<Cluster> cluster;
};

/// Submits `queries` alternating fast/slow queries at mpl 4 with a bounded
/// retry budget, waits every handle out, and asserts the resilience
/// contract. Returns the number that finished ok.
int RunClosedLoopUnderChaos(ChaosCluster* tc, int queries) {
  QueryServiceOptions sopts;
  sopts.admission.max_concurrent = 4;
  QueryService service(tc->cluster.get(), sopts);

  std::vector<QueryHandlePtr> handles;
  handles.reserve(queries);
  for (int i = 0; i < queries; ++i) {
    SubmitOptions sub;
    sub.label = (i % 2 ? "slow-" : "fast-") + std::to_string(i);
    sub.exec.parallelism = 1;
    sub.exec.buffer_capacity_blocks = 2;
    sub.retry.max_attempts = 3;
    sub.retry.initial_backoff_ns = 5'000'000;
    handles.push_back(
        service.Submit(i % 2 ? tc->SlowPlan() : tc->FastPlan(), sub));
  }

  int succeeded = 0;
  for (auto& h : handles) {
    // The contract under test: terminal, never hung.
    bool finished = h->WaitFor(120'000'000'000LL);
    EXPECT_TRUE(finished) << h->label() << " hung";
    if (!finished) continue;
    EXPECT_EQ(h->state(), QueryState::kDone) << h->label();
    const Status& s = h->status();
    if (s.ok()) {
      ++succeeded;
      // Degraded, not wrong: a query that completes must be exactly right.
      if (h->label().rfind("fast-", 0) == 0) {
        EXPECT_EQ(h->result().num_rows(), 8000) << h->label();
      } else {
        EXPECT_EQ(h->result().num_rows(), 300) << h->label();
        auto rows = h->result().Rows(/*sorted=*/true);
        for (int k = 0; k < 300; ++k) {
          EXPECT_EQ(rows[k][1].AsInt64(), tc->SlowPlanCountPerKey())
              << h->label() << " key " << k;
        }
      }
    } else {
      EXPECT_EQ(s.code(), StatusCode::kUnavailable)
          << h->label() << ": " << s.ToString();
    }
  }
  service.Shutdown();
  return succeeded;
}

TEST(ChaosStressTest, SeededStormNeverHangsOrCorruptsQueries) {
  ChaosCluster tc;
  FaultPlan storm = RandomFaultStorm(/*seed=*/1337, kNodes, 2'000'000'000);
  FaultInjector injector(storm);
  tc.cluster->AttachFaultInjector(&injector);
  int64_t activations_before = CounterValue("fault.activations");

  injector.Arm();
  // The 24 queries can finish before the storm's first window opens: start
  // them once it is live.
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (CounterValue("fault.activations") == activations_before &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  int succeeded = RunClosedLoopUnderChaos(&tc, 24);
  injector.Disarm();
  tc.cluster->AttachFaultInjector(nullptr);

  // The storm has no crash faults, so every retry budget is enough: with
  // all nodes alive, kUnavailable can only come from exhausted send retries,
  // and the storm's windowed drops always end.
  EXPECT_EQ(succeeded, 24);
  EXPECT_GT(CounterValue("fault.activations"), activations_before)
      << "storm never actually fired";
}

TEST(ChaosStressTest, ScriptedCrashDuringStormDegradesGracefully) {
  ChaosCluster tc;
  // The same storm with a node death scripted into the middle of it: queries
  // in flight on node 2 must fail over (re-dispatch) or fail typed.
  FaultPlan storm = RandomFaultStorm(/*seed=*/4242, kNodes, 2'000'000'000);
  FaultSpec crash;
  crash.kind = FaultKind::kCrashNode;
  crash.at_ns = 200'000'000;
  crash.node = 2;
  storm.faults.push_back(crash);
  FaultInjector injector(std::move(storm));
  tc.cluster->AttachFaultInjector(&injector);

  injector.Arm();
  int succeeded = RunClosedLoopUnderChaos(&tc, 24);
  injector.Disarm();
  tc.cluster->AttachFaultInjector(nullptr);

  EXPECT_FALSE(tc.cluster->NodeAlive(2));
  // Graceful degradation: the survivors keep answering. Most queries retry
  // through the crash; all of them must have terminated (asserted above).
  EXPECT_GT(succeeded, 0);
  EXPECT_GT(CounterValue("fault.crashes"), 0);
}

}  // namespace
}  // namespace claims
