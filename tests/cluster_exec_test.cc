// End-to-end tests of the distributed executor on hand-built physical plans,
// across all three execution frameworks (EP / SP / ME).

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "cluster/exchange.h"
#include "cluster/executor.h"
#include "common/clock.h"
#include "ledger_balance_check.h"
#include "mem/query_budget.h"
#include "storage/partition.h"

namespace claims {
namespace {

constexpr int kNodes = 3;

ExprPtr Col(const Schema& s, const char* name) {
  int i = s.FindColumn(name);
  EXPECT_GE(i, 0) << name;
  return MakeColumnRef(i, s.column(i).type, name);
}

/// kv1(k,v): round-robin partitioned; kv2(k,w): hash partitioned on k.
class ClusterExecTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog_ = new Catalog;
    {
      Schema s({ColumnDef::Int32("k"), ColumnDef::Int64("v")});
      auto t = std::make_shared<Table>("kv1", s, kNodes, std::vector<int>{});
      for (int i = 0; i < 9000; ++i) {
        t->AppendValues({Value::Int32(i % 300), Value::Int64(i)});
      }
      ASSERT_TRUE(catalog_->RegisterTable(std::move(t)).ok());
    }
    {
      Schema s({ColumnDef::Int32("k"), ColumnDef::Int64("w")});
      auto t = std::make_shared<Table>("kv2", s, kNodes, std::vector<int>{0});
      for (int i = 0; i < 300; ++i) {
        t->AppendValues({Value::Int32(i), Value::Int64(i * 10)});
      }
      ASSERT_TRUE(catalog_->RegisterTable(std::move(t)).ok());
    }
    ClusterOptions copts;
    copts.num_nodes = kNodes;
    copts.cores_per_node = 8;
    cluster_ = new Cluster(copts, catalog_);
  }
  static void TearDownTestSuite() {
    delete cluster_;
    delete catalog_;
  }

  /// Plan: scan kv1 → filter(k < limit) → gather to master.
  static PhysicalPlan GatherPlan(int limit) {
    TablePtr kv1 = *catalog_->GetTable("kv1");
    PhysicalPlan plan;
    auto f = std::make_unique<Fragment>();
    f->id = 0;
    auto scan = MakeScanOp(*kv1);
    f->root = MakeFilterOp(
        std::move(scan),
        MakeCompare(CompareOp::kLt, Col(kv1->schema(), "k"),
                    MakeLiteral(Value::Int32(limit))));
    f->nodes = {0, 1, 2};
    f->out_exchange_id = 0;
    f->partitioning = Partitioning::kToOne;
    f->consumer_nodes = {0};
    plan.result_schema = f->root->output_schema;
    plan.result_exchange_id = 0;
    plan.fragments.push_back(std::move(f));
    return plan;
  }

  /// The paper's Fig. 1 shape: repartition kv1 on k, join with co-located
  /// kv2, aggregate sum(v)+sum(w) group by k, gather.
  static PhysicalPlan JoinAggPlan() {
    TablePtr kv1 = *catalog_->GetTable("kv1");
    TablePtr kv2 = *catalog_->GetTable("kv2");
    PhysicalPlan plan;

    // F0: scan kv1 → repartition on k (exchange 0, to all nodes).
    auto f0 = std::make_unique<Fragment>();
    f0->id = 0;
    f0->root = MakeScanOp(*kv1);
    f0->nodes = {0, 1, 2};
    f0->out_exchange_id = 0;
    f0->partitioning = Partitioning::kHash;
    f0->hash_cols = {0};
    f0->consumer_nodes = {0, 1, 2};

    // F1: HashAgg(group k; sum v, sum w, count) over
    //     HashJoin(build = merger(x0), probe = scan kv2) → gather (x1).
    auto f1 = std::make_unique<Fragment>();
    f1->id = 1;
    auto merger = MakeMergerOp(0, f0->root->output_schema);
    auto join = MakeHashJoinOp(std::move(merger), MakeScanOp(*kv2),
                               /*build_keys=*/{0}, /*probe_keys=*/{0});
    const Schema join_schema = join->output_schema;
    std::vector<HashAggIterator::Aggregate> aggs = {
        {AggFn::kSum, Col(join_schema, "v"), "sum_v"},
        {AggFn::kSum, Col(join_schema, "w"), "sum_w"},
        {AggFn::kCount, nullptr, "cnt"},
    };
    f1->root =
        MakeHashAggOp(std::move(join), {Col(join_schema, "k")}, {"k"},
                      std::move(aggs), HashAggIterator::Mode::kShared);
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

  static Catalog* catalog_;
  static Cluster* cluster_;
};

Catalog* ClusterExecTest::catalog_ = nullptr;
Cluster* ClusterExecTest::cluster_ = nullptr;

class ClusterExecModeTest : public ClusterExecTest,
                            public ::testing::WithParamInterface<ExecMode> {};

TEST_P(ClusterExecModeTest, GatherFilter) {
  PhysicalPlan plan = GatherPlan(100);
  Executor exec(cluster_);
  ExecOptions opts;
  opts.mode = GetParam();
  opts.parallelism = 2;
  auto result = exec.Execute(plan, opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // k in [0,100) of k = i%300 over 9000 rows → 30 rows per k → 3000 rows.
  EXPECT_EQ(result->num_rows(), 3000);
}

TEST_P(ClusterExecModeTest, RepartitionJoinAggregate) {
  PhysicalPlan plan = JoinAggPlan();
  Executor exec(cluster_);
  ExecOptions opts;
  opts.mode = GetParam();
  opts.parallelism = 2;
  auto result = exec.Execute(plan, opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // 300 groups; each k has 30 kv1 rows × 1 kv2 row.
  ASSERT_EQ(result->num_rows(), 300);
  auto rows = result->Rows(/*sorted=*/true);
  for (int k = 0; k < 300; ++k) {
    EXPECT_EQ(rows[k][0].AsInt64(), k);
    // sum v over {k, k+300, ..., k+8700}: 30k + 300*(0+..+29).
    int64_t expected_v = 30LL * k + 300LL * (29 * 30 / 2);
    EXPECT_EQ(rows[k][1].AsInt64(), expected_v) << "k=" << k;
    EXPECT_EQ(rows[k][2].AsInt64(), 30LL * k * 10);
    EXPECT_EQ(rows[k][3].AsInt64(), 30);
  }
}

INSTANTIATE_TEST_SUITE_P(AllModes, ClusterExecModeTest,
                         ::testing::Values(ExecMode::kElastic,
                                           ExecMode::kStatic,
                                           ExecMode::kMaterialized),
                         [](const auto& info) {
                           return ExecModeName(info.param);
                         });

/// A cluster with tight pipeline buffers and one 300 K-row table, "big",
/// whose shuffle on k is large enough that full materialization dominates
/// (paper Table 4's effect).
struct BigShuffle {
  BigShuffle() {
    Schema s({ColumnDef::Int32("k"), ColumnDef::Int64("v")});
    auto t = std::make_shared<Table>("big", s, kNodes, std::vector<int>{});
    for (int i = 0; i < 300000; ++i) {
      t->AppendValues({Value::Int32(i % 500), Value::Int64(i)});
    }
    EXPECT_TRUE(catalog.RegisterTable(std::move(t)).ok());
    ClusterOptions copts;
    copts.num_nodes = kNodes;
    copts.cores_per_node = 4;
    copts.channel_capacity_blocks = 2;
    cluster = std::make_unique<Cluster>(copts, &catalog);
  }

  /// scan big → hash exchange on k → shared count per key → gather.
  PhysicalPlan Plan() const {
    TablePtr big = *catalog.GetTable("big");
    PhysicalPlan plan;
    auto f0 = std::make_unique<Fragment>();
    f0->id = 0;
    f0->root = MakeScanOp(*big);
    f0->nodes = {0, 1, 2};
    f0->out_exchange_id = 0;
    f0->partitioning = Partitioning::kHash;
    f0->hash_cols = {0};
    f0->consumer_nodes = {0, 1, 2};
    auto f1 = std::make_unique<Fragment>();
    f1->id = 1;
    auto merger = MakeMergerOp(0, f0->root->output_schema);
    const Schema in = merger->output_schema;
    f1->root = MakeHashAggOp(
        std::move(merger), {Col(in, "k")}, {"k"},
        {{AggFn::kCount, nullptr, "cnt"}}, HashAggIterator::Mode::kShared);
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

  /// scan big → gather to node 0 → sort on k, v → ordered result.
  PhysicalPlan SortPlan() const {
    TablePtr big = *catalog.GetTable("big");
    PhysicalPlan plan;
    auto f0 = std::make_unique<Fragment>();
    f0->id = 0;
    f0->root = MakeScanOp(*big);
    f0->nodes = {0, 1, 2};
    f0->out_exchange_id = 0;
    f0->partitioning = Partitioning::kToOne;
    f0->consumer_nodes = {0};
    auto f1 = std::make_unique<Fragment>();
    f1->id = 1;
    f1->root = MakeSortOp(MakeMergerOp(0, f0->root->output_schema),
                          {{0, true}, {1, true}});
    f1->nodes = {0};
    f1->out_exchange_id = 1;
    f1->partitioning = Partitioning::kToOne;
    f1->consumer_nodes = {0};
    f1->order_preserving = true;
    plan.result_schema = f1->root->output_schema;
    plan.result_exchange_id = 1;
    plan.fragments.push_back(std::move(f0));
    plan.fragments.push_back(std::move(f1));
    return plan;
  }

  Catalog catalog;
  std::unique_ptr<Cluster> cluster;
};

TEST_F(ClusterExecTest, MaterializedUsesMoreMemoryThanPipelined) {
  BigShuffle big;
  Executor exec(big.cluster.get());
  ExecOptions opts;
  opts.parallelism = 2;
  opts.buffer_capacity_blocks = 2;
  opts.mode = ExecMode::kStatic;
  PhysicalPlan sp_plan = big.Plan();
  auto sp = exec.Execute(sp_plan, opts);
  ASSERT_TRUE(sp.ok());
  EXPECT_EQ(sp->num_rows(), 500);
  int64_t sp_peak = exec.report().peak_memory_bytes;

  opts.mode = ExecMode::kMaterialized;
  PhysicalPlan me_plan = big.Plan();
  auto me = exec.Execute(me_plan, opts);
  ASSERT_TRUE(me.ok());
  EXPECT_EQ(me->num_rows(), 500);
  int64_t me_peak = exec.report().peak_memory_bytes;
  // ME buffers the whole 3.6 MB shuffle, the rows that cross hosts as
  // frames (about 2.5 MB in all); SP streams it through 2-block
  // channels/buffers (about 1.4 MB over 3 nodes, whatever the table's size).
  EXPECT_GT(me_peak, 3 * sp_peak / 2);
}

// The exchange channels charge the query's ledger, so a budget smaller than
// what ME materializes refuses a send: the query ends kResourceExhausted
// instead of hanging or overshooting, and every charge is handed back.
TEST_F(ClusterExecTest, MaterializationOverItsBudgetIsRejected) {
  BigShuffle big;
  ExecOptions opts;
  opts.mode = ExecMode::kMaterialized;
  opts.parallelism = 2;
  opts.buffer_capacity_blocks = 2;
  const PhysicalPlan plan = big.Plan();
  {
    Executor exec(big.cluster.get());
    auto unbudgeted = exec.Execute(plan, opts);
    ASSERT_TRUE(unbudgeted.ok()) << unbudgeted.status().ToString();
    EXPECT_EQ(unbudgeted->num_rows(), 500);
    // The channels hold the whole 3.6 MB shuffle: the third that stays on
    // its host as rows (1.2 MB), the rest as frames of about half its rows.
    EXPECT_GT(exec.report().peak_memory_bytes, 2 << 20);
  }
  {
    Executor exec(big.cluster.get());
    opts.memory_budget_bytes = 1 << 20;
    auto rejected = exec.Execute(plan, opts);
    ASSERT_FALSE(rejected.ok());
    EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted)
        << rejected.status().ToString();
    EXPECT_GT(exec.report().peak_memory_bytes, 0);
    EXPECT_LE(exec.report().peak_memory_bytes, opts.memory_budget_bytes);
  }
  EXPECT_EQ(QueryBudget::TotalChargedBytes(), 0);
}

// A sort holds its whole input, and a sorted copy, until it closes. Both are
// charged to the query's ledger, so the peak covers the input, and a budget
// smaller than the input ends the query kResourceExhausted: a sort cannot
// spill.
TEST_F(ClusterExecTest, SortChargesItsStateToTheLedger) {
  BigShuffle big;
  ExecOptions opts;
  opts.mode = ExecMode::kStatic;
  opts.parallelism = 2;
  opts.buffer_capacity_blocks = 2;
  const PhysicalPlan plan = big.SortPlan();
  const int64_t input_bytes =
      300000 * int64_t{(*big.catalog.GetTable("big"))->schema().row_size()};
  {
    Executor exec(big.cluster.get());
    auto sorted = exec.Execute(plan, opts);
    ASSERT_TRUE(sorted.ok()) << sorted.status().ToString();
    EXPECT_EQ(sorted->num_rows(), 300000);
    EXPECT_GE(exec.report().peak_memory_bytes, input_bytes);
  }
  {
    Executor exec(big.cluster.get());
    opts.memory_budget_bytes = 2 << 20;
    auto rejected = exec.Execute(plan, opts);
    ASSERT_FALSE(rejected.ok());
    EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted)
        << rejected.status().ToString();
    EXPECT_LE(exec.report().peak_memory_bytes, opts.memory_budget_bytes);
  }
  EXPECT_EQ(QueryBudget::TotalChargedBytes(), 0);
}

TEST_F(ClusterExecTest, RemoteBytesOnlyForCrossNodeTraffic) {
  PhysicalPlan plan = GatherPlan(300);
  Executor exec(cluster_);
  ExecOptions opts;
  opts.mode = ExecMode::kStatic;
  ASSERT_TRUE(exec.Execute(plan, opts).ok());
  // Nodes 1,2 ship to master; node 0's share is loopback.
  EXPECT_GT(exec.report().remote_bytes, 0);
}

TEST_F(ClusterExecTest, ElasticSchedulerExpandsSegments) {
  // With 8 cores/node and initial parallelism 1, the dynamic scheduler should
  // raise parallelism while the query runs (free-core expansion).
  TablePtr kv1 = *catalog_->GetTable("kv1");
  PhysicalPlan plan = JoinAggPlan();
  Executor exec(cluster_);
  ExecOptions opts;
  opts.mode = ExecMode::kElastic;
  opts.parallelism = 1;
  auto result = exec.Execute(plan, opts);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_rows(), 300);
}

TEST(ClusterExecBoundsTest, BlockedFractionsStayWithinWorkerTime) {
  // EP on 2 nodes × 2 cores, a 5 ms tick and a 1 MB/s NIC: each producer's
  // sender waits on the NIC, so its buffer fills and its workers block on
  // output for many ticks at a time, while the consumer's merger starves on
  // the remote half of its input. Every fraction a tick audits is a share
  // of the workers' live time, and every report row's blocked times fit in
  // its worker time.
  constexpr int kBoundNodes = 2;
  Catalog catalog;
  Schema schema({ColumnDef::Int32("k"), ColumnDef::Int64("v")});
  auto table = std::make_shared<Table>("big", schema, kBoundNodes,
                                       std::vector<int>{});
  for (int i = 0; i < 200000; ++i) {
    table->AppendValues({Value::Int32(i % 500), Value::Int64(i)});
  }
  ASSERT_TRUE(catalog.RegisterTable(std::move(table)).ok());
  ClusterOptions copts;
  copts.num_nodes = kBoundNodes;
  copts.cores_per_node = 2;
  copts.bandwidth_bytes_per_sec = 1'000'000;
  copts.channel_capacity_blocks = 2;
  copts.scheduler_period_ms = 5;
  Cluster cluster(copts, &catalog);

  // scan big → hash exchange on k → shared count per key → gather.
  TablePtr big = *catalog.GetTable("big");
  PhysicalPlan plan;
  auto f0 = std::make_unique<Fragment>();
  f0->id = 0;
  f0->root = MakeScanOp(*big);
  f0->nodes = {0, 1};
  f0->out_exchange_id = 0;
  f0->partitioning = Partitioning::kHash;
  f0->hash_cols = {0};
  f0->consumer_nodes = {0, 1};
  auto f1 = std::make_unique<Fragment>();
  f1->id = 1;
  auto merger = MakeMergerOp(0, f0->root->output_schema);
  const Schema in = merger->output_schema;
  f1->root = MakeHashAggOp(
      std::move(merger), {Col(in, "k")}, {"k"},
      {{AggFn::kCount, nullptr, "cnt"}}, HashAggIterator::Mode::kShared);
  f1->nodes = {0, 1};
  f1->out_exchange_id = 1;
  f1->partitioning = Partitioning::kToOne;
  f1->consumer_nodes = {0};
  plan.result_schema = f1->root->output_schema;
  plan.result_exchange_id = 1;
  plan.fragments.push_back(std::move(f0));
  plan.fragments.push_back(std::move(f1));

  Executor exec(&cluster);
  ExecOptions opts;
  opts.mode = ExecMode::kElastic;
  opts.parallelism = 1;
  opts.buffer_capacity_blocks = 2;
  opts.query_id = 9001;
  auto result = exec.Execute(plan, opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->num_rows(), 500);

  int entries = 0;
  double max_in = 0;
  double max_out = 0;
  for (int n = 0; n < kBoundNodes; ++n) {
    for (const SchedTickAudit& tick :
         cluster.scheduler(n)->AuditLogForQuery(opts.query_id)) {
      for (const SchedTickAudit::Segment& s : tick.segments) {
        ++entries;
        EXPECT_GE(s.blocked_in, 0.0) << s.name << " tick " << tick.tick;
        EXPECT_GE(s.blocked_out, 0.0) << s.name << " tick " << tick.tick;
        EXPECT_LE(s.blocked_in + s.blocked_out, 1.0)
            << s.name << " tick " << tick.tick << ": in " << s.blocked_in
            << " out " << s.blocked_out;
        max_in = std::max(max_in, s.blocked_in);
        max_out = std::max(max_out, s.blocked_out);
      }
    }
  }
  EXPECT_GT(entries, 0);
  // The run exercised both signals past the scheduler's threshold.
  EXPECT_GT(max_in, 0.25);
  EXPECT_GT(max_out, 0.25);
  for (const SegmentReport& sr : exec.report().segments) {
    EXPECT_GT(sr.worker_ns, 0) << sr.name;
    EXPECT_LE(sr.blocked_input_ns + sr.blocked_output_ns, sr.worker_ns)
        << sr.name;
  }
}

TEST_F(ClusterExecTest, ExplainRendersPlan) {
  PhysicalPlan plan = JoinAggPlan();
  std::string text = plan.ToString();
  EXPECT_NE(text.find("HashJoin"), std::string::npos);
  EXPECT_NE(text.find("HashAgg"), std::string::npos);
  EXPECT_NE(text.find("Scan(kv1)"), std::string::npos);
  EXPECT_NE(text.find("hash on 0"), std::string::npos);
}

/// A deliberately slow query for cancellation tests: dense self-join of a
/// low-cardinality key (every probe row matches n/300 build rows), so the
/// pipeline streams millions of join rows through the aggregation.
class ClusterCancelTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog_ = new Catalog;
    Schema s({ColumnDef::Int32("k"), ColumnDef::Int64("v")});
    auto t = std::make_shared<Table>("fat", s, kNodes, std::vector<int>{});
    for (int i = 0; i < 120000; ++i) {
      t->AppendValues({Value::Int32(i % 300), Value::Int64(i)});
    }
    ASSERT_TRUE(catalog_->RegisterTable(std::move(t)).ok());
    ClusterOptions copts;
    copts.num_nodes = kNodes;
    copts.cores_per_node = 4;
    cluster_ = new Cluster(copts, catalog_);
  }
  static void TearDownTestSuite() {
    delete cluster_;
    delete catalog_;
  }

  /// Repartition fat on k, self-join with a co-located scan, count per key:
  /// each of the 120 000 probe rows meets the 400 build rows of its key on
  /// the node that owns the key, 16M join rows in all: far more than an
  /// idle 4-vCPU host joins in the 30 and 50 ms the tests allow, which 4M
  /// rows fit inside.
  static PhysicalPlan SlowJoinPlan() {
    TablePtr fat = *catalog_->GetTable("fat");
    PhysicalPlan plan;
    auto f0 = std::make_unique<Fragment>();
    f0->id = 0;
    f0->root = MakeScanOp(*fat);
    f0->nodes = {0, 1, 2};
    f0->out_exchange_id = 0;
    f0->partitioning = Partitioning::kHash;
    f0->hash_cols = {0};
    f0->consumer_nodes = {0, 1, 2};

    auto f1 = std::make_unique<Fragment>();
    f1->id = 1;
    auto merger = MakeMergerOp(0, f0->root->output_schema);
    auto join = MakeHashJoinOp(std::move(merger), MakeScanOp(*fat),
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

  static Catalog* catalog_;
  static Cluster* cluster_;
};

Catalog* ClusterCancelTest::catalog_ = nullptr;
Cluster* ClusterCancelTest::cluster_ = nullptr;

TEST_F(ClusterCancelTest, CancelMidStreamReturnsCancelled) {
  PhysicalPlan plan = SlowJoinPlan();
  {
    Executor exec(cluster_);
    ExecOptions opts;
    opts.mode = ExecMode::kElastic;
    opts.parallelism = 1;
    opts.buffer_capacity_blocks = 2;
    std::thread canceller([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
      exec.Cancel();
    });
    auto result = exec.Execute(plan, opts);
    canceller.join();
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kCancelled)
        << result.status().ToString();
    // A failed run still reports what its ledger peaked at.
    EXPECT_GT(exec.report().peak_memory_bytes, 0);
    EXPECT_EQ(exec.report().peak_memory_bytes,
              exec.report().peak_memory_bytes);
  }
  // Buffers, channels and arenas the cancel left behind all refunded.
  EXPECT_EQ(QueryBudget::TotalChargedBytes(), 0);
}

TEST_F(ClusterCancelTest, CancelBeforeExecuteIsSticky) {
  PhysicalPlan plan = SlowJoinPlan();
  Executor exec(cluster_);
  exec.Cancel();
  auto result = exec.Execute(plan, ExecOptions{});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

TEST_F(ClusterCancelTest, DeadlineCancelsMidStream) {
  PhysicalPlan plan = SlowJoinPlan();
  Executor exec(cluster_);
  ExecOptions opts;
  opts.mode = ExecMode::kElastic;
  opts.parallelism = 1;
  opts.buffer_capacity_blocks = 2;
  const int64_t start_ns = SteadyClock::Default()->NowNanos();
  opts.deadline_ns = start_ns + 50'000'000;  // 50 ms
  auto result = exec.Execute(plan, opts);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded)
      << result.status().ToString();
  // The watchdog fired roughly at the deadline, not after the full join, and
  // the expired run still reports its run time.
  EXPECT_LT(SteadyClock::Default()->NowNanos() - start_ns, 2'000'000'000);
  EXPECT_GT(exec.report().elapsed_ns, 0);
  EXPECT_LT(exec.report().elapsed_ns, 2'000'000'000);
}

TEST_F(ClusterCancelTest, ExpiredDeadlineFailsFast) {
  PhysicalPlan plan = SlowJoinPlan();
  Executor exec(cluster_);
  ExecOptions opts;
  opts.deadline_ns = SteadyClock::Default()->NowNanos() - 1;
  auto result = exec.Execute(plan, opts);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

TEST_F(ClusterExecTest, PlanErrorOnBadScanPlacement) {
  TablePtr kv2 = *catalog_->GetTable("kv2");
  PhysicalPlan plan;
  auto f = std::make_unique<Fragment>();
  f->id = 0;
  f->root = MakeScanOp(*kv2);
  f->nodes = {0, 1, 2, 3, 4};  // more nodes than partitions
  f->out_exchange_id = 0;
  f->consumer_nodes = {0};
  plan.result_schema = f->root->output_schema;
  plan.result_exchange_id = 0;
  plan.fragments.push_back(std::move(f));
  Executor exec(cluster_);
  auto result = exec.Execute(plan, ExecOptions{});
  EXPECT_FALSE(result.ok());
}

// --- Exchange: visit-rate tails and shared broadcast blocks -------------------

/// Replays fixed blocks in order: one producer segment's output.
class ReplaySource : public Iterator {
 public:
  explicit ReplaySource(std::vector<BlockPtr> blocks)
      : blocks_(std::move(blocks)) {}
  NextResult Open(WorkerContext*) override { return NextResult::kSuccess; }
  NextResult Next(WorkerContext*, BlockPtr* out) override {
    if (next_ >= blocks_.size()) return NextResult::kEndOfFile;
    *out = blocks_[next_++];
    return NextResult::kSuccess;
  }
  void Close() override {}

 private:
  std::vector<BlockPtr> blocks_;
  size_t next_ = 0;
};

/// One producer segment of a test exchange: its visit rate V_i, the tuples
/// its stage beginner took in, and the blocks it emits, whose rows over
/// `input_tuples` are its δ_i. `output_counted` sets output_tuples to those
/// rows before the pump runs; false models a worker whose count lags the
/// block it inserted.
struct TailProducer {
  double visit_rate;
  int64_t input_tuples;
  std::vector<BlockPtr> blocks;
  bool output_counted = true;
};

/// What one consumer's merger saw: its folded V_j and the blocks it got.
struct TailConsumer {
  double visit_rate = 0;
  std::vector<BlockPtr> blocks;
};

/// Pumps producer i from node i into one exchange (SenderPump → Network),
/// then drains each consumer's channel through a MergerIterator. The
/// channels charge `budget` (nullable).
std::vector<TailConsumer> RunExchange(Partitioning partitioning,
                                      const std::vector<TailProducer>& producers,
                                      int num_consumers, const Schema& schema,
                                      QueryBudget* budget = nullptr) {
  constexpr int kExchange = 7;
  const int num_producers = static_cast<int>(producers.size());
  Network net(std::max(num_producers, num_consumers), NetworkOptions{});
  std::vector<int> consumer_nodes;
  for (int j = 0; j < num_consumers; ++j) consumer_nodes.push_back(j);
  net.CreateExchange(kExchange, num_producers, consumer_nodes,
                     /*capacity_override=*/0, budget);
  for (int i = 0; i < num_producers; ++i) {
    SegmentStats stats;
    stats.visit_rate.store(producers[i].visit_rate);
    stats.input_tuples.store(producers[i].input_tuples);
    if (producers[i].output_counted) {
      for (const BlockPtr& b : producers[i].blocks) {
        stats.output_tuples.fetch_add(b->num_rows());
      }
    }
    SenderPump::Spec spec;
    spec.exchange_id = kExchange;
    spec.from_node = i;
    spec.partitioning = partitioning;
    spec.hash_cols = {0};
    spec.consumer_nodes = consumer_nodes;
    spec.schema = &schema;
    spec.network = &net;
    spec.stats = &stats;
    SenderPump pump(spec);
    ReplaySource source(producers[i].blocks);
    WorkerContext ctx;
    EXPECT_TRUE(pump.Pump(&source, &ctx, nullptr));
  }
  std::vector<TailConsumer> consumers(num_consumers);
  for (int j = 0; j < num_consumers; ++j) {
    SegmentStats stats;
    MergerIterator merger(net.GetChannel(kExchange, j), &stats, nullptr);
    WorkerContext ctx;
    EXPECT_EQ(merger.Open(&ctx), NextResult::kSuccess);
    BlockPtr block;
    while (merger.Next(&ctx, &block) == NextResult::kSuccess) {
      consumers[j].blocks.push_back(block);
    }
    merger.Close();
    consumers[j].visit_rate = stats.visit_rate.load();
  }
  return consumers;
}

Schema KeySchema() { return Schema({ColumnDef::Int64("k")}); }

BlockPtr KeyBlock(const Schema& s, const std::vector<int64_t>& keys) {
  auto b = MakeBlock(s.row_size());
  for (int64_t k : keys) s.SetInt64(b->AppendRow(), 0, k);
  return b;
}

/// `n` keys that the hash exchange routes to consumer `j` of `of`.
std::vector<int64_t> KeysFor(const Schema& s, int j, int of, int n) {
  std::vector<int64_t> keys;
  std::vector<char> row(static_cast<size_t>(s.row_size()));
  for (int64_t k = 0; static_cast<int>(keys.size()) < n; ++k) {
    s.SetInt64(row.data(), 0, k);
    uint64_t hash;
    HashKeys(s, row.data(), 0, {0}, 1, &hash);
    if (PartitionOf(hash, of) == j) {
      keys.push_back(k);
    }
  }
  return keys;
}

int64_t RowsOf(const TailConsumer& c) {
  int64_t rows = 0;
  for (const BlockPtr& b : c.blocks) rows += b->num_rows();
  return rows;
}

TEST(ExchangeTailTest, ToOneFoldsEveryProducersTail) {
  // V_j = Σ_i V_i·δ_i·p_ij, and a gather sends everything (p_ij = 1).
  const Schema s = KeySchema();
  std::vector<TailProducer> producers = {
      {1.0, 8, {KeyBlock(s, {1, 2, 3}), KeyBlock(s, {4})}},  // δ = 4/8
      {0.5, 8, {KeyBlock(s, {5, 6})}},                       // δ = 2/8
  };
  auto consumers = RunExchange(Partitioning::kToOne, producers, 1, s);
  EXPECT_DOUBLE_EQ(consumers[0].visit_rate, 1.0 * 0.5 + 0.5 * 0.25);
  EXPECT_EQ(RowsOf(consumers[0]), 6);
}

TEST(ExchangeTailTest, BroadcastFoldsWholeTailsAtEveryConsumer) {
  // Every consumer of a broadcast sees all of each producer (p_ij = 1).
  const Schema s = KeySchema();
  std::vector<TailProducer> producers = {
      {0.5, 4, {KeyBlock(s, {1, 2})}},                   // δ = 2/4
      {2.0, 1, {KeyBlock(s, {3}), KeyBlock(s, {4, 5})}},  // δ = 3/1 (fan-out)
  };
  auto consumers = RunExchange(Partitioning::kBroadcast, producers, 3, s);
  for (const TailConsumer& c : consumers) {
    EXPECT_DOUBLE_EQ(c.visit_rate, 0.5 * 0.5 + 2.0 * 3.0);
    EXPECT_EQ(RowsOf(c), 5);
  }
}

TEST(ExchangeTailTest, HashFoldsEachProducersShare) {
  // Each producer's keys hash to one consumer: p_ij is 1 there, and the
  // other consumer gets no tail from it.
  const Schema s = KeySchema();
  std::vector<TailProducer> producers = {
      {1.0, 80, {KeyBlock(s, KeysFor(s, 0, 2, 40))}},   // δ = 40/80
      {0.5, 120, {KeyBlock(s, KeysFor(s, 1, 2, 30))}},  // δ = 30/120
      {0.25, 6, {KeyBlock(s, KeysFor(s, 0, 2, 5)),      // δ = 12/6
                 KeyBlock(s, KeysFor(s, 0, 2, 7))}},
  };
  auto consumers = RunExchange(Partitioning::kHash, producers, 2, s);
  EXPECT_DOUBLE_EQ(consumers[0].visit_rate, 1.0 * 0.5 + 0.25 * 2.0);
  EXPECT_DOUBLE_EQ(consumers[1].visit_rate, 0.5 * 0.25);
  EXPECT_EQ(RowsOf(consumers[0]), 40 + 5 + 7);
  EXPECT_EQ(RowsOf(consumers[1]), 30);
}

TEST(ExchangeTailTest, HashSplitsEachProducersTailEvenly) {
  // Each producer sends one row to each consumer (p_ij = 1/2), both in the
  // partial blocks flushed at end of input. The flush order must not matter:
  // both consumers read Σ_i V_i·δ_i/2.
  const Schema s = KeySchema();
  std::vector<int64_t> keys = {KeysFor(s, 0, 2, 1)[0], KeysFor(s, 1, 2, 1)[0]};
  std::vector<TailProducer> producers = {
      {1.0, 4, {KeyBlock(s, keys)}},  // δ = 2/4
      {0.5, 1, {KeyBlock(s, keys)}},  // δ = 2/1
  };
  auto consumers = RunExchange(Partitioning::kHash, producers, 2, s);
  const double half = (1.0 * 0.5 + 0.5 * 2.0) / 2;
  EXPECT_DOUBLE_EQ(consumers[0].visit_rate, half);
  EXPECT_DOUBLE_EQ(consumers[1].visit_rate, half);
}

TEST(ExchangeTailTest, TailDoesNotWaitForTheOutputCount) {
  // A worker adds a block's rows to output_tuples only after inserting it,
  // so the sender may ship the block first. Its tail is counted from the
  // rows sent, so it is V_i·rows/in_i even then, not 0.
  const Schema s = KeySchema();
  std::vector<TailProducer> producers = {
      {2.0, 10, {KeyBlock(s, {1, 2, 3, 4})}, /*output_counted=*/false},
  };
  auto consumers = RunExchange(Partitioning::kToOne, producers, 1, s);
  EXPECT_DOUBLE_EQ(consumers[0].visit_rate, 2.0 * 4 / 10);
}

TEST(SenderPumpTest, BroadcastSendsOneBlockToEveryConsumer) {
  // Emitted blocks are read-only, so a broadcast shares the block instead of
  // copying it for each consumer. Each consumer's channel still charges the
  // block while it holds it. Three rows would not shrink as a frame, so the
  // remote consumers share the block too (FramedExchangeTest covers frames).
  const Schema s = KeySchema();
  BlockPtr block = KeyBlock(s, {1, 2, 3});
  QueryBudget ledger(/*budget_bytes=*/0);
  auto consumers = RunExchange(Partitioning::kBroadcast,
                               {{1.0, 3, {block}}}, 3, s, &ledger);
  for (const TailConsumer& c : consumers) {
    ASSERT_EQ(c.blocks.size(), 1u);
    EXPECT_EQ(c.blocks[0].get(), block.get());
  }
  EXPECT_EQ(ledger.peak_charged_bytes(), 3 * block->payload_bytes());
  EXPECT_EQ(ledger.charged_bytes(), 0);
}

// --- Exchange: blocks cross hosts as frames ------------------------------------

Schema PairSchema() {
  return Schema({ColumnDef::Int32("k"), ColumnDef::Int64("v")});
}

/// Rows (k = i % 500, v = i) for i in [first, first + rows), numbered `seq`:
/// their frame is about half their rows.
BlockPtr PairBlock(const Schema& s, int first, int rows, uint64_t seq) {
  auto b = MakeBlock(s.row_size());
  for (int i = first; i < first + rows; ++i) {
    char* row = b->AppendRow();
    s.SetInt32(row, 0, i % 500);
    s.SetInt64(row, 1, i);
  }
  b->set_sequence_number(seq);
  return b;
}

/// What a framed exchange delivered, and what it counted.
struct FramedExchange {
  std::vector<std::vector<NetBlock>> received;  ///< per consumer, in order
  int64_t egress_bytes = 0;   ///< node 0's NIC
  int64_t ingress_bytes = 0;  ///< the other nodes' NICs
  int64_t remote_bytes = 0;   ///< the sender's SegmentStats
  int64_t fabric_remote_bytes = 0;
};

/// Pumps `blocks` from node 0 of a 3-node fabric into one exchange to
/// `consumers`, then drains each consumer's channel envelope by envelope.
FramedExchange RunFramed(Partitioning partitioning,
                         const std::vector<BlockPtr>& blocks,
                         const Schema& schema, std::vector<int> consumers,
                         QueryBudget* budget = nullptr) {
  constexpr int kExchange = 5;
  Network net(3, NetworkOptions{});
  net.CreateExchange(kExchange, 1, consumers, /*capacity_override=*/0,
                     budget);
  SegmentStats stats;
  SenderPump::Spec spec;
  spec.exchange_id = kExchange;
  spec.partitioning = partitioning;
  spec.hash_cols = {0};
  spec.consumer_nodes = consumers;
  spec.schema = &schema;
  spec.network = &net;
  spec.stats = &stats;
  SenderPump pump(spec);
  ReplaySource source(blocks);
  WorkerContext ctx;
  EXPECT_TRUE(pump.Pump(&source, &ctx, nullptr));
  FramedExchange out;
  for (int node : consumers) {
    out.received.emplace_back();
    BlockChannel* channel = net.GetChannel(kExchange, node);
    NetBlock nb;
    ChannelStatus status;
    while ((status = channel->Receive(&nb, 1'000'000)) !=
           ChannelStatus::kClosed) {
      if (status == ChannelStatus::kOk) out.received.back().push_back(nb);
    }
  }
  out.egress_bytes = net.egress(0)->total_bytes();
  out.ingress_bytes =
      net.ingress(1)->total_bytes() + net.ingress(2)->total_bytes();
  out.remote_bytes = stats.remote_bytes.load();
  out.fabric_remote_bytes = net.total_remote_bytes();
  return out;
}

std::vector<std::string> SortedRows(const std::vector<NetBlock>& envelopes) {
  std::vector<std::string> rows;
  for (const NetBlock& nb : envelopes) {
    for (int r = 0; r < nb.block->num_rows(); ++r) {
      rows.emplace_back(nb.block->RowAt(r), nb.block->row_size());
    }
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// Three blocks that shrink as frames and a one-row block that does not.
std::vector<BlockPtr> FramedInput(const Schema& s) {
  return {PairBlock(s, 0, 3000, 1), PairBlock(s, 3000, 5000, 2),
          PairBlock(s, 8000, 1, 3), PairBlock(s, 9000, 2000, 4)};
}

TEST(FramedExchangeTest, HashBroadcastAndGatherDeliverTheRowsSent) {
  const Schema s = PairSchema();
  const std::vector<BlockPtr> blocks = FramedInput(s);
  std::vector<NetBlock> sent;
  for (const BlockPtr& b : blocks) sent.push_back(NetBlock{b});
  const std::vector<std::string> all = SortedRows(sent);
  for (Partitioning p : {Partitioning::kHash, Partitioning::kBroadcast,
                         Partitioning::kToOne}) {
    SCOPED_TRACE(static_cast<int>(p));
    // A gather goes to node 1 alone, so every block crosses hosts.
    const std::vector<int> consumers =
        p == Partitioning::kToOne ? std::vector<int>{1}
                                  : std::vector<int>{0, 1};
    const FramedExchange x = RunFramed(p, blocks, s, consumers);
    for (size_t j = 0; j < consumers.size(); ++j) {
      SCOPED_TRACE(consumers[j]);
      std::vector<std::string> want;
      for (const std::string& row : all) {
        uint64_t hash;
        HashKeys(s, row.data(), 0, {0}, 1, &hash);
        if (p != Partitioning::kHash ||
            PartitionOf(hash, 2) == static_cast<int>(j)) {
          want.push_back(row);
        }
      }
      EXPECT_EQ(SortedRows(x.received[j]), want);
      int framed = 0;
      for (const NetBlock& nb : x.received[j]) framed += nb.frame != nullptr;
      if (consumers[j] == 0) {
        EXPECT_EQ(framed, 0);  // same host: the producer's blocks
      } else {
        // A shuffle sends node 1 one block of its ~5 000 rows.
        EXPECT_GE(framed, p == Partitioning::kHash ? 1 : 3);
      }
      if (p != Partitioning::kHash) {
        // Whole blocks cross, each with its sequence number.
        std::vector<uint64_t> seqs;
        for (const NetBlock& nb : x.received[j]) {
          seqs.push_back(nb.block->sequence_number());
        }
        EXPECT_EQ(seqs, (std::vector<uint64_t>{1, 2, 3, 4}));
      }
    }
  }
}

TEST(FramedExchangeTest, NicsAndRemoteBytesCountTheFrames) {
  const Schema s = PairSchema();
  const FramedExchange x =
      RunFramed(Partitioning::kHash, FramedInput(s), s, {0, 1});
  int64_t wire = 0;
  int64_t rows = 0;
  for (const NetBlock& nb : x.received[1]) {
    wire += nb.wire_bytes();
    rows += nb.block->payload_bytes();
  }
  EXPECT_GT(wire, 0);
  EXPECT_LT(2 * wire, rows + rows / 4);  // about half the rows' bytes
  EXPECT_EQ(x.egress_bytes, wire);
  EXPECT_EQ(x.ingress_bytes, wire);
  EXPECT_EQ(x.remote_bytes, wire);
  EXPECT_EQ(x.fabric_remote_bytes, wire);
}

TEST(FramedExchangeTest, BroadcastEncodesOnceAndSharesLocalBlocks) {
  const Schema s = PairSchema();
  const std::vector<BlockPtr> blocks = FramedInput(s);
  QueryBudget ledger(/*budget_bytes=*/0);
  const FramedExchange x =
      RunFramed(Partitioning::kBroadcast, blocks, s, {0, 1, 2}, &ledger);
  int64_t queued = 0;
  for (size_t i = 0; i < blocks.size(); ++i) {
    SCOPED_TRACE(i);
    const NetBlock& local = x.received[0][i];
    const NetBlock& one = x.received[1][i];
    const NetBlock& two = x.received[2][i];
    EXPECT_EQ(local.block, blocks[i]);  // the producer's block itself
    EXPECT_EQ(local.frame, nullptr);
    if (blocks[i]->num_rows() == 1) {
      // Its frame would not be smaller: it crosses as the shared block.
      EXPECT_EQ(one.frame, nullptr);
      EXPECT_EQ(one.block, blocks[i]);
      EXPECT_EQ(two.block, blocks[i]);
    } else {
      // One frame for both remote consumers; each decodes its own block.
      ASSERT_NE(one.frame, nullptr);
      EXPECT_EQ(one.frame, two.frame);
      EXPECT_NE(one.block, blocks[i]);
      EXPECT_NE(one.block, two.block);
    }
    queued += local.wire_bytes() + one.wire_bytes() + two.wire_bytes();
  }
  // Every envelope sat queued at once, each charging its wire bytes: the
  // local block's payload, and each remote consumer's frame.
  EXPECT_EQ(ledger.peak_charged_bytes(), queued);
  EXPECT_EQ(ledger.charged_bytes(), 0);
}

}  // namespace
}  // namespace claims
