// ExecutionReport tests: after a 2-node cluster query the report's
// per-segment numbers must reconcile exactly with the SegmentStats the
// scheduler sampled during the run, and the parallelism timelines must come
// from launch widths and the scheduler's decision audit, recorder on or off.

#include <gtest/gtest.h>

#include "cluster/executor.h"
#include "obs/recorder.h"

namespace claims {
namespace {

constexpr int kNodes = 2;

ExprPtr Col(const Schema& s, const char* name) {
  int i = s.FindColumn(name);
  EXPECT_GE(i, 0) << name;
  return MakeColumnRef(i, s.column(i).type, name);
}

class ObsReportTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog_ = new Catalog;
    {
      Schema s({ColumnDef::Int32("k"), ColumnDef::Int64("v")});
      auto t = std::make_shared<Table>("kv1", s, kNodes, std::vector<int>{});
      for (int i = 0; i < 20000; ++i) {
        t->AppendValues({Value::Int32(i % 100), Value::Int64(i)});
      }
      ASSERT_TRUE(catalog_->RegisterTable(std::move(t)).ok());
    }
    {
      Schema s({ColumnDef::Int32("k"), ColumnDef::Int64("w")});
      auto t = std::make_shared<Table>("kv2", s, kNodes, std::vector<int>{0});
      for (int i = 0; i < 100; ++i) {
        t->AppendValues({Value::Int32(i), Value::Int64(i * 10)});
      }
      ASSERT_TRUE(catalog_->RegisterTable(std::move(t)).ok());
    }
    ClusterOptions copts;
    copts.num_nodes = kNodes;
    copts.cores_per_node = 4;
    copts.scheduler_period_ms = 2;
    cluster_ = new Cluster(copts, catalog_);
  }
  static void TearDownTestSuite() {
    delete cluster_;
    delete catalog_;
  }

  /// Repartition kv1 on k, join with co-located kv2, aggregate, gather.
  static PhysicalPlan JoinAggPlan() {
    TablePtr kv1 = *catalog_->GetTable("kv1");
    TablePtr kv2 = *catalog_->GetTable("kv2");
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

  static Catalog* catalog_;
  static Cluster* cluster_;
};

Catalog* ObsReportTest::catalog_ = nullptr;
Cluster* ObsReportTest::cluster_ = nullptr;

TEST_F(ObsReportTest, ReportReconcilesWithSegmentStats) {
  PhysicalPlan plan = JoinAggPlan();
  Executor exec(cluster_);
  ExecOptions opts;
  opts.mode = ExecMode::kElastic;
  opts.parallelism = 1;
  const int64_t fabric_before = cluster_->network()->total_remote_bytes();
  auto result = exec.Execute(plan, opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->num_rows(), 100);

  const ExecutionReport& report = exec.report();
  EXPECT_EQ(report.mode, "EP");
  EXPECT_EQ(report.result_tuples, 100);
  EXPECT_GT(report.elapsed_ns, 0);
  EXPECT_GT(report.peak_memory_bytes, 0);
  // Alone on the cluster, the bytes the query's senders counted are exactly
  // what crossed the fabric.
  EXPECT_GT(report.remote_bytes, 0);
  EXPECT_EQ(report.remote_bytes,
            cluster_->network()->total_remote_bytes() - fabric_before);

  // One report row per segment instance: 2 fragments × 2 nodes.
  ASSERT_EQ(report.segments.size(), 4u);
  ASSERT_EQ(exec.segments().size(), 4u);
  int64_t scan_out = 0, agg_in = 0, agg_out = 0;
  for (size_t i = 0; i < report.segments.size(); ++i) {
    const SegmentReport& sr = report.segments[i];
    Segment& seg = *exec.segments()[i];
    EXPECT_EQ(sr.name, seg.name());
    EXPECT_EQ(sr.node_id, seg.node_id());
    // Exact reconciliation against the stats the scheduler sampled.
    SegmentStats* st = seg.stats();
    EXPECT_EQ(sr.input_tuples, st->input_tuples.load());
    EXPECT_EQ(sr.output_tuples, st->output_tuples.load());
    EXPECT_DOUBLE_EQ(sr.selectivity, st->selectivity());
    const WorkerTimeMeter::Reading time =
        st->worker_time.Read(*SteadyClock::Default());
    EXPECT_EQ(sr.worker_ns, time.live_ns);
    EXPECT_EQ(sr.blocked_input_ns, time.blocked_input_ns);
    EXPECT_EQ(sr.blocked_output_ns, time.blocked_output_ns);
    EXPECT_GT(sr.lifetime_ns, 0);
    EXPECT_GE(sr.peak_parallelism, 1);
    if (sr.name.rfind("S0", 0) == 0) {
      scan_out += sr.output_tuples;
    } else {
      agg_in += sr.input_tuples;
      agg_out += sr.output_tuples;
    }
  }
  // Dataflow conservation end to end: everything the scans emitted arrived
  // at the join/agg segments (whose input also counts the probe-side kv2
  // scan — 100 rows across the cluster — since a scan is a stage beginner
  // too), and the aggregation produced the result rows.
  EXPECT_EQ(scan_out, 20000);
  EXPECT_EQ(agg_in, 20000 + 100);
  EXPECT_EQ(agg_out, 100);

  std::string text = report.ToString();
  EXPECT_NE(text.find("Query (EP)"), std::string::npos);
  EXPECT_NE(text.find("worker"), std::string::npos);
  EXPECT_NE(text.find("S0@n0"), std::string::npos);
  EXPECT_NE(text.find("S1@n1"), std::string::npos);
}

TEST_F(ObsReportTest, RecordedRunHoldsQuerySpanAndOneTickRecordPerTick) {
  auto total_ticks = [] {
    int64_t ticks = 0;
    for (int n = 0; n < kNodes; ++n) {
      ticks += cluster_->scheduler(n)->tick_count();
    }
    return ticks;
  };
  EventRecorder* rec = EventRecorder::Global();
  rec->Clear();
  const int64_t ticks_before = total_ticks();
  rec->Enable();
  PhysicalPlan plan = JoinAggPlan();
  Executor exec(cluster_);
  ExecOptions opts;
  opts.mode = ExecMode::kElastic;
  opts.parallelism = 1;
  auto result = exec.Execute(plan, opts);
  rec->Disable();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const int64_t ticks = total_ticks() - ticks_before;

  for (const SegmentReport& sr : exec.report().segments) {
    EXPECT_FALSE(sr.parallelism_timeline.empty()) << sr.name;
    for (const auto& [ts, p] : sr.parallelism_timeline) {
      EXPECT_GE(p, 0);
      EXPECT_LE(p, 4);  // cores_per_node
    }
  }

  // The capture holds the query span and one tick record per tick the
  // schedulers took: they tick only while the query's segments are
  // registered, all of it inside the recorded window.
  bool saw_query = false;
  int64_t tick_records = 0;
  for (const EventRecord& ev : rec->Snapshot()) {
    if (ev.kind == EventKind::kQuery) saw_query = true;
    if (ev.kind == EventKind::kTick) ++tick_records;
  }
  EXPECT_TRUE(saw_query);
  EXPECT_EQ(tick_records, ticks);
  rec->Clear();
}

TEST_F(ObsReportTest, TimelinesFilledWithRecordingOff) {
  ASSERT_FALSE(EventRecorder::Global()->enabled());
  PhysicalPlan plan = JoinAggPlan();
  Executor exec(cluster_);
  ExecOptions opts;
  opts.mode = ExecMode::kStatic;
  opts.parallelism = 2;
  ASSERT_TRUE(exec.Execute(plan, opts).ok());
  // SP never registers with the scheduler: each timeline is exactly the
  // launch width, stamped when the segment's driver started.
  ASSERT_EQ(exec.report().segments.size(), exec.segments().size());
  for (size_t i = 0; i < exec.segments().size(); ++i) {
    const SegmentReport& sr = exec.report().segments[i];
    ASSERT_EQ(sr.parallelism_timeline.size(), 1u) << sr.name;
    EXPECT_EQ(sr.parallelism_timeline[0],
              (std::pair<int64_t, int>{exec.segments()[i]->start_ns(), 2}));
    EXPECT_EQ(sr.peak_parallelism, 2);
  }
  EXPECT_EQ(exec.report().mode, "SP");
  EXPECT_EQ(exec.report().ToString().find("(no samples)"), std::string::npos);
}

TEST(ObsReportAuditTest, ElasticTimelinesFollowTheQueryAudit) {
  // Its own cluster: a 5 ms scheduler period and a join long enough for the
  // schedulers to audit the query several times.
  Catalog catalog;
  {
    Schema s({ColumnDef::Int32("k"), ColumnDef::Int64("v")});
    auto t = std::make_shared<Table>("kv1", s, kNodes, std::vector<int>{});
    for (int i = 0; i < 200000; ++i) {
      t->AppendValues({Value::Int32(i % 100), Value::Int64(i)});
    }
    ASSERT_TRUE(catalog.RegisterTable(std::move(t)).ok());
  }
  {
    Schema s({ColumnDef::Int32("k"), ColumnDef::Int64("w")});
    auto t = std::make_shared<Table>("kv2", s, kNodes, std::vector<int>{0});
    for (int i = 0; i < 100; ++i) {
      t->AppendValues({Value::Int32(i), Value::Int64(i * 10)});
    }
    ASSERT_TRUE(catalog.RegisterTable(std::move(t)).ok());
  }
  ClusterOptions copts;
  copts.num_nodes = kNodes;
  copts.cores_per_node = 4;
  copts.scheduler_period_ms = 5;
  Cluster cluster(copts, &catalog);
  ASSERT_FALSE(EventRecorder::Global()->enabled());

  TablePtr kv1 = *catalog.GetTable("kv1");
  TablePtr kv2 = *catalog.GetTable("kv2");
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
  auto join = MakeHashJoinOp(MakeMergerOp(0, f0->root->output_schema),
                             MakeScanOp(*kv2), {0}, {0});
  const Schema join_schema = join->output_schema;
  f1->root = MakeHashAggOp(std::move(join), {Col(join_schema, "k")}, {"k"},
                           {{AggFn::kCount, nullptr, "cnt"}},
                           HashAggIterator::Mode::kShared);
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
  opts.query_id = 4242;
  ASSERT_TRUE(exec.Execute(plan, opts).ok());

  std::vector<SchedTickAudit> audit;
  for (int n = 0; n < kNodes; ++n) {
    for (SchedTickAudit& tick :
         cluster.scheduler(n)->AuditLogForQuery(opts.query_id)) {
      audit.push_back(std::move(tick));
    }
  }
  for (size_t i = 0; i < exec.segments().size(); ++i) {
    const SegmentReport& sr = exec.report().segments[i];
    ASSERT_FALSE(sr.parallelism_timeline.empty()) << sr.name;
    // Starts at the launch width...
    EXPECT_EQ(sr.parallelism_timeline[0],
              (std::pair<int64_t, int>{exec.segments()[i]->start_ns(), 1}));
    // ...and every later point is one of this query's audit entries for the
    // segment: same tick time, same post-action parallelism.
    for (size_t k = 1; k < sr.parallelism_timeline.size(); ++k) {
      const auto& [ts, p] = sr.parallelism_timeline[k];
      bool found = false;
      for (const SchedTickAudit& tick : audit) {
        for (const SchedTickAudit::Segment& seg : tick.segments) {
          if (seg.name == sr.name && tick.ts_ns == ts && seg.parallelism == p) {
            found = true;
          }
        }
      }
      EXPECT_TRUE(found) << sr.name << " point " << k;
    }
    // The last audited parallelism is where the timeline ends.
    int last = sr.parallelism_timeline[0].second;
    for (const SchedTickAudit& tick : audit) {
      for (const SchedTickAudit::Segment& seg : tick.segments) {
        if (seg.name == sr.name) last = seg.parallelism;
      }
    }
    EXPECT_EQ(sr.parallelism_timeline.back().second, last) << sr.name;
  }
  EXPECT_FALSE(audit.empty()) << "the schedulers never audited the query";
}

TEST(ParallelismTimelineTest, CollapsesDuplicatesAndClipsToWindow) {
  auto tick = [](int64_t ts, const char* seg, int p) {
    SchedTickAudit a;
    a.ts_ns = ts;
    SchedTickAudit::Segment s;
    s.name = seg;
    s.parallelism = p;
    a.segments.push_back(s);
    return a;
  };
  std::vector<SchedTickAudit> audit = {
      tick(10, "S1", 1),  // same as the launch width: collapsed
      tick(15, "S2", 9),  // other segment
      tick(20, "S1", 3),
      tick(30, "S1", 3),  // duplicate: collapsed
      tick(99, "S1", 4),  // outside window
  };
  auto timeline = ParallelismTimeline(audit, "S1", /*start_ns=*/5,
                                      /*launch_width=*/1, 0, 50);
  ASSERT_EQ(timeline.size(), 2u);
  EXPECT_EQ(timeline[0], (std::pair<int64_t, int>{5, 1}));
  EXPECT_EQ(timeline[1], (std::pair<int64_t, int>{20, 3}));
}

}  // namespace
}  // namespace claims
