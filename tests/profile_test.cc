// Causal query profile tests: assembler attribution and critical-path
// stitching on synthetic records, the recorder's open-span registry
// lifecycle, end-to-end profiles of real multi-segment executions —
// including link propagation under drop/duplicate/retry faults (no leaked
// open spans, no double-counted receives, no mislinked exchange jumps) — and
// the recorder's retention semantics: unbounded captures keep every query,
// the ring stays bounded and reports what it overwrote, and the flight
// recorder dump and /profile/<id>?format=perfetto come from one writer.

#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "cluster/executor.h"
#include "fault/injector.h"
#include "net/socket_util.h"
#include "obs/monitor_server.h"
#include "obs/profile/assembler.h"
#include "obs/recorder.h"

namespace claims {
namespace {

constexpr int64_t kMs = 1'000'000;

EventRecord MakeSpan(uint64_t qid, EventKind kind, const char* segment,
                     int64_t start_ms, int64_t end_ms) {
  return EventRecord(kind, RecordOwner{qid, segment, 0}, start_ms * kMs,
                     end_ms * kMs);
}

/// Turns the global recorder on for a scope, on a clean store.
class RecorderOn {
 public:
  explicit RecorderOn(size_t ring = 0) {
    EventRecorder::Global()->ConfigureRing(ring);
    EventRecorder::Global()->Enable();
  }
  ~RecorderOn() {
    EventRecorder::Global()->Disable();
    EventRecorder::Global()->ConfigureRing(0);
  }
  CLAIMS_DISALLOW_COPY_AND_ASSIGN(RecorderOn);
};

// --- assembler: operator attribution ---------------------------------------------

TEST(AssemblerTest, OperatorExclusiveTimesTelescope) {
  // One segment, a three-operator chain: agg(0) ← join(1) ← scan(2).
  AssembleInput in;
  in.query_id = 1;
  in.start_ns = 0;
  in.end_ns = 100 * kMs;
  auto op = [&](int id, int parent, const char* name, int64_t busy_ms) {
    EventRecord s = MakeSpan(1, EventKind::kOperator, "S0@n0", 0, 100);
    s.name = name;
    s.op_id = id;
    s.parent_op = parent;
    s.busy_ns = busy_ms * kMs;
    in.records.push_back(std::move(s));
  };
  op(0, -1, "hash-agg", 100);
  op(1, 0, "hash-join", 60);
  op(2, 1, "scan", 20);
  auto p = AssembleQueryProfile(std::move(in));

  ASSERT_EQ(p->operators.size(), 3u);
  EXPECT_EQ(p->operator_total_ns, 100 * kMs);  // root inclusive
  // Exclusive = inclusive − Σ children: 40 + 40 + 20 telescopes to 100.
  EXPECT_EQ(p->operator_exclusive_sum_ns, 100 * kMs);
  for (const ProfOperatorStat& st : p->operators) {
    if (st.op_id == 0) EXPECT_EQ(st.exclusive_ns, 40 * kMs);
    if (st.op_id == 1) EXPECT_EQ(st.exclusive_ns, 40 * kMs);
    if (st.op_id == 2) EXPECT_EQ(st.exclusive_ns, 20 * kMs);
  }
}

TEST(AssemblerTest, EstimatedRowsBesideActualRowsSummedOverNodes) {
  // One join estimated at 300 rows runs on two nodes (S1@n0, S1@n1) and
  // emits 100 + 500; the scan below it carries no estimate.
  AssembleInput in;
  in.query_id = 3;
  in.start_ns = 0;
  in.end_ns = 100 * kMs;
  auto op = [&](const char* segment, int id, int parent, const char* name,
                int64_t rows, int64_t est) {
    EventRecord s = MakeSpan(3, EventKind::kOperator, segment, 0, 100);
    s.name = name;
    s.op_id = id;
    s.parent_op = parent;
    s.tuples = rows;
    if (est >= 0) s.AddArg("est_rows", static_cast<double>(est));
    in.records.push_back(std::move(s));
  };
  op("S1@n0", 0, -1, "hash-join", 100, 300);
  op("S1@n0", 1, 0, "scan(t)", 400, -1);
  op("S1@n1", 0, -1, "hash-join", 500, 300);
  op("S1@n1", 1, 0, "scan(t)", 600, -1);
  // Another fragment's op 0 is a different operator.
  op("S2@n0", 0, -1, "hash-agg", 7, -1);
  auto p = AssembleQueryProfile(std::move(in));

  ASSERT_EQ(p->operators.size(), 5u);
  for (const ProfOperatorStat& st : p->operators) {
    if (st.name == "hash-join") {
      EXPECT_EQ(st.est_rows, 300);
      EXPECT_EQ(p->ActualRows(st), 600);
    } else if (st.name == "scan(t)") {
      EXPECT_EQ(st.est_rows, -1);
      EXPECT_EQ(p->ActualRows(st), 1000);
    } else {
      EXPECT_EQ(p->ActualRows(st), 7);
    }
  }
  EXPECT_DOUBLE_EQ(QError(300, 600), 2.0);
  EXPECT_DOUBLE_EQ(QError(600, 300), 2.0);
  EXPECT_DOUBLE_EQ(QError(0, 0), 1.0);

  const std::string text = p->ToText();
  EXPECT_NE(text.find("est-rows   act-rows    q-err"), std::string::npos)
      << text;
  EXPECT_NE(text.find("       300        600     2.00"), std::string::npos)
      << text;
  EXPECT_NE(text.find("         \u2013       1000        \u2013"),
            std::string::npos)
      << text;
  const std::string json = p->ToJson();
  EXPECT_NE(json.find("\"est_rows\":300,\"act_rows\":600,\"q_error\":2"),
            std::string::npos)
      << json;
  EXPECT_NE(
      json.find("\"est_rows\":null,\"act_rows\":1000,\"q_error\":null"),
      std::string::npos)
      << json;
}

// --- assembler: critical path ----------------------------------------------------

/// Producer S0@n1 runs [0,50) and ships batch (exchange 5, seq 7) at
/// [45,46); consumer S1@n0 runs [0,100) and starves [10,46) until that batch
/// lands. The backward walk must jump producer-ward across the exchange.
AssembleInput TwoSegmentInput(uint64_t resolved_seq) {
  AssembleInput in;
  in.query_id = 2;
  in.start_ns = 0;
  in.end_ns = 100 * kMs;

  EventRecord prod = MakeSpan(2, EventKind::kSegment, "S0@n1", 0, 50);
  prod.node = 1;
  in.records.push_back(prod);
  EventRecord cons = MakeSpan(2, EventKind::kSegment, "S1@n0", 0, 100);
  in.records.push_back(cons);

  EventRecord send = MakeSpan(2, EventKind::kNetSend, "S0@n1", 45, 46);
  send.node = 1;
  send.link = LinkKey{5, 1, 0, 7};
  in.records.push_back(send);

  EventRecord recv = MakeSpan(2, EventKind::kNetRecv, "S1@n0", 46, 46);
  recv.link = LinkKey{5, 1, 0, 7};
  in.records.push_back(recv);

  EventRecord wait = MakeSpan(2, EventKind::kBlockedInput, "S1@n0", 10, 46);
  wait.link = LinkKey{5, 1, 0, resolved_seq};
  in.records.push_back(wait);
  return in;
}

TEST(AssemblerTest, CriticalPathJumpsAcrossLinkedExchange) {
  auto p = AssembleQueryProfile(TwoSegmentInput(/*resolved_seq=*/7));
  EXPECT_GE(p->critical_path_coverage, 0.99);
  EXPECT_EQ(p->linked_recv_spans, 1);
  EXPECT_EQ(p->total_recv_spans, 1);

  bool exchange_step = false;
  bool producer_compute = false;
  for (const ProfPathStep& s : p->critical_path) {
    if (s.what == "exchange") {
      exchange_step = true;
      EXPECT_EQ(s.segment, "S0@n1->S1@n0");
    }
    if (s.what == "compute" && s.segment == "S0@n1") producer_compute = true;
  }
  EXPECT_TRUE(exchange_step) << "no exchange jump in the critical path";
  EXPECT_TRUE(producer_compute) << "walk never reached the producer";
  // Steps partition the wall time: durations sum to coverage × wall.
  int64_t sum = 0;
  for (const ProfPathStep& s : p->critical_path) sum += s.dur_ns();
  EXPECT_NEAR(static_cast<double>(sum),
              p->critical_path_coverage * static_cast<double>(p->wall_ns()),
              static_cast<double>(kMs));
}

TEST(AssemblerTest, UnresolvedWaitStaysOnConsumerAsBlockedInput) {
  // wire_seq 0 = "no link recorded": the walk must not fabricate an edge.
  auto p = AssembleQueryProfile(TwoSegmentInput(/*resolved_seq=*/0));
  bool blocked_step = false;
  for (const ProfPathStep& s : p->critical_path) {
    EXPECT_NE(s.what, "exchange");
    if (s.what == "blocked-input") blocked_step = true;
  }
  EXPECT_TRUE(blocked_step);
}

TEST(AssemblerTest, RendersAllThreeViews) {
  auto p = AssembleQueryProfile(TwoSegmentInput(7));
  EXPECT_NE(p->ToJson().find("\"critical_path\":{\"coverage\":"),
            std::string::npos);
  EXPECT_NE(p->ToText().find("critical path"), std::string::npos);
  EXPECT_NE(p->ToText().find("timeline"), std::string::npos);
  // Perfetto export carries flow arrows for the matched send/recv pair.
  const std::string perfetto = p->ToPerfettoJson();
  EXPECT_NE(perfetto.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(perfetto.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(perfetto.find("\"ph\":\"f\""), std::string::npos);
  EXPECT_FALSE(p->Summary().empty());
}

// --- open-span registry ----------------------------------------------------------

TEST(RecorderOpenSpanTest, LifecycleAndDoubleCloseSafety) {
  EventRecorder* rec = EventRecorder::Global();
  RecorderOn on;

  EventRecord s = MakeSpan(91, EventKind::kBlockedInput, "S1@n0", 1, 0);
  uint64_t token = rec->BeginOpen(s);
  ASSERT_NE(token, 0u);
  EXPECT_EQ(rec->open_span_count(), 1u);
  EXPECT_NE(rec->OpenSpansText().find("S1@n0"), std::string::npos);

  const LinkKey resolved{3, 2, 0, 9};
  rec->EndOpen(token, 5 * kMs, &resolved);
  EXPECT_EQ(rec->open_span_count(), 0u);
  rec->EndOpen(token, 9 * kMs);  // double close: ignored, no second span
  rec->AbortOpen(token);         // ditto

  int64_t lost = -1;
  std::vector<EventRecord> taken = rec->SelectQuery(91, &lost);
  ASSERT_EQ(taken.size(), 1u);
  EXPECT_EQ(lost, 0);
  EXPECT_EQ(taken[0].end_ns, 5 * kMs);
  EXPECT_EQ(taken[0].link.wire_seq, 9u);  // link key stamped at resolution
  EXPECT_EQ(taken[0].link.from_node, 2);
  EXPECT_EQ(taken[0].link.exchange_id, 3);

  uint64_t t2 = rec->BeginOpen(s);
  ASSERT_NE(t2, 0u);
  rec->AbortOpen(t2);
  EXPECT_EQ(rec->open_span_count(), 0u);
  EXPECT_EQ(rec->SelectQuery(91, &lost).size(), 1u);  // aborted: no record
  EXPECT_TRUE(rec->OpenSpansText().empty());
}

TEST(RecorderOpenSpanTest, DisabledRecorderOpensNothing) {
  EventRecorder* rec = EventRecorder::Global();
  ASSERT_FALSE(rec->enabled());
  EXPECT_EQ(rec->BeginOpen(MakeSpan(92, EventKind::kBlockedOutput, "S0@n0",
                                    1, 0)),
            0u);
  rec->EndOpen(0, 5 * kMs);  // token 0 is "not registered": a no-op
  EXPECT_EQ(rec->open_span_count(), 0u);
}

// --- end-to-end on the real executor ---------------------------------------------


ExprPtr Col(const Schema& s, const char* name) {
  int i = s.FindColumn(name);
  EXPECT_GE(i, 0) << name;
  return MakeColumnRef(i, s.column(i).type, name);
}

/// Same dataset shape as the fault tests: kva round-robin (repartitioned on
/// k for the build side), kvb hash-partitioned on k (co-located probe side),
/// so the join result is deterministic: (rows/300)² matches per key.
struct ProfiledCluster {
  explicit ProfiledCluster(int rows = 24000, int nodes = 3) : nodes(nodes) {
    {
      Schema s({ColumnDef::Int32("k"), ColumnDef::Int64("v")});
      auto t = std::make_shared<Table>("kva", s, nodes, std::vector<int>{});
      for (int i = 0; i < rows; ++i) {
        t->AppendValues({Value::Int32(i % 300), Value::Int64(i)});
      }
      EXPECT_TRUE(catalog.RegisterTable(std::move(t)).ok());
    }
    {
      Schema s({ColumnDef::Int32("k"), ColumnDef::Int64("w")});
      auto t = std::make_shared<Table>("kvb", s, nodes, std::vector<int>{0});
      for (int i = 0; i < rows; ++i) {
        t->AppendValues({Value::Int32(i % 300), Value::Int64(i)});
      }
      EXPECT_TRUE(catalog.RegisterTable(std::move(t)).ok());
    }
    ClusterOptions copts;
    copts.num_nodes = nodes;
    copts.cores_per_node = 4;
    copts.scheduler_period_ms = 5;  // many audit ticks within a short query
    cluster = std::make_unique<Cluster>(copts, &catalog);
  }

  /// Repartition kva on k (exchange 0), join against the co-partitioned kvb
  /// scan, count per key, gather (exchange 1): two segment layers, real
  /// cross-node exchanges on every run.
  PhysicalPlan JoinPlan() {
    TablePtr kva = *catalog.GetTable("kva");
    TablePtr kvb = *catalog.GetTable("kvb");
    std::vector<int> all;
    for (int n = 0; n < nodes; ++n) all.push_back(n);
    PhysicalPlan plan;
    auto f0 = std::make_unique<Fragment>();
    f0->id = 0;
    f0->root = MakeScanOp(*kva);
    f0->nodes = all;
    f0->out_exchange_id = 0;
    f0->partitioning = Partitioning::kHash;
    f0->hash_cols = {0};
    f0->consumer_nodes = all;

    auto f1 = std::make_unique<Fragment>();
    f1->id = 1;
    auto merger = MakeMergerOp(0, f0->root->output_schema);
    auto join = MakeHashJoinOp(std::move(merger), MakeScanOp(*kvb),
                               /*build_keys=*/{0}, /*probe_keys=*/{0});
    const Schema join_schema = join->output_schema;
    f1->root = MakeHashAggOp(std::move(join), {Col(join_schema, "k")}, {"k"},
                             {{AggFn::kCount, nullptr, "cnt"}},
                             HashAggIterator::Mode::kShared);
    f1->nodes = all;
    f1->out_exchange_id = 1;
    f1->partitioning = Partitioning::kToOne;
    f1->consumer_nodes = {0};

    plan.result_schema = f1->root->output_schema;
    plan.result_exchange_id = 1;
    plan.fragments.push_back(std::move(f0));
    plan.fragments.push_back(std::move(f1));
    return plan;
  }

  int nodes;
  Catalog catalog;
  std::unique_ptr<Cluster> cluster;
};

TEST(ProfileEndToEndTest, MultiSegmentQueryMeetsAttributionBars) {
  EventRecorder* rec = EventRecorder::Global();
  ProfiledCluster pc;
  RecorderOn on;

  Executor exec(pc.cluster.get());
  ExecOptions opts;
  opts.parallelism = 1;
  opts.query_id = 77;
  auto result = exec.Execute(pc.JoinPlan(), opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->num_rows(), 300);

  // Nothing left mid-flight.
  EXPECT_EQ(rec->open_span_count(), 0u);

  auto p = rec->GetProfile(77);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->query_id, 77u);
  EXPECT_GT(p->wall_ns(), 0);

  // Acceptance bars: the critical path explains ≥ 90% of wall time and the
  // per-operator exclusive times sum back to the total operator time within
  // 10% (the telescoping identity, modulo clock-read skew).
  EXPECT_GE(p->critical_path_coverage, 0.9) << p->ToText();
  ASSERT_GT(p->operator_total_ns, 0);
  EXPECT_NEAR(static_cast<double>(p->operator_exclusive_sum_ns),
              static_cast<double>(p->operator_total_ns),
              0.1 * static_cast<double>(p->operator_total_ns));

  // Cross-exchange causality: every receive links to a profiled send (both
  // sides of both exchanges ran with the recorder on).
  EXPECT_GT(p->total_recv_spans, 0);
  EXPECT_EQ(p->linked_recv_spans, p->total_recv_spans);

  // The scheduler decision audit is scoped to this query and shows the
  // estimated-vs-realized loop: after the first tick of a segment, later
  // ticks carry the rate the previous tick predicted.
  ASSERT_GE(p->audit.size(), 2u) << "query finished before two ticks";
  bool any_predicted = false;
  for (const SchedTickAudit& tick : p->audit) {
    for (const SchedTickAudit::Segment& seg : tick.segments) {
      EXPECT_EQ(seg.query_id, 77u);
      if (seg.predicted_rate >= 0 && seg.rate >= 0) any_predicted = true;
    }
  }
  EXPECT_TRUE(any_predicted)
      << "no tick recorded a prediction for a realized rate";

  // Surfaced in EXPLAIN ANALYZE.
  EXPECT_EQ(exec.report().profile_query_id, 77u);
  EXPECT_NE(exec.report().ToString().find("profile"), std::string::npos);
}

TEST(ProfileEndToEndTest, UnrecordedRunStoresNothingAndNoProfile) {
  EventRecorder* rec = EventRecorder::Global();
  rec->Clear();
  ProfiledCluster pc(6000);
  Executor exec(pc.cluster.get());
  ExecOptions opts;
  opts.parallelism = 1;
  opts.query_id = 78;
  auto result = exec.Execute(pc.JoinPlan(), opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(rec->size(), 0u);
  EXPECT_EQ(rec->open_span_count(), 0u);
  EXPECT_EQ(rec->GetProfile(78), nullptr);
  EXPECT_EQ(exec.report().profile_query_id, 0u);
}

/// Link propagation under drop (with fabric retry) and duplicate faults.
/// Retried sends must yield exactly one send record keyed by the delivered
/// sequence; suppressed duplicate deliveries must not produce a second
/// receive record; teardown must not leak open spans.
TEST(ProfileEndToEndTest, SpanLinksSurviveDropDupRetryFaults) {
  // Seeded plan: drops force retries for ~10% of sends (exhaustion odds per
  // block ≈ 1e-5 with 5 attempts), duplicates hit half the deliveries.
  auto plan = ParseFaultPlan(
      "seed=23\n"
      "at=0ns kind=drop dur=10s p=0.1\n"
      "at=0ns kind=dup dur=10s p=0.5\n");
  ASSERT_TRUE(plan.ok());

  EventRecorder* rec = EventRecorder::Global();
  ProfiledCluster pc;
  FaultInjector injector(*plan);
  pc.cluster->AttachFaultInjector(&injector);
  injector.Arm();
  RecorderOn on;

  Executor exec(pc.cluster.get());
  ExecOptions opts;
  opts.parallelism = 1;
  opts.query_id = 79;
  auto result = exec.Execute(pc.JoinPlan(), opts);

  injector.Disarm();
  pc.cluster->AttachFaultInjector(nullptr);

  // No leaked open spans, even if the storm (astronomically unlikely)
  // exhausted the retries and failed the query.
  EXPECT_EQ(rec->open_span_count(), 0u);

  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->num_rows(), 300);
  auto p = rec->GetProfile(79);
  ASSERT_NE(p, nullptr);

  // Every receive still links to exactly one send: retries reuse the send
  // record of the delivered attempt, duplicate deliveries are suppressed
  // before anything is recorded.
  EXPECT_GT(p->total_recv_spans, 0);
  EXPECT_EQ(p->linked_recv_spans, p->total_recv_spans);
  std::set<std::tuple<int64_t, int, int, uint64_t>> recv_keys;
  for (const EventRecord& s : p->records) {
    if (s.kind != EventKind::kNetRecv) continue;
    auto key = std::make_tuple(s.link.exchange_id, s.link.from_node,
                               s.link.to_node, s.link.wire_seq);
    EXPECT_TRUE(recv_keys.insert(key).second)
        << "duplicate receive span for one wire batch";
  }
  EXPECT_GE(p->critical_path_coverage, 0.9) << p->ToText();
}

// --- retention -------------------------------------------------------------------

/// Runs the 2-node join as query `qid` and returns its stored profile.
std::shared_ptr<const QueryProfile> RunProfiled(ProfiledCluster* pc,
                                                uint64_t qid) {
  Executor exec(pc->cluster.get());
  ExecOptions opts;
  opts.parallelism = 1;
  opts.query_id = qid;
  auto result = exec.Execute(pc->JoinPlan(), opts);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return EventRecorder::Global()->GetProfile(qid);
}

bool HoldsQuery(const std::vector<EventRecord>& records, uint64_t qid) {
  for (const EventRecord& ev : records) {
    if (ev.query_id == qid && ev.kind == EventKind::kQuery) return true;
  }
  return false;
}

TEST(RetentionTest, UnboundedCaptureKeepsEveryQueryAfterAssembly) {
  ProfiledCluster pc(6000, /*nodes=*/2);
  RecorderOn on;
  ASSERT_NE(RunProfiled(&pc, 101), nullptr);
  ASSERT_NE(RunProfiled(&pc, 102), nullptr);
  // Assembling a profile copies its records out; the capture keeps them.
  std::vector<EventRecord> all = EventRecorder::Global()->Snapshot();
  EXPECT_TRUE(HoldsQuery(all, 101));
  EXPECT_TRUE(HoldsQuery(all, 102));
  EXPECT_EQ(EventRecorder::Global()->overwritten(), 0);
}

TEST(RetentionTest, RingProfilesMatchUnboundedUntilTheRingWraps) {
  ProfiledCluster pc(6000, /*nodes=*/2);
  int64_t unbounded_linked[2] = {0, 0};
  {
    RecorderOn on;
    for (int i = 0; i < 2; ++i) {
      auto p = RunProfiled(&pc, 111 + i);
      ASSERT_NE(p, nullptr);
      EXPECT_EQ(p->overwritten_records, 0);
      unbounded_linked[i] = p->linked_recv_spans;
      EXPECT_GT(unbounded_linked[i], 0);
    }
  }
  {
    // Large enough that nothing is overwritten: back-to-back queries both
    // assemble the same causal links an unbounded capture gives them.
    RecorderOn on(/*ring=*/1 << 20);
    for (int i = 0; i < 2; ++i) {
      auto p = RunProfiled(&pc, 121 + i);
      ASSERT_NE(p, nullptr);
      EXPECT_EQ(p->overwritten_records, 0);
      EXPECT_EQ(p->linked_recv_spans, unbounded_linked[i]);
    }
    EXPECT_EQ(EventRecorder::Global()->overwritten(), 0);
  }
  {
    // Small enough to wrap: the store stays bounded and the profile says
    // how many of its records it lost.
    RecorderOn on(/*ring=*/64);
    auto p = RunProfiled(&pc, 131);
    ASSERT_NE(p, nullptr);
    EXPECT_GT(p->overwritten_records, 0);
    EXPECT_LE(EventRecorder::Global()->size(), 64u);
  }
}

TEST(RetentionTest, FlightRecorderDumpAndPerfettoProfileShareFlowArrows) {
  ProfiledCluster pc(6000, /*nodes=*/2);
  MonitorOptions mopts;
  mopts.enabled = true;
  mopts.port = 0;
  MonitorServer server(mopts);
  ASSERT_TRUE(server.Start().ok());
  RecorderOn on(/*ring=*/1 << 16);
  ASSERT_NE(RunProfiled(&pc, 141), nullptr);

  auto fetch = [&](const char* method, const std::string& target) {
    Result<std::string> raw =
        HttpRoundTrip("127.0.0.1", server.port(), method, target);
    EXPECT_TRUE(raw.ok()) << raw.status().ToString();
    std::string body;
    EXPECT_EQ(ParseHttpResponse(raw.ok() ? raw.value() : "", &body), 200);
    return body;
  };
  for (const std::string& body :
       {fetch("POST", "/flight-recorder/dump"),
        fetch("GET", "/profile/141?format=perfetto")}) {
    EXPECT_EQ(body.find("{\"traceEvents\":["), 0u);
    EXPECT_NE(body.find("\"ph\":\"s\""), std::string::npos);
    EXPECT_NE(body.find("\"ph\":\"f\""), std::string::npos);
  }
  server.Stop();
}

}  // namespace
}  // namespace claims
