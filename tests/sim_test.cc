// Virtual-time cluster simulator tests: event core, single-segment physics
// (speedup curves, bandwidth and contention models), multi-segment pipelines
// with every scheduling policy, and the elastic scheduler's adaptive
// behaviour — the substrate behind the paper's figures (DESIGN.md §1).

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "obs/recorder.h"
#include "sim/event_queue.h"
#include "sim/sim_engine.h"
#include "sim/specs.h"

namespace claims {
namespace {

TEST(EventQueueTest, OrdersByTimeThenFifo) {
  EventQueue q;
  std::vector<int> order;
  q.Schedule(100, [&] { order.push_back(2); });
  q.Schedule(50, [&] { order.push_back(1); });
  q.Schedule(100, [&] { order.push_back(3); });  // same time: FIFO
  while (q.RunNext()) {
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 100);
  EXPECT_EQ(q.events_executed(), 3);
}

TEST(EventQueueTest, ScheduleAfterAndClamping) {
  EventQueue q;
  q.Schedule(100, [&] {
    // An event scheduled in the past fires "now".
    q.Schedule(10, [&] { EXPECT_EQ(q.now(), 100); });
  });
  while (q.RunNext()) {
  }
}

TEST(EventQueueTest, RunUntilStopsAtDeadline) {
  EventQueue q;
  int fired = 0;
  q.Schedule(10, [&] { ++fired; });
  q.Schedule(1000, [&] { ++fired; });
  EXPECT_FALSE(q.RunUntil(500));
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(q.RunUntil(2000));
  EXPECT_EQ(fired, 2);
}

TEST(SimHardwareTest, EffectiveCapacity) {
  SimHardware hw;
  EXPECT_DOUBLE_EQ(hw.EffectiveCapacity(1), 1.0);
  EXPECT_DOUBLE_EQ(hw.EffectiveCapacity(12), 12.0);
  EXPECT_DOUBLE_EQ(hw.EffectiveCapacity(24), 12 + 0.35 * 12);
  EXPECT_DOUBLE_EQ(hw.EffectiveCapacity(48), 12 + 0.35 * 12);  // plateau
}

TEST(CostModelTest, SharedUpdatePenalty) {
  SimCostParams c;
  EXPECT_DOUBLE_EQ(SharedUpdatePenaltyNs(c, 1, 4), 0.0);
  EXPECT_GT(SharedUpdatePenaltyNs(c, 8, 4), SharedUpdatePenaltyNs(c, 2, 4));
  // Large cardinality ⇒ negligible contention (Fig. 8b, S-Q4).
  EXPECT_LT(SharedUpdatePenaltyNs(c, 24, 250'000'000), 0.001);
  EXPECT_DOUBLE_EQ(SharedUpdatePenaltyNs(c, 8, 0), 0.0);
}

// --- micro physics: Fig. 8 shapes -----------------------------------------------

int64_t MicroResponse(SimQuerySpec spec, int parallelism) {
  SimOptions opt;
  opt.num_nodes = 1;
  opt.policy = SimPolicy::kStatic;
  opt.partition_skew_cv = 0;  // pure scalability measurement
  opt.parallelism = parallelism;
  SimRun run(std::move(spec), opt);
  auto m = run.Run();
  EXPECT_TRUE(m.ok()) << m.status().ToString();
  return m.ok() ? m->response_ns : -1;
}

TEST(SimMicroTest, ComputeBoundFilterScalesToHyperThreadKnee) {
  SimCostParams c;
  const int64_t kRows = 3'000'000;
  int64_t t1 = MicroResponse(MicroFilterSpec(true, kRows, c), 1);
  int64_t t12 = MicroResponse(MicroFilterSpec(true, kRows, c), 12);
  int64_t t24 = MicroResponse(MicroFilterSpec(true, kRows, c), 24);
  double s12 = static_cast<double>(t1) / t12;
  double s24 = static_cast<double>(t1) / t24;
  EXPECT_GT(s12, 10.0);   // near-linear to the physical cores
  EXPECT_LT(s12, 12.5);
  EXPECT_GT(s24, s12);    // hyper-threads still help
  EXPECT_LT(s24, 18.0);   // but with the HT knee
}

TEST(SimMicroTest, DataBoundFilterPlateausOnBandwidth) {
  SimCostParams c;
  const int64_t kRows = 3'000'000;
  int64_t t1 = MicroResponse(MicroFilterSpec(false, kRows, c), 1);
  int64_t t8 = MicroResponse(MicroFilterSpec(false, kRows, c), 8);
  int64_t t16 = MicroResponse(MicroFilterSpec(false, kRows, c), 16);
  double s8 = static_cast<double>(t1) / t8;
  double s16 = static_cast<double>(t1) / t16;
  EXPECT_GT(s8, 5.0);
  // Fig. 8a: no improvement past ~8 workers (memory bandwidth).
  EXPECT_LT(s16 / s8, 1.25);
}

TEST(SimMicroTest, SharedAggContentionVsIndependent) {
  SimCostParams c;
  const int64_t kRows = 3'000'000;
  // S-Q3 (4 groups): shared aggregation scales poorly...
  int64_t shared1 = MicroResponse(MicroAggSpec(true, 4, kRows, c), 1);
  int64_t shared12 = MicroResponse(MicroAggSpec(true, 4, kRows, c), 12);
  double shared_speedup = static_cast<double>(shared1) / shared12;
  EXPECT_LT(shared_speedup, 4.0);
  // ... independent aggregation scales well ...
  int64_t ind1 = MicroResponse(MicroAggSpec(false, 4, kRows, c), 1);
  int64_t ind12 = MicroResponse(MicroAggSpec(false, 4, kRows, c), 12);
  EXPECT_GT(static_cast<double>(ind1) / ind12, 9.0);
  // ... and large-cardinality shared (S-Q4) is nearly contention-free.
  int64_t big1 = MicroResponse(MicroAggSpec(true, 250'000'000, kRows, c), 1);
  int64_t big12 = MicroResponse(MicroAggSpec(true, 250'000'000, kRows, c), 12);
  EXPECT_GT(static_cast<double>(big1) / big12, 9.0);
}

TEST(SimMicroTest, JoinPhasesScale) {
  SimCostParams c;
  const int64_t kRows = 3'000'000;
  for (bool build : {true, false}) {
    int64_t t1 = MicroResponse(MicroJoinSpec(build, kRows, c), 1);
    int64_t t12 = MicroResponse(MicroJoinSpec(build, kRows, c), 12);
    EXPECT_GT(static_cast<double>(t1) / t12, 8.5) << "build=" << build;
  }
}

// --- end-to-end pipelines ---------------------------------------------------------

SseSimParams SmallSse() {
  // Big enough that the 50 ms scheduler ticks get tens of adaptation rounds
  // (the paper's queries run for minutes).
  SseSimParams p;
  p.num_nodes = 4;
  p.trades_rows = 240'000'000;
  p.securities_rows = 240'000'000;
  p.result_groups = 2'000'000;
  return p;
}

SimMetrics RunPolicy(SimPolicy policy, int parallelism,
                     double concurrency = 1.0) {
  SseSimParams p = SmallSse();
  SimCostParams c;
  SimOptions opt;
  opt.num_nodes = p.num_nodes;
  opt.policy = policy;
  opt.parallelism = parallelism;
  opt.concurrency_level = concurrency;
  opt.utilization_window_ns = 100'000'000;
  SimRun run(SseQ9Spec(p, c), opt);
  auto m = run.Run();
  EXPECT_TRUE(m.ok()) << SimPolicyName(policy) << ": "
                      << m.status().ToString();
  return m.ok() ? std::move(*m) : SimMetrics{};
}

class SimPolicyTest : public ::testing::TestWithParam<SimPolicy> {};

TEST_P(SimPolicyTest, CompletesAndProducesMetrics) {
  SimMetrics m = RunPolicy(GetParam(), 4, 1.0);
  EXPECT_GT(m.response_ns, 0);
  EXPECT_GT(m.avg_cpu_utilization, 0.0);
  EXPECT_LE(m.avg_cpu_utilization, 1.0);
  EXPECT_GT(m.network_bytes, 0);
  EXPECT_GT(m.peak_memory_bytes, 0);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, SimPolicyTest,
                         ::testing::Values(SimPolicy::kElastic,
                                           SimPolicy::kStatic,
                                           SimPolicy::kMaterialized,
                                           SimPolicy::kImplicit,
                                           SimPolicy::kMorsel,
                                           SimPolicy::kMorselPlus),
                         [](const auto& info) {
                           std::string n = SimPolicyName(info.param);
                           return n == "MDP+" ? "MDPplus" : n;
                         });

TEST(SimPipelineTest, Deterministic) {
  SimMetrics a = RunPolicy(SimPolicy::kElastic, 1);
  SimMetrics b = RunPolicy(SimPolicy::kElastic, 1);
  EXPECT_EQ(a.response_ns, b.response_ns);
  EXPECT_EQ(a.network_bytes, b.network_bytes);
  ASSERT_EQ(a.trace.size(), b.trace.size());
}

TEST(SimPipelineTest, ElasticBeatsBestStatic) {
  SimMetrics ep = RunPolicy(SimPolicy::kElastic, 1);
  int64_t best_sp = INT64_MAX;
  for (int p : {2, 4, 8}) {
    best_sp = std::min(best_sp, RunPolicy(SimPolicy::kStatic, p).response_ns);
  }
  EXPECT_LT(ep.response_ns, best_sp);
}

TEST(SimPipelineTest, MaterializedUsesMostMemory) {
  SimMetrics sp = RunPolicy(SimPolicy::kStatic, 4);
  SimMetrics me = RunPolicy(SimPolicy::kMaterialized, 4);
  // ME holds the full shuffle alongside the join state; pipelined execution
  // streams it (paper Table 4).
  EXPECT_GT(me.peak_memory_bytes, 1.5 * sp.peak_memory_bytes);
  EXPECT_GT(me.response_ns, sp.response_ns);
}

TEST(SimPipelineTest, ElasticExpandsParallelism) {
  SimMetrics m = RunPolicy(SimPolicy::kElastic, 1);
  // The trace must show some segment expanded well beyond 1.
  int max_p = 0;
  for (const SimTracePoint& t : m.trace) {
    for (int p : t.parallelism) max_p = std::max(max_p, p);
  }
  EXPECT_GE(max_p, 4);
}

TEST(SimPipelineTest, ElasticHigherUtilizationThanImplicit) {
  SimMetrics ep = RunPolicy(SimPolicy::kElastic, 1);
  SimMetrics is = RunPolicy(SimPolicy::kImplicit, 1, 1.0);
  // EP shifts cores to whichever phase needs them; IS pins threads to
  // segments. EP must beat IS on both utilization and response time.
  EXPECT_GT(ep.avg_cpu_utilization, is.avg_cpu_utilization);
  EXPECT_LT(ep.response_ns, is.response_ns);
  EXPECT_GE(ep.high_utilization_rate, is.high_utilization_rate);
}

TEST(SimPipelineTest, TimeSharingCausesContextSwitches) {
  SimMetrics c1 = RunPolicy(SimPolicy::kImplicit, 1, 1.0);
  SimMetrics c5 = RunPolicy(SimPolicy::kImplicit, 1, 5.0);
  EXPECT_GT(c5.context_switches_per_sec, c1.context_switches_per_sec);
  EXPECT_GT(c5.cache_miss_ratio, c1.cache_miss_ratio);
}

TEST(SimPipelineTest, SchedulingOverheadOrdering) {
  // Table 5: MDP+ pays more per pickup than MDP; EP schedules far less often.
  SimMetrics mdp = RunPolicy(SimPolicy::kMorsel, 1, 1.0);
  SimMetrics mdpp = RunPolicy(SimPolicy::kMorselPlus, 1, 1.0);
  SimMetrics ep = RunPolicy(SimPolicy::kElastic, 1);
  EXPECT_GT(mdpp.scheduling_overhead, mdp.scheduling_overhead);
  EXPECT_LT(ep.scheduling_overhead, mdpp.scheduling_overhead);
}

TEST(SimPipelineTest, StageSwitchRecorded) {
  SimMetrics m = RunPolicy(SimPolicy::kElastic, 1);
  ASSERT_EQ(m.stage_switch_ns.size(), 3u);  // S1, S2, S3
  EXPECT_EQ(m.stage_switch_ns[0], -1);      // S1 single-stage
  EXPECT_GT(m.stage_switch_ns[1], 0);       // S2 build→probe
  EXPECT_GT(m.stage_switch_ns[2], 0);       // S3 agg→emit
  // S2's probe can only start after S1 finished feeding the build.
  EXPECT_GE(m.stage_switch_ns[1], m.trace.front().t_ns);
}

TEST(SimPipelineTest, InterferenceSlowsQuery) {
  SseSimParams p = SmallSse();
  SimCostParams c;
  SimOptions opt;
  opt.num_nodes = p.num_nodes;
  opt.policy = SimPolicy::kElastic;
  opt.parallelism = 1;
  SimRun base(SseQ9Spec(p, c), opt);
  auto m0 = base.Run();
  ASSERT_TRUE(m0.ok());
  // Fig. 12's interferer: 40 s active / 20 s idle, halving capacity.
  opt.node_capacity_at = [](int64_t t) {
    return (t / 1'000'000'000) % 60 < 40 ? 0.5 : 1.0;
  };
  SimRun interfered(SseQ9Spec(p, c), opt);
  auto m1 = interfered.Run();
  ASSERT_TRUE(m1.ok());
  EXPECT_GT(m1->response_ns, m0->response_ns);
}

TEST(SimPipelineTest, SelectivityProfileShiftsWork) {
  // Fig. 11 setup: zero selectivity for 90% of the scan, then a burst.
  SseSimParams p = SmallSse();
  SimCostParams c;
  SimQuerySpec spec = SseQ9Spec(p, c);
  double flat_sel = spec.segments[0].stages[0].profile.selectivity;
  spec.segments[0].stages[0].profile.selectivity_at =
      [flat_sel](double progress) {
        return progress < 0.9 ? 0.0 : flat_sel / 0.1;
      };
  SimOptions opt;
  opt.num_nodes = p.num_nodes;
  opt.policy = SimPolicy::kElastic;
  opt.parallelism = 1;
  SimRun run(std::move(spec), opt);
  auto m = run.Run();
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  // The join build (S2 stage 0) is starved early: its parallelism must stay
  // low in the first quarter of the trace and rise later.
  ASSERT_GT(m->trace.size(), 8u);
  int early = 0;
  int late = 0;
  for (size_t i = 0; i < m->trace.size() / 4; ++i) {
    early = std::max(early, m->trace[i].parallelism[1]);
  }
  for (size_t i = m->trace.size() / 2; i < m->trace.size(); ++i) {
    late = std::max(late, m->trace[i].parallelism[1]);
  }
  // Early on the join build is starved (selectivity 0 upstream): the
  // scheduler must keep it thin, then grow it when the burst arrives.
  EXPECT_LE(early, 6);
  EXPECT_GT(late, early);
}

TEST(SimPipelineTest, BlockedFractionsStayWithinWorkerTime) {
  // Fig. 11's selectivity step starves the join build, then turns the
  // filter into an over-producer: both kinds of wait, many of them open
  // across ticks. Every fraction a tick audits is a share of the workers'
  // live time.
  SseSimParams p = SmallSse();
  SimCostParams c;
  SimQuerySpec spec = SseQ9Spec(p, c);
  double flat_sel = spec.segments[0].stages[0].profile.selectivity;
  spec.segments[0].stages[0].profile.selectivity_at =
      [flat_sel](double progress) {
        return progress < 0.9 ? 0.0 : flat_sel / 0.1;
      };
  SimOptions opt;
  opt.num_nodes = p.num_nodes;
  opt.policy = SimPolicy::kElastic;
  opt.parallelism = 1;
  EventRecorder* rec = EventRecorder::Global();
  rec->Clear();
  rec->Enable();
  SimRun run(std::move(spec), opt);
  auto m = run.Run();
  rec->Disable();
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  int ticks = 0;
  double max_in = 0;
  double max_out = 0;
  for (const EventRecord& ev : rec->Snapshot()) {
    if (ev.kind != EventKind::kTick) continue;
    ++ticks;
    for (const SchedTickAudit::Segment& s : ev.tick->segments) {
      EXPECT_GE(s.blocked_in, 0.0) << s.name << " tick " << ev.tick->tick;
      EXPECT_GE(s.blocked_out, 0.0) << s.name << " tick " << ev.tick->tick;
      EXPECT_LE(s.blocked_in + s.blocked_out, 1.0)
          << s.name << " tick " << ev.tick->tick;
      max_in = std::max(max_in, s.blocked_in);
      max_out = std::max(max_out, s.blocked_out);
    }
  }
  rec->Clear();
  EXPECT_GT(ticks, 8);
  // The run exercised both signals past the scheduler's threshold.
  EXPECT_GT(max_in, 0.25);
  EXPECT_GT(max_out, 0.25);
}

TEST(SimPipelineTest, CapacityFaultsSlowTheRunDeterministically) {
  // The simulator's chaos subset: a compute straggler plus a degraded NIC,
  // both covering the whole run. The faulted run must be slower than the
  // baseline and its virtual-time fault log byte-identical across runs.
  SseSimParams p = SmallSse();
  SimCostParams c;
  SimOptions opt;
  opt.num_nodes = p.num_nodes;
  opt.policy = SimPolicy::kElastic;
  opt.parallelism = 1;

  SimRun base(SseQ9Spec(p, c), opt);
  auto m0 = base.Run();
  ASSERT_TRUE(m0.ok());
  EXPECT_TRUE(m0->fault_log.empty());

  auto plan = ParseFaultPlan(
      "at=0ns kind=straggle node=1 dur=10000s factor=6\n"
      "at=0ns kind=nic node=2 dur=10000s bps=1000000\n");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  opt.fault_plan = *plan;

  auto faulted = [&] {
    SimRun run(SseQ9Spec(p, c), opt);
    auto m = run.Run();
    EXPECT_TRUE(m.ok()) << m.status().ToString();
    return m.ok() ? std::move(*m) : SimMetrics{};
  };
  SimMetrics m1 = faulted();
  SimMetrics m2 = faulted();
  EXPECT_GT(m1.response_ns, m0->response_ns);
  EXPECT_FALSE(m1.fault_log.empty());
  EXPECT_EQ(m1.fault_log, m2.fault_log);
  EXPECT_EQ(m1.response_ns, m2.response_ns);
  EXPECT_NE(m1.fault_log.find("kind=straggle"), std::string::npos);
  EXPECT_NE(m1.fault_log.find("kind=nic"), std::string::npos);
}

TEST(SimSpecsTest, TpchProfilesExist) {
  for (int q : {1, 2, 3, 5, 6, 7, 8, 9, 10, 12, 14}) {
    auto p = TpchProfileFor(q);
    ASSERT_TRUE(p.ok()) << q;
    SimCostParams c;
    SimQuerySpec spec = TpchSpec(*p, 10, c);
    EXPECT_GE(spec.segments.size(), 1u);
  }
  EXPECT_FALSE(TpchProfileFor(4).ok());
}

TEST(SimSpecsTest, TpchSpecRunsUnderElastic) {
  auto p = TpchProfileFor(14);
  ASSERT_TRUE(p.ok());
  // Scale down for the unit test.
  p->probe_rows_per_node /= 100;
  for (auto& b : p->builds) b.rows_per_node /= 100;
  p->groups = std::max<int64_t>(1, p->groups / 100);
  SimCostParams c;
  SimOptions opt;
  opt.num_nodes = 4;
  opt.policy = SimPolicy::kElastic;
  SimRun run(TpchSpec(*p, 4, c), opt);
  auto m = run.Run();
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  EXPECT_GT(m->response_ns, 0);
}

// --- multi-query interference (the workload manager's scenario) ---------------

TEST(SimWorkloadTest, CombineSpecsNamespacesExchanges) {
  SimCostParams c;
  SimQuerySpec a = MicroJoinSpec(false, 1'000'000, c);
  SimQuerySpec b = MicroJoinSpec(false, 1'000'000, c);
  SimQuerySpec combined = CombineSpecs({a, b});
  ASSERT_EQ(combined.segments.size(), a.segments.size() + b.segments.size());
  // Final segments of both queries drain into the shared collector; every
  // other exchange id is unique across the merged workload.
  std::multiset<int> outs;
  for (const SimSegmentSpec& seg : combined.segments) {
    outs.insert(seg.out_exchange);
  }
  EXPECT_EQ(outs.count(combined.result_exchange), 2u);
  for (int id : outs) {
    if (id != combined.result_exchange) {
      EXPECT_EQ(outs.count(id), 1u);
    }
  }
}

TEST(SimWorkloadTest, ConcurrentQueriesShareTheNode) {
  SimCostParams c;
  const int64_t kRows = 3'000'000;
  auto respond = [](SimQuerySpec spec) {
    SimOptions opt;
    opt.num_nodes = 1;
    opt.policy = SimPolicy::kElastic;
    opt.parallelism = 1;
    opt.partition_skew_cv = 0;
    SimRun run(std::move(spec), opt);
    auto m = run.Run();
    EXPECT_TRUE(m.ok()) << m.status().ToString();
    return m.ok() ? m->response_ns : -1;
  };
  int64_t cpu_solo = respond(MicroFilterSpec(true, kRows, c));
  int64_t mem_solo = respond(MicroFilterSpec(false, kRows, c));
  // Different bottlenecks overlap: a bandwidth-bound filter hides inside a
  // compute-bound one's runtime, so the pair beats back-to-back execution.
  int64_t mixed = respond(CombineSpecs(
      {MicroFilterSpec(true, kRows, c), MicroFilterSpec(false, kRows, c)}));
  EXPECT_GE(mixed, std::max(cpu_solo, mem_solo));
  EXPECT_LT(mixed, cpu_solo + mem_solo);
  // The same bottleneck contends: two compute-bound filters split the cores
  // and take visibly longer than one (unlike the hidden bandwidth query),
  // yet stay under serial time because their elastic ramp-ups overlap.
  int64_t twin = respond(CombineSpecs(
      {MicroFilterSpec(true, kRows, c), MicroFilterSpec(true, kRows, c)}));
  EXPECT_GT(twin, 1.2 * cpu_solo);
  EXPECT_LT(twin, 2.5 * cpu_solo);
}

TEST(SimWorkloadTest, CombinedWorkloadDeterministic) {
  SimCostParams c;
  auto run_once = [&] {
    SimOptions opt;
    opt.num_nodes = 1;
    opt.policy = SimPolicy::kElastic;
    opt.parallelism = 1;
    SimRun run(CombineSpecs({MicroFilterSpec(true, 1'000'000, c),
                             MicroAggSpec(false, 4, 1'000'000, c)}),
               opt);
    auto m = run.Run();
    EXPECT_TRUE(m.ok()) << m.status().ToString();
    return m.ok() ? m->response_ns : -1;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace claims
