// Workload-manager tests: admission budgets, priority/backpressure/deadline
// semantics of the QueryService, the closed/open-loop driver, and the
// headline acceptance scenario — a concurrent TPC-H stream whose per-query
// results must be identical to serial execution.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <thread>

#include "common/string_util.h"

#include "engine/database.h"
#include "engine/workloads.h"
#include "fault/injector.h"
#include "ledger_balance_check.h"
#include "mem/block_pool.h"
#include "net/socket_util.h"
#include "wlm/driver/workload_driver.h"
#include "wlm/introspection.h"
#include "wlm/query_service.h"

namespace claims {
namespace {

/// Row-set equality up to floating-point summation order: parallel (and
/// elastic) aggregation adds doubles in nondeterministic order, so sums match
/// serial execution only to within ulps. Everything else must be exact.
void ExpectRowsEquivalent(const std::vector<std::vector<Value>>& got,
                          const std::vector<std::vector<Value>>& want,
                          const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t r = 0; r < got.size(); ++r) {
    ASSERT_EQ(got[r].size(), want[r].size()) << label << " row " << r;
    for (size_t c = 0; c < got[r].size(); ++c) {
      const Value& a = got[r][c];
      const Value& b = want[r][c];
      if (a.type() == DataType::kFloat64 && b.type() == DataType::kFloat64) {
        EXPECT_NEAR(a.AsFloat64(), b.AsFloat64(),
                    1e-9 * std::max(1.0, std::abs(b.AsFloat64())))
            << label << " row " << r << " col " << c;
      } else {
        EXPECT_TRUE(a == b)
            << label << " row " << r << " col " << c << ": " << a.ToString()
            << " vs " << b.ToString();
      }
    }
  }
}

// --- admission controller ------------------------------------------------------

TEST(AdmissionTest, MplGate) {
  AdmissionOptions opts;
  opts.max_concurrent = 2;
  AdmissionController ac(opts);
  QueryDemand d;
  AdmissionReservation r[4];
  EXPECT_TRUE(ac.TryAdmit(d, &r[0]));
  EXPECT_TRUE(ac.TryAdmit(d, &r[1]));
  EXPECT_FALSE(ac.TryAdmit(d, &r[2]));
  EXPECT_FALSE(r[2].active);
  ac.Release(&r[0]);
  EXPECT_TRUE(ac.TryAdmit(d, &r[3]));
  EXPECT_EQ(ac.running(), 2);
}

TEST(AdmissionTest, CoreAndMemoryBudgets) {
  AdmissionOptions opts;
  opts.max_concurrent = 100;
  opts.core_budget = 10;
  opts.memory_budget_bytes = 1000;
  AdmissionController ac(opts);
  QueryDemand small{4, 400};
  QueryDemand big{8, 100};
  QueryDemand hungry{1, 700};
  AdmissionReservation first;
  AdmissionReservation second;
  AdmissionReservation refused;
  ASSERT_TRUE(ac.TryAdmit(small, &first));
  EXPECT_FALSE(ac.TryAdmit(big, &refused));     // 4+8 > 10 cores
  EXPECT_FALSE(ac.TryAdmit(hungry, &refused));  // 400+700 > 1000 bytes
  ASSERT_TRUE(ac.TryAdmit(small, &second));     // 8 cores, 800 bytes: fits
  EXPECT_EQ(ac.cores_in_flight(), 8);
  EXPECT_EQ(ac.memory_in_flight(), 800);
  ac.Release(&first);
  ac.Release(&second);
  EXPECT_EQ(ac.running(), 0);
  EXPECT_EQ(ac.cores_in_flight(), 0);
  EXPECT_EQ(ac.memory_in_flight(), 0);
}

TEST(AdmissionTest, IdleSystemAdmitsOversizedQuery) {
  AdmissionOptions opts;
  opts.max_concurrent = 4;
  opts.core_budget = 2;
  AdmissionController ac(opts);
  QueryDemand whale{64, 0};
  AdmissionReservation r;
  AdmissionReservation refused;
  EXPECT_TRUE(ac.TryAdmit(whale, &r));  // would starve otherwise
  EXPECT_EQ(r.cores, 2);                // booked clamped at the budget
  EXPECT_FALSE(ac.TryAdmit(whale, &refused));
  ac.Release(&r);
  EXPECT_EQ(ac.cores_in_flight(), 0);
  EXPECT_TRUE(ac.TryAdmit(whale, &r));
}

// --- query service on a live cluster -------------------------------------------

/// 4-node in-process cluster with TPC-H loaded. `slow` knobs: queries over
/// lineitem at parallelism 1 with tight buffers run for hundreds of ms —
/// long enough to observe QUEUED/RUNNING states and cancel mid-stream.
class WlmTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DatabaseOptions options;
    options.cluster.num_nodes = 4;
    options.cluster.cores_per_node = 8;
    db_ = new Database(options);
    ASSERT_TRUE(db_->LoadTpch({.scale_factor = 0.02}).ok());
  }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }

  static PhysicalPlan PlanSql(std::string_view sql) {
    auto plan = db_->Plan(sql);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    return std::move(*plan);
  }

  /// A query that keeps the cluster busy for a while at low parallelism
  /// (lineitem self-join on the supplier key, ~18 M joined rows: 0.25-0.35 s
  /// at parallelism 1 on this fixture). The tests below must still see it
  /// running after 50 ms and across scheduler ticks, even with every other
  /// test binary competing for the cores.
  static PhysicalPlan SlowPlan() {
    return PlanSql(
        "SELECT a.l_suppkey, count(*) FROM lineitem a, lineitem b "
        "WHERE a.l_suppkey = b.l_suppkey AND b.l_linenumber = 1 "
        "GROUP BY a.l_suppkey");
  }
  static SubmitOptions SlowOptions() {
    SubmitOptions s;
    s.exec.parallelism = 1;
    s.exec.buffer_capacity_blocks = 2;
    return s;
  }

  static Database* db_;
};

Database* WlmTest::db_ = nullptr;

TEST_F(WlmTest, SingleQueryMatchesDirectExecution) {
  const std::string_view sql = "SELECT count(*) FROM lineitem";
  auto direct = db_->Query(sql);
  ASSERT_TRUE(direct.ok());

  QueryService service(db_->cluster(), {});
  QueryHandlePtr h = service.Submit(PlanSql(sql));
  h->Wait();
  ASSERT_TRUE(h->status().ok()) << h->status().ToString();
  EXPECT_EQ(h->state(), QueryState::kDone);
  EXPECT_EQ(h->result().Rows(true), direct->Rows(true));
  EXPECT_GT(h->latency_ns(), 0);
  EXPECT_GE(h->queue_wait_ns(), 0);
  // The report carries the queue/run split (EXPLAIN ANALYZE satellite).
  EXPECT_EQ(h->report().queue_wait_ns, h->queue_wait_ns());
  service.Shutdown();
}

TEST_F(WlmTest, PriorityOrdersQueuedDispatch) {
  QueryServiceOptions opts;
  opts.admission.max_concurrent = 1;
  opts.workers = 1;
  QueryService service(db_->cluster(), opts);

  // Occupy the single slot, then line up a low- and a high-priority query.
  QueryHandlePtr blocker = service.Submit(SlowPlan(), SlowOptions());
  SubmitOptions low;
  low.priority = 0;
  SubmitOptions high;
  high.priority = 5;
  const std::string_view sql = "SELECT count(*) FROM orders";
  QueryHandlePtr q_low = service.Submit(PlanSql(sql), low);
  QueryHandlePtr q_high = service.Submit(PlanSql(sql), high);
  EXPECT_EQ(q_low->state(), QueryState::kQueued);

  q_high->Wait();
  q_low->Wait();
  // The high-priority query ran while the low one was still waiting behind
  // it (MPL 1 serializes, priority picks the order): the low one was
  // dispatched only once the high one had finished. Read off the handles'
  // clocks, not off the low one's state when the high one's Wait returns:
  // on a loaded machine the short low query can finish before that check.
  EXPECT_GE(q_low->submit_ns() + q_low->queue_wait_ns(),
            q_high->submit_ns() + q_high->latency_ns());
  blocker->Wait();
  EXPECT_TRUE(blocker->status().ok()) << blocker->status().ToString();
  EXPECT_TRUE(q_high->status().ok());
  EXPECT_TRUE(q_low->status().ok());
  EXPECT_GT(q_low->queue_wait_ns(), 0);
  service.Shutdown();
}

TEST_F(WlmTest, CancelQueuedQueryNeverRuns) {
  QueryServiceOptions opts;
  opts.admission.max_concurrent = 1;
  opts.workers = 1;
  QueryService service(db_->cluster(), opts);
  QueryHandlePtr blocker = service.Submit(SlowPlan(), SlowOptions());
  QueryHandlePtr queued = service.Submit(PlanSql("SELECT count(*) FROM part"));
  queued->Cancel();
  queued->Wait();
  EXPECT_EQ(queued->status().code(), StatusCode::kCancelled);
  EXPECT_EQ(queued->report().elapsed_ns, 0);  // never dispatched
  blocker->Cancel();
  blocker->Wait();
  service.Shutdown();
}

TEST_F(WlmTest, CancelRunningQueryAbortsMidStream) {
  QueryService service(db_->cluster(), {});
  QueryHandlePtr h = service.Submit(SlowPlan(), SlowOptions());
  // Let it reach RUNNING, then cancel.
  while (h->state() == QueryState::kQueued) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  h->Cancel();
  h->Wait();
  EXPECT_EQ(h->status().code(), StatusCode::kCancelled);
  service.Shutdown();
}

TEST_F(WlmTest, DeadlineExpiresWhileQueued) {
  QueryServiceOptions opts;
  opts.admission.max_concurrent = 1;
  opts.workers = 1;
  QueryService service(db_->cluster(), opts);
  QueryHandlePtr blocker = service.Submit(SlowPlan(), SlowOptions());
  SubmitOptions impatient;
  impatient.timeout_ns = 30'000'000;  // 30 ms — far under the blocker
  QueryHandlePtr queued =
      service.Submit(PlanSql("SELECT count(*) FROM part"), impatient);
  queued->Wait();
  EXPECT_EQ(queued->status().code(), StatusCode::kDeadlineExceeded);
  blocker->Cancel();
  blocker->Wait();
  service.Shutdown();
}

TEST_F(WlmTest, DeadlineExpiresWhileRunning) {
  // Every exchange send stalls for a minute, so the query cannot finish
  // before its deadline however fast the machine is. The stall is
  // cancellable: the deadline's cancellation is what ends the run.
  auto faults = ParseFaultPlan("kind=delay delay=60s\n");
  ASSERT_TRUE(faults.ok());
  FaultInjector injector(*faults);
  injector.ArmManual();
  injector.PollOnce();  // the stall is in force before the query starts
  db_->cluster()->AttachFaultInjector(&injector);
  QueryService service(db_->cluster(), {});
  SubmitOptions impatient = SlowOptions();
  impatient.timeout_ns = 100'000'000;
  QueryHandlePtr h = service.Submit(SlowPlan(), impatient);
  h->Wait();
  service.Shutdown();
  db_->cluster()->AttachFaultInjector(nullptr);
  EXPECT_EQ(h->status().code(), StatusCode::kDeadlineExceeded);
}

TEST_F(WlmTest, BackpressureBlocksSubmitter) {
  QueryServiceOptions opts;
  opts.admission.max_concurrent = 1;
  opts.workers = 1;
  opts.max_queue_depth = 1;
  QueryService service(db_->cluster(), opts);
  QueryHandlePtr blocker = service.Submit(SlowPlan(), SlowOptions());
  QueryHandlePtr queued = service.Submit(PlanSql("SELECT count(*) FROM part"));

  std::atomic<bool> third_submitted{false};
  std::thread submitter([&] {
    QueryHandlePtr h = service.Submit(PlanSql("SELECT count(*) FROM part"));
    third_submitted.store(true);
    h->Wait();
  });
  // The queue is full: the third submission must still be blocked.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(third_submitted.load());
  // Draining the queue head unblocks it.
  queued->Cancel();
  blocker->Cancel();
  submitter.join();
  EXPECT_TRUE(third_submitted.load());
  service.Shutdown();
}

TEST_F(WlmTest, ShutdownCancelsEverything) {
  QueryServiceOptions opts;
  opts.admission.max_concurrent = 1;
  opts.workers = 1;
  QueryService service(db_->cluster(), opts);
  QueryHandlePtr running = service.Submit(SlowPlan(), SlowOptions());
  QueryHandlePtr queued = service.Submit(SlowPlan(), SlowOptions());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  service.Shutdown(/*cancel_pending=*/true);
  EXPECT_EQ(running->state(), QueryState::kDone);
  EXPECT_EQ(queued->status().code(), StatusCode::kCancelled);
  // Post-shutdown submissions complete immediately as cancelled.
  QueryHandlePtr late = service.Submit(PlanSql("SELECT count(*) FROM part"));
  EXPECT_EQ(late->status().code(), StatusCode::kCancelled);
}

// --- the acceptance scenario ---------------------------------------------------

TEST_F(WlmTest, ConcurrentTpchStreamMatchesSerialExecution) {
  // Serial baselines first (one at a time, the pre-wlm path).
  std::vector<int> numbers;
  std::vector<std::string_view> sqls;
  std::vector<std::vector<std::vector<Value>>> serial;
  for (int n : SupportedTpchQueries()) {
    auto sql = TpchQuery(n);
    ASSERT_TRUE(sql.ok());
    auto r = db_->Query(*sql);
    ASSERT_TRUE(r.ok()) << "Q" << n << ": " << r.status().ToString();
    numbers.push_back(n);
    sqls.push_back(*sql);
    serial.push_back(r->Rows(true));
  }

  // 32 queries at MPL 8 over the 4-node cluster, all executors concurrent.
  QueryServiceOptions opts;
  opts.admission.max_concurrent = 8;
  opts.admission.core_budget =
      db_->cluster()->num_nodes() * db_->cluster()->options().cores_per_node;
  QueryService service(db_->cluster(), opts);

  // Budget invariant sampler: at every point while the stream runs, the
  // admission ledger never over-commits its core budget, and MPL holds.
  // (Per-node worker counts may transiently exceed cores_per_node at query
  // launch — segments start at plan parallelism; the DynamicScheduler caps
  // its own expansions at the node's cores and shrinks the rest.)
  std::atomic<bool> stop_sampler{false};
  std::atomic<bool> budget_violated{false};
  std::thread sampler([&] {
    while (!stop_sampler.load()) {
      if (service.admission()->cores_in_flight() >
              opts.admission.core_budget ||
          service.admission()->running() > opts.admission.max_concurrent) {
        budget_violated.store(true);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  const int kTotal = 32;
  std::vector<QueryHandlePtr> handles;
  for (int i = 0; i < kTotal; ++i) {
    size_t which = static_cast<size_t>(i) % numbers.size();
    SubmitOptions submit;
    submit.label = "tpch-q" + std::to_string(numbers[which]);
    submit.priority = i % 3;
    handles.push_back(service.Submit(PlanSql(sqls[which]), submit));
  }
  for (int i = 0; i < kTotal; ++i) {
    handles[static_cast<size_t>(i)]->Wait();
    const QueryHandle& h = *handles[static_cast<size_t>(i)];
    ASSERT_TRUE(h.status().ok())
        << h.label() << ": " << h.status().ToString();
    ExpectRowsEquivalent(h.result().Rows(true),
                         serial[static_cast<size_t>(i) % serial.size()],
                         h.label());
  }
  stop_sampler.store(true);
  sampler.join();
  EXPECT_FALSE(budget_violated.load());
  EXPECT_EQ(service.admission()->running(), 0);
  service.Shutdown();
}

// --- the workload driver -------------------------------------------------------

TEST_F(WlmTest, ClosedLoopDriverReportsPercentiles) {
  QueryServiceOptions opts;
  opts.admission.max_concurrent = 4;
  QueryService service(db_->cluster(), opts);
  WorkloadOptions wl;
  wl.mode = ArrivalMode::kClosed;
  wl.total_queries = 12;
  wl.mpl = 4;
  wl.submit.label = "closed";
  wl.make_plan = [](int) { return PlanSql("SELECT count(*) FROM orders"); };
  WorkloadReport report = WorkloadDriver(&service, wl).Run();
  EXPECT_EQ(report.total, 12);
  EXPECT_EQ(report.succeeded, 12);
  EXPECT_GT(report.throughput_qps, 0);
  EXPECT_LE(report.p50_latency_ns, report.p95_latency_ns);
  EXPECT_LE(report.p95_latency_ns, report.p99_latency_ns);
  EXPECT_LE(report.p99_latency_ns, report.max_latency_ns);
  EXPECT_NE(report.ToString().find("latency"), std::string::npos);
  EXPECT_NE(report.ToJson().find("\"p99_latency_ms\""), std::string::npos);
  service.Shutdown();
}

TEST(BucketTimelineTest, KeepsInteriorStallBucketsAndComputesP99) {
  // Completions at 0.1 s, 0.2 s, then a 2-second stall, then 2.5 s: the
  // interior empty buckets must survive (a stall shows as a dip, not get
  // elided) and each bucket's p99 covers only its own successes.
  std::vector<CompletionSample> done = {
      {100'000'000, 10'000'000, true},
      {200'000'000, 20'000'000, true},
      {2'500'000'000, 30'000'000, true},
      {2'600'000'000, 40'000'000, false},  // failure: counted, no latency
  };
  std::vector<TimelinePoint> tl = BucketTimeline(done, 1'000'000'000);
  ASSERT_EQ(tl.size(), 3u);
  EXPECT_EQ(tl[0].completed, 2);
  EXPECT_DOUBLE_EQ(tl[0].qps, 2.0);
  EXPECT_DOUBLE_EQ(tl[0].p99_ms, 20.0);
  EXPECT_EQ(tl[1].completed, 0);  // the stall bucket
  EXPECT_DOUBLE_EQ(tl[1].p99_ms, 0.0);
  EXPECT_EQ(tl[2].completed, 2);
  EXPECT_DOUBLE_EQ(tl[2].p99_ms, 30.0);  // failure excluded from latency
  EXPECT_TRUE(BucketTimeline({}, 1'000'000'000).empty());
}

TEST_F(WlmTest, ClosedLoopDriverCollectsTimeline) {
  QueryServiceOptions opts;
  opts.admission.max_concurrent = 4;
  QueryService service(db_->cluster(), opts);
  WorkloadOptions wl;
  wl.mode = ArrivalMode::kClosed;
  wl.total_queries = 8;
  wl.mpl = 4;
  wl.timeline = true;
  wl.timeline_period_ns = 1'000'000;  // 1 ms buckets for a fast run
  wl.make_plan = [](int) { return PlanSql("SELECT count(*) FROM orders"); };
  WorkloadReport report = WorkloadDriver(&service, wl).Run();
  EXPECT_EQ(report.succeeded, 8);
  ASSERT_FALSE(report.timeline.empty());
  int completed = 0;
  for (const TimelinePoint& p : report.timeline) completed += p.completed;
  EXPECT_EQ(completed, 8);
  EXPECT_NE(report.ToJson().find("\"timeline\":["), std::string::npos);
  EXPECT_NE(report.TimelineToString().find("qps"), std::string::npos);
  service.Shutdown();
}

TEST_F(WlmTest, OpenLoopDriverRunsPoissonArrivals) {
  QueryServiceOptions opts;
  opts.admission.max_concurrent = 4;
  opts.max_queue_depth = 8;  // backpressure throttles the arrival thread
  QueryService service(db_->cluster(), opts);
  WorkloadOptions wl;
  wl.mode = ArrivalMode::kOpen;
  wl.total_queries = 10;
  wl.arrival_rate_qps = 200;
  wl.seed = 7;
  wl.make_plan = [](int) { return PlanSql("SELECT count(*) FROM part"); };
  wl.priority_of = [](int seq) { return seq % 2; };
  WorkloadReport report = WorkloadDriver(&service, wl).Run();
  EXPECT_EQ(report.succeeded, 10);
  EXPECT_GE(report.p99_queue_wait_ns, report.p50_queue_wait_ns);
  service.Shutdown();
}

// --- live introspection plane -------------------------------------------------

TEST_F(WlmTest, ListQueriesTracksLifecycle) {
  QueryServiceOptions opts;
  opts.admission.max_concurrent = 1;
  QueryService service(db_->cluster(), opts);
  QueryHandlePtr running = service.Submit(SlowPlan(), SlowOptions());
  QueryHandlePtr queued = service.Submit(PlanSql("SELECT count(*) FROM part"));
  while (running->state() == QueryState::kQueued) {
    std::this_thread::yield();
  }

  bool saw_running = false, saw_queued = false;
  for (const QueryInfo& q : service.ListQueries()) {
    if (q.id == running->id()) {
      saw_running = true;
      EXPECT_EQ(q.state, QueryState::kRunning);
      EXPECT_GT(q.run_ns, 0);
      EXPECT_TRUE(q.status.empty());
    }
    if (q.id == queued->id()) {
      saw_queued = true;
      EXPECT_EQ(q.state, QueryState::kQueued);
      EXPECT_EQ(q.run_ns, 0);
      EXPECT_GT(q.queue_wait_ns, 0);  // so-far wait, ticking
    }
  }
  EXPECT_TRUE(saw_running);
  EXPECT_TRUE(saw_queued);

  running->Wait();
  queued->Wait();
  // Both land in the recent-completions ring with terminal status.
  int done_seen = 0;
  for (const QueryInfo& q : service.ListQueries()) {
    if (q.id != running->id() && q.id != queued->id()) continue;
    EXPECT_EQ(q.state, QueryState::kDone);
    EXPECT_FALSE(q.status.empty());
    ++done_seen;
  }
  EXPECT_EQ(done_seen, 2);
  // The slow query emitted tuples and its totals stayed latched post-run.
  EXPECT_GT(running->progress().tuples_emitted, 0);
  EXPECT_FALSE(running->progress().executing);
  service.Shutdown();
}

TEST_F(WlmTest, IntrospectionEndpointsServeLiveJson) {
  QueryService service(db_->cluster(), {});
  IntrospectionOptions options;
  options.monitor.enabled = true;
  options.monitor.port = 0;
  IntrospectionPlane plane(&service, options);
  ASSERT_TRUE(plane.Start().ok());
  ASSERT_GT(plane.monitor()->port(), 0);

  QueryHandlePtr h = service.Submit(SlowPlan(), SlowOptions());
  Result<std::string> raw = HttpRoundTrip(
      "127.0.0.1", plane.monitor()->port(), "GET", "/queries");
  ASSERT_TRUE(raw.ok()) << raw.status().ToString();
  std::string body;
  ASSERT_EQ(ParseHttpResponse(raw.value(), &body), 200);
  EXPECT_EQ(body.front(), '{');
  EXPECT_EQ(body.back(), '}');
  EXPECT_NE(body.find("\"queries\":["), std::string::npos);
  EXPECT_NE(body.find("\"admission\":"), std::string::npos);
  EXPECT_NE(body.find(StrFormat("\"id\":%llu",
                                static_cast<unsigned long long>(h->id()))),
            std::string::npos);

  raw = HttpRoundTrip("127.0.0.1", plane.monitor()->port(), "GET",
                      "/scheduler");
  ASSERT_TRUE(raw.ok()) << raw.status().ToString();
  ASSERT_EQ(ParseHttpResponse(raw.value(), &body), 200);
  EXPECT_NE(body.find("\"nodes\":["), std::string::npos);
  EXPECT_NE(body.find("\"cores_in_use\":"), std::string::npos);
  EXPECT_NE(body.find("\"global_lambda\":"), std::string::npos);

  h->Wait();
  plane.Stop();
  service.Shutdown();
}

TEST_F(WlmTest, SchedulerLastAuditSeesRunningSegments) {
  QueryService service(db_->cluster(), {});
  QueryHandlePtr h = service.Submit(SlowPlan(), SlowOptions());
  while (h->state() == QueryState::kQueued) std::this_thread::yield();

  // Within a few scheduler periods the latest audit shows the query's live
  // segments, recorder off: every execution carries its query id.
  bool saw_segments = false;
  for (int attempt = 0; attempt < 200 && !saw_segments; ++attempt) {
    for (int node = 0; node < db_->cluster()->num_nodes(); ++node) {
      DynamicScheduler* sched = db_->cluster()->scheduler(node);
      std::shared_ptr<const SchedTickAudit> last = sched->LastAudit();
      if (last != nullptr && !last->segments.empty()) {
        saw_segments = true;
        EXPECT_GT(sched->tick_count(), 0);
        EXPECT_GE(sched->cores_in_use(), 0);
        EXPECT_LE(sched->cores_in_use(), sched->options().num_cores);
        EXPECT_EQ(last->segments[0].query_id, h->id());
      }
    }
    if (h->state() == QueryState::kDone) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(saw_segments);
  h->Wait();
  service.Shutdown();
}

TEST_F(WlmTest, IntrospectionWatchdogProbesStayQuietOnHealthyRuns) {
  QueryService service(db_->cluster(), {});
  IntrospectionOptions options;
  options.enable_watchdog = true;
  options.watchdog.incident_dir = ::testing::TempDir();
  // Generous window: a healthy run must never trip it.
  options.watchdog.stall_window_ns = 60'000'000'000;
  IntrospectionPlane plane(&service, options);  // monitor stays disabled
  ASSERT_TRUE(plane.Start().ok());
  EXPECT_FALSE(plane.monitor()->running());
  EXPECT_TRUE(plane.watchdog()->running());

  QueryHandlePtr h = service.Submit(SlowPlan(), SlowOptions());
  EXPECT_EQ(plane.watchdog()->PollOnce(), 0);
  h->Wait();
  EXPECT_EQ(plane.watchdog()->PollOnce(), 0);
  EXPECT_EQ(plane.watchdog()->incident_count(), 0);
  plane.Stop();
  EXPECT_FALSE(plane.watchdog()->running());
  service.Shutdown();
}

TEST_F(WlmTest, WatchdogQuietWhileStaticQueryLeavesLoopsParked) {
  // An SP query registers nothing with the dynamic schedulers, so every
  // node's control loop stays parked and its tick count frozen for the whole
  // run. That is an idle loop, not a stalled one: no tick probe may fire.
  // A 10 ms stall on every exchange send stretches the scan well past the
  // 200 ms window on any machine, while its tuples keep flowing.
  auto faults = ParseFaultPlan("kind=delay delay=10ms\n");
  ASSERT_TRUE(faults.ok());
  FaultInjector injector(*faults);
  injector.ArmManual();
  injector.PollOnce();
  QueryService service(db_->cluster(), {});
  IntrospectionOptions options;
  options.enable_watchdog = true;
  options.watchdog.incident_dir = ::testing::TempDir();
  options.watchdog.stall_window_ns = 200'000'000;
  options.watchdog.poll_period_ns = 20'000'000;
  IntrospectionPlane plane(&service, options);
  ASSERT_TRUE(plane.Start().ok());

  SubmitOptions sp = SlowOptions();
  sp.exec.mode = ExecMode::kStatic;
  sp.exec.collect_result = false;
  db_->cluster()->AttachFaultInjector(&injector);
  QueryHandlePtr h = service.Submit(
      PlanSql("SELECT l_orderkey, l_quantity FROM lineitem"), sp);
  h->Wait();
  db_->cluster()->AttachFaultInjector(nullptr);
  EXPECT_TRUE(h->status().ok()) << h->status().ToString();
  EXPECT_GT(h->latency_ns(), 3 * options.watchdog.stall_window_ns);
  EXPECT_EQ(plane.watchdog()->incident_count(), 0);
  plane.Stop();
  service.Shutdown();
}

TEST_F(WlmTest, RetainedHandlesHoldResultsNotOperatorState) {
  // The service keeps its recent handles, and each handle its Executor with
  // the segments the report reads. A drained segment must already have freed
  // its operator state (hash tables, arenas, bucket arrays): holding N
  // finished handles may keep N results in the pool, not N queries' tables.
  QueryService service(db_->cluster(), {});
  auto run = [&] {
    QueryHandlePtr h = service.Submit(
        PlanSql("SELECT l_partkey, count(*), sum(l_quantity) FROM lineitem "
                "GROUP BY l_partkey"));
    h->Wait();
    EXPECT_TRUE(h->status().ok()) << h->status().ToString();
    return h;
  };
  std::vector<QueryHandlePtr> held = {run()};  // warm-up
  const int64_t before = BlockPool::Global()->GetStats().live_bytes;
  int64_t result_bytes = 0;
  for (int i = 0; i < 6; ++i) {
    held.push_back(run());
    for (const BlockPtr& b : held.back()->result().blocks()) {
      result_bytes += b->capacity_bytes();
    }
  }
  ASSERT_GT(result_bytes, 0);
  const int64_t growth = BlockPool::Global()->GetStats().live_bytes - before;
  // Size-class rounding at most doubles a result block's footprint.
  EXPECT_LE(growth, 2 * result_bytes)
      << "live pool bytes grew " << growth << " for " << result_bytes
      << " bytes of held results";
  service.Shutdown();
}

// --- per-query memory under the service ------------------------------------------

/// TPC-H SF 0.05 on 2 nodes x 2 cores, with the solo peak range and remote
/// bytes of Q6 (small: scan, filter, scalar aggregate) and Q9 (several MB of
/// join state and shuffles) taken from serial Database::Query runs on the
/// same cluster.
class WlmPeakMemoryTest : public ::testing::Test {
 protected:
  struct Range {
    int64_t lo = INT64_MAX;
    int64_t hi = 0;
    /// Bytes the query ships between nodes: fixed by the plan and the data,
    /// so every solo run reports the same figure.
    int64_t remote_bytes = -1;
  };

  static void SetUpTestSuite() {
    DatabaseOptions options;
    options.cluster.num_nodes = 2;
    options.cluster.cores_per_node = 2;
    db_ = new Database(options);
    ASSERT_TRUE(db_->LoadTpch({.scale_factor = 0.05}).ok());
    for (int q : {6, 9}) {
      Range& range = q == 6 ? q6_ : q9_;
      for (int run = 0; run < 3; ++run) {
        ASSERT_TRUE(db_->Query(*TpchQuery(q)).ok());
        const ExecutionReport& report = db_->executor()->report();
        range.lo = std::min(range.lo, report.peak_memory_bytes);
        range.hi = std::max(range.hi, report.peak_memory_bytes);
        if (run > 0) {
          ASSERT_EQ(report.remote_bytes, range.remote_bytes);
        }
        range.remote_bytes = report.remote_bytes;
      }
    }
  }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }

  static PhysicalPlan Plan(int q) {
    auto plan = db_->Plan(*TpchQuery(q));
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    return std::move(plan).value();
  }

  /// The peak within the solo run-to-run range, widened 2x each way for
  /// scheduling noise (a block more or less in flight), and the remote bytes
  /// exactly the solo figure. Reading another query's bytes overshoots both:
  /// a cluster-wide peak put Q6 at 5.96 MB against 0.50 MB solo, and a
  /// cluster-wide byte count put Q6 at 408 200 B against 8 B.
  static void ExpectWithinSolo(const QueryHandlePtr& h, const Range& solo,
                               const char* label) {
    ASSERT_TRUE(h->status().ok()) << label << ": " << h->status().ToString();
    const int64_t peak = h->report().peak_memory_bytes;
    EXPECT_GE(peak, solo.lo / 2) << label;
    EXPECT_LE(peak, 2 * solo.hi)
        << label << " solo range [" << solo.lo << ", " << solo.hi << "]";
    EXPECT_EQ(h->report().remote_bytes, solo.remote_bytes) << label;
  }

  static Database* db_;
  static Range q6_;
  static Range q9_;
};

Database* WlmPeakMemoryTest::db_ = nullptr;
WlmPeakMemoryTest::Range WlmPeakMemoryTest::q6_;
WlmPeakMemoryTest::Range WlmPeakMemoryTest::q9_;

TEST_F(WlmPeakMemoryTest, QueryAfterAnotherReportsItsOwnPeak) {
  ASSERT_GT(q9_.lo, 4 * q6_.hi);  // the two are told apart
  QueryService service(db_->cluster(), {});
  QueryHandlePtr q9 = service.Submit(Plan(9));
  q9->Wait();
  QueryHandlePtr q6 = service.Submit(Plan(6));
  q6->Wait();
  ExpectWithinSolo(q9, q9_, "Q9");
  ExpectWithinSolo(q6, q6_, "Q6");
  // /queries reports the same ledger for a finished query: its peak.
  bool listed = false;
  for (const QueryInfo& info : service.ListQueries()) {
    if (info.id != q6->id()) continue;
    listed = true;
    EXPECT_EQ(info.mem_charged_bytes, q6->report().peak_memory_bytes);
    EXPECT_EQ(info.mem_budget_bytes, 0);  // unbounded
  }
  EXPECT_TRUE(listed);
  service.Shutdown();
}

TEST_F(WlmPeakMemoryTest, ConcurrentQueriesReportTheirOwnPeaks) {
  QueryServiceOptions opts;
  opts.admission.max_concurrent = 2;
  QueryService service(db_->cluster(), opts);
  QueryHandlePtr q9 = service.Submit(Plan(9));
  QueryHandlePtr q6 = service.Submit(Plan(6));
  q9->Wait();
  q6->Wait();
  ExpectWithinSolo(q9, q9_, "Q9");
  ExpectWithinSolo(q6, q6_, "Q6");
  service.Shutdown();
}

}  // namespace
}  // namespace claims
