// Workload-manager stress: N queries racing M cancellation threads over one
// shared cluster, plus shutdown-with-inflight-work and deadline storms. The
// races this drives are the ones the wlm unit tests only brush: Cancel()
// landing between dispatch and Executor creation, cancel vs. natural
// completion, handle destruction after service shutdown, and deadline expiry
// on queued and running queries at once. Under TSan this is the test that
// exercises the service's two-lock (service mu_ → handle mu_) discipline.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "cluster/executor.h"
#include "wlm/query_service.h"

namespace claims {
namespace {

constexpr int kNodes = 2;
constexpr int kCoresPerNode = 4;

ExprPtr Col(const Schema& s, const char* name) {
  int i = s.FindColumn(name);
  EXPECT_GE(i, 0) << name;
  return MakeColumnRef(i, s.column(i).type, name);
}

class WlmStressTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog_ = new Catalog;
    Schema s({ColumnDef::Int32("k"), ColumnDef::Int64("v")});
    auto t = std::make_shared<Table>("kv", s, kNodes, std::vector<int>{});
    for (int i = 0; i < 24000; ++i) {
      t->AppendValues({Value::Int32(i % 300), Value::Int64(i)});
    }
    ASSERT_TRUE(catalog_->RegisterTable(std::move(t)).ok());
    ClusterOptions copts;
    copts.num_nodes = kNodes;
    copts.cores_per_node = kCoresPerNode;
    cluster_ = new Cluster(copts, catalog_);
  }
  static void TearDownTestSuite() {
    delete cluster_;
    delete catalog_;
  }

  /// Milliseconds-fast: scan kv → filter(k < 100) → gather. 8000 rows.
  static PhysicalPlan FastPlan() {
    TablePtr kv = *catalog_->GetTable("kv");
    PhysicalPlan plan;
    auto f = std::make_unique<Fragment>();
    f->id = 0;
    f->root = MakeFilterOp(
        MakeScanOp(*kv), MakeCompare(CompareOp::kLt, Col(kv->schema(), "k"),
                                     MakeLiteral(Value::Int32(100))));
    f->nodes = {0, 1};
    f->out_exchange_id = 0;
    f->partitioning = Partitioning::kToOne;
    f->consumer_nodes = {0};
    plan.result_schema = f->root->output_schema;
    plan.result_exchange_id = 0;
    plan.fragments.push_back(std::move(f));
    return plan;
  }

  /// Hundreds-of-milliseconds slow: repartition kv on k, self-join (each
  /// probe row matches 80 build rows → 1.9M join rows), count per key.
  static PhysicalPlan SlowPlan() {
    TablePtr kv = *catalog_->GetTable("kv");
    PhysicalPlan plan;
    auto f0 = std::make_unique<Fragment>();
    f0->id = 0;
    f0->root = MakeScanOp(*kv);
    f0->nodes = {0, 1};
    f0->out_exchange_id = 0;
    f0->partitioning = Partitioning::kHash;
    f0->hash_cols = {0};
    f0->consumer_nodes = {0, 1};

    auto f1 = std::make_unique<Fragment>();
    f1->id = 1;
    auto merger = MakeMergerOp(0, f0->root->output_schema);
    auto join = MakeHashJoinOp(std::move(merger), MakeScanOp(*kv),
                               /*build_keys=*/{0}, /*probe_keys=*/{0});
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
    return plan;
  }

  static SubmitOptions TightExec() {
    SubmitOptions opts;
    opts.exec.parallelism = 1;
    opts.exec.buffer_capacity_blocks = 2;
    return opts;
  }

  static Catalog* catalog_;
  static Cluster* cluster_;
};

Catalog* WlmStressTest::catalog_ = nullptr;
Cluster* WlmStressTest::cluster_ = nullptr;

/// Every submitted query must end in exactly one of the cooperative
/// terminal states, with a valid result iff it succeeded.
void ExpectTerminal(const QueryHandlePtr& h, bool deadlines_allowed) {
  ASSERT_EQ(h->state(), QueryState::kDone) << h->label();
  const Status& s = h->status();
  bool acceptable = s.ok() || s.code() == StatusCode::kCancelled ||
                    (deadlines_allowed &&
                     s.code() == StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(acceptable) << h->label() << ": " << s.ToString();
  if (s.ok()) {
    EXPECT_GT(h->result().num_rows(), 0) << h->label();
  }
  EXPECT_GE(h->latency_ns(), 0);
  EXPECT_GE(h->queue_wait_ns(), 0);
}

TEST_F(WlmStressTest, CancellersRaceCompletion) {
  constexpr int kQueries = 48;
  constexpr int kCancellers = 4;

  QueryServiceOptions opts;
  opts.admission.max_concurrent = 4;
  QueryService service(cluster_, opts);

  std::vector<QueryHandlePtr> handles;
  handles.reserve(kQueries);
  for (int i = 0; i < kQueries; ++i) {
    SubmitOptions sub = TightExec();
    sub.label = (i % 2 ? "slow-" : "fast-") + std::to_string(i);
    sub.priority = i % 3;
    handles.push_back(
        service.Submit(i % 2 ? SlowPlan() : FastPlan(), sub));
  }

  // Each canceller sweeps its own stripe of handles — some still queued,
  // some mid-stream, some already done — with jitter so the stripes overlap
  // the dispatch loop differently every sweep. Two stripes overlap on the
  // %2 residues, so some handles see concurrent double-cancel.
  std::vector<std::thread> cancellers;
  for (int c = 0; c < kCancellers; ++c) {
    cancellers.emplace_back([&, c] {
      for (int sweep = 0; sweep < 3; ++sweep) {
        for (int i = c % 2; i < kQueries; i += 2) {
          if ((i + sweep) % kCancellers == c) handles[i]->Cancel();
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
      }
    });
  }
  for (auto& t : cancellers) t.join();
  for (auto& h : handles) h->Wait();
  for (auto& h : handles) ExpectTerminal(h, /*deadlines_allowed=*/false);
}

TEST_F(WlmStressTest, ShutdownWithInflightAndQueuedWork) {
  for (int round = 0; round < 4; ++round) {
    QueryServiceOptions opts;
    opts.admission.max_concurrent = 2;
    auto service = std::make_unique<QueryService>(cluster_, opts);

    std::vector<QueryHandlePtr> handles;
    for (int i = 0; i < 12; ++i) {
      SubmitOptions sub = TightExec();
      sub.label = "r" + std::to_string(round) + "-q" + std::to_string(i);
      handles.push_back(service->Submit(SlowPlan(), sub));
    }
    // Let `round` queries finish and others get off the queue, then tear the
    // service down under them. cancel_pending=true must cancel queued AND
    // running work. Completions, not a fixed sleep, set the moment: how long
    // a query runs depends on the machine.
    for (int i = 0; i < round; ++i) handles[i]->Wait();
    std::vector<QueryHandle*> running;
    while (running.empty()) {
      for (auto& h : handles) {
        if (h->state() == QueryState::kRunning) running.push_back(h.get());
      }
      std::this_thread::yield();
    }
    service->Shutdown(/*cancel_pending=*/true);
    for (auto& h : handles) {
      ASSERT_EQ(h->state(), QueryState::kDone) << h->label();
      EXPECT_TRUE(h->status().ok() ||
                  h->status().code() == StatusCode::kCancelled)
          << h->label() << ": " << h->status().ToString();
    }
    bool running_cancelled = false;
    for (QueryHandle* h : running) {
      running_cancelled |= h->status().code() == StatusCode::kCancelled;
    }
    EXPECT_TRUE(running_cancelled) << "round " << round;
    // Handles legitimately outlive the service. The last one was still
    // queued when the service shut down.
    service.reset();
    EXPECT_EQ(handles.back()->status().code(), StatusCode::kCancelled);
  }
}

TEST_F(WlmStressTest, DeadlineStormRacesDispatch) {
  QueryServiceOptions opts;
  opts.admission.max_concurrent = 4;
  QueryService service(cluster_, opts);

  std::vector<QueryHandlePtr> handles;
  for (int i = 0; i < 32; ++i) {
    SubmitOptions sub = TightExec();
    sub.label = "storm-" + std::to_string(i);
    // Timeouts straddle both sides of the queue wait and the run time, so
    // expiry fires on queued queries (reaped by workers) and running ones
    // (executor watchdog) in the same storm.
    sub.timeout_ns = (i % 8 + 1) * 5'000'000;  // 5..40 ms
    handles.push_back(service.Submit(i % 4 ? SlowPlan() : FastPlan(), sub));
  }
  for (auto& h : handles) h->Wait();
  int expired = 0;
  for (auto& h : handles) {
    ExpectTerminal(h, /*deadlines_allowed=*/true);
    if (h->status().code() == StatusCode::kDeadlineExceeded) ++expired;
  }
  // The slow queries run ~300 ms; a 40 ms ceiling guarantees expiries.
  EXPECT_GT(expired, 0);
}

}  // namespace
}  // namespace claims
