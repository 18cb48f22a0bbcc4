#ifndef CLAIMS_WLM_QUERY_SERVICE_H_
#define CLAIMS_WLM_QUERY_SERVICE_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cluster/executor.h"
#include "wlm/admission.h"

namespace claims {

class QueryService;

/// Lifecycle of a submitted query:
///   kQueued   — waiting for admission (or for a worker);
///   kRunning  — an Executor is executing it on the cluster;
///   kRetrying — the last attempt failed kUnavailable (node loss, exhausted
///               send retries); the service is backing off before
///               re-dispatching onto the surviving nodes;
///   kDone     — finished; status()/result()/report() are valid.
enum class QueryState { kQueued, kRunning, kRetrying, kDone };

const char* QueryStateName(QueryState state);

/// Query-level retry on transient infrastructure failure. Only
/// StatusCode::kUnavailable is retryable — cancellation, deadlines, and
/// logic errors never re-run. Attempts are capped at 8 regardless of the
/// configured value; the query's deadline keeps counting across attempts.
struct RetryPolicy {
  /// Total attempts including the first; 1 disables retry.
  int max_attempts = 1;
  int64_t initial_backoff_ns = 10'000'000;  // 10 ms
  double backoff_multiplier = 2.0;
};

/// Per-submission options layered on top of the executor's.
struct SubmitOptions {
  /// Execution options for the query. The service overrides the concurrency
  /// plumbing fields (exchange_id_base, queue_wait_ns, deadline_ns,
  /// query_id); everything else passes through.
  ExecOptions exec;
  /// Higher runs first. Equal priorities dispatch in submission order.
  int priority = 0;
  /// Client-visible deadline relative to submission, queue wait included;
  /// 0 = none. Expiry surfaces as kDeadlineExceeded whether the query was
  /// still queued or already running.
  int64_t timeout_ns = 0;
  /// Re-dispatch policy for kUnavailable failures.
  RetryPolicy retry;
  /// Shown in traces and reports; defaults to "q<id>".
  std::string label;
};

/// Client-side view of one submitted query. Thread-safe; shared between the
/// submitter, the service's dispatch workers, and anyone calling Cancel().
class QueryHandle {
 public:
  uint64_t id() const { return id_; }
  const std::string& label() const { return label_; }
  int priority() const { return options_.priority; }

  QueryState state() const;

  /// Blocks until the query reaches kDone.
  void Wait();
  /// Bounded wait; false on timeout.
  bool WaitFor(int64_t timeout_ns);

  /// Cooperative cancellation from any thread. A queued query completes
  /// immediately with kCancelled (it never runs); a running query aborts at
  /// its segments' next block boundaries; a done query is unaffected.
  void Cancel();

  // --- Valid once state() == kDone -----------------------------------------

  const Status& status() const;
  /// The gathered result; empty unless status().ok().
  const ResultSet& result() const;
  /// The executor's EXPLAIN-ANALYZE report (queue_wait_ns filled in); empty
  /// for queries that never ran.
  const ExecutionReport& report() const;

  /// Admission delay: submission → dispatch (or → completion for queries
  /// that never ran).
  int64_t queue_wait_ns() const;
  /// Client-visible latency: submission → done.
  int64_t latency_ns() const;

  // --- Live introspection (valid in any state; sampled by /queries) --------

  int64_t submit_ns() const { return submit_ns_; }
  /// Absolute SteadyClock deadline (submit + timeout); 0 when none.
  int64_t deadline_ns() const {
    return options_.timeout_ns > 0 ? submit_ns_ + options_.timeout_ns : 0;
  }
  /// Execution progress; all-zero before dispatch / for unrun queries.
  ExecProgress progress() const;

 private:
  friend class QueryService;

  QueryHandle(uint64_t id, PhysicalPlan plan, SubmitOptions options,
              int64_t submit_ns);

  /// Transition to kDone (exactly once) and wake waiters.
  void Complete(Status status, ResultSet result, ExecutionReport report,
                int64_t done_ns);

  const uint64_t id_;
  const PhysicalPlan plan_;
  const SubmitOptions options_;
  const std::string label_;
  const int64_t submit_ns_;
  QueryDemand demand_;
  /// Booked by the dispatching worker's TryAdmit; released (with the actual
  /// peak, for estimate-error accounting) when the run completes. Only the
  /// owning dispatch worker touches it after admission.
  AdmissionReservation reservation_;

  mutable std::mutex mu_;
  std::condition_variable done_cv_;
  QueryState state_ = QueryState::kQueued;
  bool cancel_requested_ = false;
  /// Exists from dispatch until the handle dies, so Cancel() can reach a
  /// running execution without racing its teardown.
  std::unique_ptr<Executor> executor_;
  Status status_;
  ResultSet result_;
  ExecutionReport report_;
  int64_t dispatch_ns_ = 0;
  int64_t done_ns_ = 0;
};

using QueryHandlePtr = std::shared_ptr<QueryHandle>;

struct QueryServiceOptions {
  AdmissionOptions admission;
  /// Dispatch worker threads = max queries executing at once; 0 derives it
  /// from admission.max_concurrent (and that from the cluster if also 0).
  int workers = 0;
  /// Submissions beyond this many queued queries block the submitter until
  /// the queue drains (backpressure, not rejection); 0 = unbounded.
  size_t max_queue_depth = 0;
};

/// One row of the live query inventory served at /queries. Everything is a
/// point-in-time sample: a query can finish between ListQueries and use.
struct QueryInfo {
  uint64_t id = 0;
  std::string label;
  QueryState state = QueryState::kQueued;
  int priority = 0;
  int64_t submit_ns = 0;
  int64_t queue_wait_ns = 0;  ///< so-far for queued, final once dispatched
  int64_t run_ns = 0;         ///< dispatch → now (or → done); 0 while queued
  int64_t deadline_ns = 0;    ///< absolute; 0 = none
  int64_t tuples_emitted = 0;
  int64_t tuples_consumed = 0;
  int live_segments = 0;
  // Memory ledger sample: charged bytes (the peak once done); budget 0 =
  // unbounded.
  int64_t mem_charged_bytes = 0;
  int64_t mem_budget_bytes = 0;
  int64_t mem_spilled_bytes = 0;
  std::string status;  ///< terminal status string; empty until kDone
};

/// The workload manager in front of the cluster (the subsystem the paper
/// defers to as "multi-query scheduling", §7): accepts prioritized query
/// submissions, gates them through an AdmissionController, and executes the
/// admitted set concurrently — one Executor per query over the shared
/// Cluster, exchange ids namespaced per execution — so each node's
/// DynamicScheduler and the GlobalThroughputBoard arbitrate cores *across*
/// queries exactly as they do across one query's segments.
///
/// Dispatch policy: highest priority first (ties: submission order), with
/// skip-over — if the best queued query does not fit the remaining budget
/// but a smaller one does, the smaller one runs. Skip-over favors
/// utilization over strict ordering; an over-budget query is never starved
/// outright because an idle system admits anything (see
/// AdmissionController).
class QueryService {
 public:
  QueryService(Cluster* cluster, QueryServiceOptions options);
  ~QueryService();

  CLAIMS_DISALLOW_COPY_AND_ASSIGN(QueryService);

  /// Submits a planned query. Blocks while the queue is at max_queue_depth.
  /// After Shutdown the returned handle is already kDone with kCancelled.
  QueryHandlePtr Submit(PhysicalPlan plan, SubmitOptions options = {});

  /// Stops accepting submissions. cancel_pending=true also cancels every
  /// queued and running query; false drains them first. Blocks until the
  /// workers exited. Idempotent.
  void Shutdown(bool cancel_pending = true);

  size_t queue_depth() const;
  AdmissionController* admission() { return &admission_; }
  Cluster* cluster() { return cluster_; }

  /// Point-in-time inventory of queued and running queries plus the most
  /// recently completed ones (bounded ring), newest-submission first within
  /// each state. Safe to call from any thread at scrape frequency.
  std::vector<QueryInfo> ListQueries() const;

 private:
  void WorkerMain();
  /// Picks the dispatchable queued query under mu_: reaps cancelled/expired
  /// entries (with the status each should complete with), admits the best
  /// fit into running_. Returns nullptr when none qualifies.
  QueryHandlePtr PopDispatchableLocked(
      int64_t now_ns, std::vector<std::pair<QueryHandlePtr, Status>>* reaped);
  void RunQuery(const QueryHandlePtr& handle);
  /// Completes a query that never ran and records its metrics.
  void CompleteUnrun(const QueryHandlePtr& handle, Status status);
  /// Records terminal metrics and remembers the handle in recent_done_.
  void RecordCompletion(const QueryHandlePtr& handle);

  Cluster* cluster_;
  QueryServiceOptions options_;
  AdmissionController admission_;

  MetricGauge* queue_depth_gauge_;
  MetricCounter* submitted_metric_;
  MetricCounter* completed_metric_;
  MetricCounter* failed_metric_;
  MetricCounter* cancelled_metric_;
  MetricCounter* deadline_metric_;
  MetricCounter* retries_metric_;
  MetricHistogram* queue_wait_metric_;
  MetricHistogram* latency_metric_;

  mutable std::mutex mu_;
  std::condition_variable dispatch_cv_;      ///< workers: work or budget freed
  std::condition_variable backpressure_cv_;  ///< submitters: queue has room
  std::vector<QueryHandlePtr> queue_;
  std::vector<QueryHandlePtr> running_;
  /// Most recent completions, oldest first, for the /queries inventory.
  std::vector<QueryHandlePtr> recent_done_;
  static constexpr size_t kRecentDoneCap = 32;
  bool shutdown_ = false;
  bool cancel_pending_on_shutdown_ = false;
  uint64_t next_id_ = 1;
  std::vector<std::thread> workers_;
};

}  // namespace claims

#endif  // CLAIMS_WLM_QUERY_SERVICE_H_
