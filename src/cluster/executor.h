#ifndef CLAIMS_CLUSTER_EXECUTOR_H_
#define CLAIMS_CLUSTER_EXECUTOR_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/plan.h"
#include "cluster/result_set.h"
#include "cluster/segment.h"
#include "mem/query_budget.h"
#include "obs/report.h"

namespace claims {

/// Execution frameworks compared in the paper (§5.4):
///  * kElastic (EP)      — pipelined, parallelism adjusted at runtime by the
///                          dynamic schedulers;
///  * kStatic (SP)       — pipelined, parallelism fixed at "compile time";
///  * kMaterialized (ME) — fragments run one group at a time, intermediates
///                          fully materialized in (unbounded) exchanges.
enum class ExecMode { kElastic, kStatic, kMaterialized };

const char* ExecModeName(ExecMode mode);

struct ExecOptions {
  /// Execution framework every segment of this query runs under.
  ExecMode mode = ExecMode::kElastic;
  /// Worker threads per segment (values below 1 mean 1): EP's starting
  /// point (paper experiments default to 1), SP/ME's fixed assignment.
  int parallelism = 1;
  /// Master gathers result blocks into the returned ResultSet. Benches that
  /// only measure execution switch this off; arriving blocks are dropped.
  bool collect_result = true;
  /// Elastic-iterator buffer depth per segment (blocks).
  size_t buffer_capacity_blocks = 64;
  /// Absolute SteadyClock deadline in nanoseconds; 0 disables. A query still
  /// running at the deadline is cancelled cooperatively and Execute returns
  /// kDeadlineExceeded. The workload manager derives this from the
  /// submission time plus the query's timeout, so admission queueing counts
  /// against the deadline.
  int64_t deadline_ns = 0;
  /// Offset added to every exchange id of the plan for this execution.
  /// Plans number exchanges from 0, so two queries in flight at once would
  /// collide in the shared network fabric; the workload manager allocates a
  /// distinct base per running query. Single-query callers keep 0.
  int exchange_id_base = 0;
  /// Time this query waited in the admission queue before Execute began;
  /// copied into the ExecutionReport so EXPLAIN ANALYZE splits queue-wait
  /// from run-time. Filled by the workload manager; 0 when unqueued.
  int64_t queue_wait_ns = 0;
  /// Identity of this execution in the scheduler audit and the recorder.
  /// 0 auto-assigns a process-unique id (single-query callers, benches); the
  /// workload manager passes its own handle id so /profile/<id> matches
  /// /queries.
  uint64_t query_id = 0;
  /// Binding per-query memory budget in bytes; 0 leaves the query's ledger
  /// unbounded. Every execution charges its arena chunks, buffered blocks
  /// and exchange-channel blocks to one QueryBudget, whose peak is
  /// ExecutionReport::peak_memory_bytes. With a budget the ledger refuses
  /// past it and the ladder runs spill → kResourceExhausted
  /// (docs/MEMORY.md). The workload manager passes the admitted reservation
  /// here, making the WLM estimate binding rather than advisory.
  int64_t memory_budget_bytes = 0;
};

/// Coarse liveness of one execution, cheap enough to sample from another
/// thread on every monitoring scrape (one mutex + relaxed atomic reads).
struct ExecProgress {
  bool executing = false;  ///< segments are live right now
  int live_segments = 0;   ///< 0 once the run finished (totals stay latched)
  int64_t tuples_consumed = 0;  ///< Σ input_tuples over the query's segments
  int64_t tuples_emitted = 0;   ///< Σ output_tuples — the progress counter
  // Memory ledger (every query has one).
  int64_t mem_charged_bytes = 0;  ///< live ledger charge; the peak once done
  int64_t mem_budget_bytes = 0;   ///< admitted budget; 0 = unbounded
  int64_t mem_spilled_bytes = 0;  ///< bytes evicted to the cold tier
};

/// Deploys a PhysicalPlan on the cluster and gathers the result at the
/// master. One Executor per query execution. Many executors may run
/// concurrently over one Cluster when each execution namespaces its
/// exchange ids (ExecOptions::exchange_id_base) — the workload manager
/// (src/wlm) is the layer that arranges this. Memory is accounted per
/// execution, so concurrent queries never see each other's bytes.
class Executor {
 public:
  explicit Executor(Cluster* cluster);

  /// Runs the plan; blocks until completion, cancellation, or deadline.
  Result<ResultSet> Execute(const PhysicalPlan& plan, const ExecOptions& opts);

  /// Cooperative cancellation, callable from any thread while (or before)
  /// Execute runs: every live segment aborts at its next block boundary and
  /// Execute returns kCancelled. Sticky — a cancelled executor stays
  /// cancelled (one executor per query execution).
  void Cancel();

  /// Live progress while Execute runs; after completion the final totals
  /// stay latched (with executing=false). Callable from any thread — the
  /// workload manager's /queries endpoint and the stall watchdog's
  /// per-query progress probes sample this.
  ExecProgress Progress() const;

  /// EXPLAIN-ANALYZE summary of the most recent Execute. Per-segment numbers
  /// are copied from the segments' SegmentStats, so they reconcile exactly
  /// with what the scheduler sampled; parallelism timelines come from the
  /// launch widths and the scheduler's decision audit. The ledger peak is
  /// set on every exit path, failures included.
  const ExecutionReport& report() const { return report_; }

  /// Live segments of the most recent Execute (valid during execution; used
  /// by benches to trace parallelism dynamics).
  const std::vector<std::unique_ptr<Segment>>& segments() const {
    return segments_;
  }

 private:
  /// Builds the iterator tree of `op` for the instance on `node`. With
  /// `op_ids` set (recording on), every operator is wrapped in a
  /// ProfilingIterator carrying `stats`'s owner and its pre-order
  /// (op_id, parent_op), numbered from *op_ids, so the assembler can
  /// telescope exclusive times.
  Result<std::unique_ptr<Iterator>> BuildIterator(const POp& op, int node,
                                                  SegmentStats* stats,
                                                  const ExecOptions& opts,
                                                  int* op_ids, int parent_op);
  /// The unwrapped per-kind construction; recurses via BuildIterator.
  Result<std::unique_ptr<Iterator>> BuildIteratorInner(
      const POp& op, int node, SegmentStats* stats, const ExecOptions& opts,
      int* op_ids, int my_op);

  /// Latches the cancel reason and aborts every registered live segment.
  /// Called from Cancel() (user thread) and the deadline watchdog.
  void TriggerCancel(bool deadline);

  /// A segment's stream broke: aborts every registered segment that has not
  /// failed itself, so producers blocked on the broken consumer's full
  /// channel unwind and Execute can join them. Latches no cancel reason —
  /// Execute reports the failure's own status. Called from the failing
  /// segment's driver thread.
  void CancelAfterFailure();

  Cluster* cluster_;
  /// The current execution's ledger. Declared before segments_: segment
  /// teardown refunds arena and buffer charges into it, so it must be
  /// destroyed after the segments.
  std::unique_ptr<QueryBudget> budget_;
  std::vector<std::unique_ptr<Segment>> segments_;
  std::vector<std::unique_ptr<SegmentStats>> stats_own_;
  ExecutionReport report_;

  /// Cancel reasons are atomics so Execute's hot paths read them lock-free;
  /// live_mu_ guards only the registered-segment list.
  std::atomic<bool> cancel_requested_{false};
  std::atomic<bool> deadline_hit_{false};
  /// Set when a cluster node hosting part of this execution died mid-run:
  /// Execute returns kUnavailable (retryable) instead of kCancelled, and the
  /// workload manager re-dispatches onto the survivors.
  std::atomic<bool> node_loss_{false};
  mutable std::mutex live_mu_;
  std::vector<Segment*> live_segments_;
  ExecProgress latched_progress_;  ///< guarded by live_mu_; set on teardown
};

}  // namespace claims

#endif  // CLAIMS_CLUSTER_EXECUTOR_H_
