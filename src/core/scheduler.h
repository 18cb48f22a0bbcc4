#ifndef CLAIMS_CORE_SCHEDULER_H_
#define CLAIMS_CORE_SCHEDULER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/macros.h"
#include "core/metrics.h"
#include "core/scalability_vector.h"
#include "obs/metrics_registry.h"
#include "obs/recorder.h"

namespace claims {

/// Scheduler-facing view of a running segment. Both the real engine's
/// Segment (cluster/segment.h) and the virtual-time simulator's SimSegment
/// implement this, so the Algorithm-1 logic below is substrate-agnostic.
class SchedulableSegment {
 public:
  virtual ~SchedulableSegment() = default;

  virtual const std::string& name() const = 0;
  /// Owning query (0 when the segment is not query-scoped, e.g. benches);
  /// the decision audit uses it to slice per-query profiles out of a shared
  /// scheduler.
  virtual uint64_t query_id() const { return 0; }
  /// False once the segment's input is exhausted (drop from scheduling).
  virtual bool active() const = 0;
  virtual int parallelism() const = 0;
  virtual SegmentStats* stats() = 0;
  virtual ScalabilityVector* scalability() = 0;
  /// Adds / removes one worker (ElasticIterator::Expand / Shrink).
  virtual bool Expand(int core_id) = 0;
  virtual bool Shrink() = 0;
};

/// Cluster-wide blackboard for the pipeline throughput λ (paper §4.2): every
/// node publishes the minimum normalized processing rate of its local
/// segments; the global λ is the minimum over nodes. With λ known, each node
/// optimizes locally — no cross-node parallelism assignment is needed.
class GlobalThroughputBoard {
 public:
  GlobalThroughputBoard() = default;
  CLAIMS_DISALLOW_COPY_AND_ASSIGN(GlobalThroughputBoard);

  void PublishLocal(int node_id, double lambda_local);
  void ClearNode(int node_id);

  /// min over published nodes; +inf when nothing is published.
  double GlobalLambda() const;

 private:
  mutable std::mutex mu_;
  std::map<int, double> local_lambda_;
};

struct SchedulerOptions {
  /// Cores available to query processing on this node (paper's m).
  int num_cores = 24;
  /// Trace "process" id for this scheduler's tick records; -1 uses the node
  /// id. The virtual-time simulator sets 1000+node so one capture can hold
  /// both substrates without track collisions (see obs/recorder.h).
  int trace_pid = -1;
};

/// The per-node dynamic scheduler (paper §4, Fig. 6; Algorithm 1). Runs as an
/// independent control loop; each Tick() it
///  1. samples every local segment's processing rate T_i and visit rate V_i,
///     refreshing scalability vectors when the measurement is trustworthy;
///  2. publishes the local λ = min R_i (R_i = T_i / V_i) and reads global λ;
///  3. hands free cores to the most promising under-performing segment;
///  4. evaluates Algorithm 1 pair moves (U × O) using scalability-vector
///     what-ifs, executing the best pair;
///  5. shrinks starved / over-producing segments so their cores return to
///     the free pool.
class DynamicScheduler {
 public:
  DynamicScheduler(int node_id, SchedulerOptions options, Clock* clock,
                   GlobalThroughputBoard* board);
  CLAIMS_DISALLOW_COPY_AND_ASSIGN(DynamicScheduler);

  /// Registers a segment and wakes a control loop parked in RunLoop.
  void AddSegment(SchedulableSegment* segment);
  /// Unregisters a segment; once this returns no tick touches it again.
  /// When the node's last segment leaves, the node's λ is withdrawn from the
  /// board, so an idle node never pins the global minimum at the rate of a
  /// finished pipeline.
  void RemoveSegment(SchedulableSegment* segment);
  /// True while any segment is registered.
  bool has_segments() const;

  /// The node's control loop, for a thread of its own (Cluster runs one per
  /// node for its whole lifetime). Ticks when a segment arrives, then every
  /// `period` while any stays registered; parks on mu_ while none is, or
  /// while halted. Returns once Shutdown() is called. Paced in real time:
  /// the simulator calls Tick() on its virtual clock instead.
  void RunLoop(std::chrono::nanoseconds period);
  /// While halted, RunLoop starts no tick; a tick in progress finishes
  /// before SetHalted(true) returns.
  void SetHalted(bool halted);
  /// Makes RunLoop return.
  void Shutdown();

  /// Graceful degradation on node loss: a disabled scheduler's Tick() is a
  /// no-op and its node's λ entry is withdrawn from the board, so the
  /// surviving nodes' global λ no longer waits on a dead node (the board
  /// minimum would otherwise pin every survivor to a stale bottleneck).
  /// Idempotent; a scheduler is never re-enabled (node rejoin is out of
  /// scope for the in-process cluster).
  void SetEnabled(bool enabled);
  bool enabled() const { return enabled_.load(std::memory_order_acquire); }

  /// One scheduling round; LastAudit() records what it decided.
  void Tick();

  /// Cores currently assigned to local segments.
  int cores_in_use() const;
  int node_id() const { return node_id_; }
  const SchedulerOptions& options() const { return options_; }

  /// Free-pool cores handed out per tick (pair moves stay one per tick, as
  /// in Algorithm 1).
  static constexpr int kMaxFreeExpansions = 2;

  /// Ticks executed so far (lock-free; watchdog progress probe).
  int64_t tick_count() const {
    return tick_count_.load(std::memory_order_relaxed);
  }

  /// Decision audit: recorded on every tick, bounded to the most recent
  /// kAuditCap ticks, and the only record of what each tick decided (with
  /// the recorder on, the same entry is also stored as a tick record). Each
  /// entry pairs what the tick measured (rate, R_i, blocked fractions) with
  /// what it decided (action) and what the *previous* tick predicted this
  /// one would measure — estimated vs. realized λ per decision.
  ///
  /// The most recent entry, the live view behind GET /scheduler; nullptr
  /// before the first tick.
  std::shared_ptr<const SchedTickAudit> LastAudit() const;
  /// Entries restricted to `query_id`'s segments; ticks that saw none of the
  /// query's segments are omitted.
  std::vector<SchedTickAudit> AuditLogForQuery(uint64_t query_id) const;

 private:
  struct SegmentRecord {
    SchedulableSegment* segment;
    /// The previous tick's input count and worker-time reading: the rate is
    /// Δtuples ÷ Δt and the blocked fractions Δblocked ÷ Δlive against them.
    int64_t last_input_tuples = 0;
    WorkerTimeMeter::Reading last_time;
    double last_rate = 0.0;        // T_i tuples/sec
    double last_normalized = 0.0;  // R_i = T_i / V_i
    double blocked_in_fraction = 0.0;
    double blocked_out_fraction = 0.0;
    bool has_sample = false;
    /// Scalability-vector estimate, made at the end of a tick, of the rate
    /// this segment should realize by the next tick at its post-action
    /// parallelism; -1 before the first estimate. Consumed by the next
    /// tick's audit entry as predicted_rate.
    double pending_prediction = -1.0;
  };

  static constexpr size_t kAuditCap = 512;

  /// One scheduling round; the caller holds mu_.
  void TickLocked();

  int node_id_;
  SchedulerOptions options_;
  Clock* clock_;
  GlobalThroughputBoard* board_;

  // Observability (metric updates are single relaxed atomics). Pointers
  // resolved once at construction.
  int trace_pid_;
  MetricCounter* ticks_metric_;
  MetricCounter* expand_metric_;
  MetricCounter* shrink_metric_;
  MetricCounter* move_metric_;
  /// Per-node occupancy (Σ parallelism of active segments, all queries),
  /// refreshed each tick: "scheduler.node<N>.cores_in_use".
  MetricGauge* cores_gauge_;

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<SegmentRecord>> records_;  ///< guarded by mu_
  /// RunLoop parks on this (with mu_) while there is nothing to schedule.
  std::condition_variable loop_cv_;
  bool halted_ = false;    ///< guarded by mu_
  bool shutdown_ = false;  ///< guarded by mu_
  /// Shared with the tick records the recorder stores.
  std::deque<std::shared_ptr<const SchedTickAudit>> audit_;  ///< guarded by mu_
  std::atomic<int64_t> tick_count_{0};
  std::atomic<bool> enabled_{true};
};

}  // namespace claims

#endif  // CLAIMS_CORE_SCHEDULER_H_
