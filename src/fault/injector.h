#ifndef CLAIMS_FAULT_INJECTOR_H_
#define CLAIMS_FAULT_INJECTOR_H_

#include <atomic>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/macros.h"
#include "common/random.h"
#include "fault/fault_plan.h"
#include "obs/metrics_registry.h"

namespace claims {

/// What the fabric must do with one send while faults are active.
struct SendDecision {
  enum class Fate {
    kDeliver,    ///< pass through (possibly after `delay_ns`)
    kDrop,       ///< transport loss: the sender sees a NACK and may retry
    kDuplicate,  ///< deliver, then deliver a second copy with the same seq
  };
  Fate fate = Fate::kDeliver;
  int64_t delay_ns = 0;
};

/// Drives a FaultPlan against a live cluster. The injector owns *time*
/// (when each fault window opens and closes, measured on the injected clock
/// relative to Arm) and *chance* (per-send draws from the plan's seeded Rng);
/// the actuators that turn a decision into an effect live in the substrate:
/// Network consults OnSend/OnSendToNode, Cluster registers the NIC rewriter
/// and crash handler. Every window transition is appended to the event log
/// with its *planned* time, so the log is byte-identical across runs — the
/// determinism artifact the chaos tests compare (docs/FAULTS.md).
///
/// Thread-safety: all public methods are safe to call concurrently once
/// armed; actuator callbacks are invoked without the injector mutex held.
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan, Clock* clock = nullptr);
  ~FaultInjector();
  CLAIMS_DISALLOW_COPY_AND_ASSIGN(FaultInjector);

  /// Rewrites node NIC budgets: `bandwidth_bytes_per_sec` > 0 degrades,
  /// < 0 restores the substrate's configured rate (the injector does not
  /// know it). Registered by Cluster::AttachFaultInjector.
  void SetNicRewriter(std::function<void(int node, int64_t bps)> rewriter);

  /// Kills a node (idempotent). Registered by Cluster::AttachFaultInjector.
  void SetCrashHandler(std::function<void(int node)> handler);

  /// Applies/restores a memory-pressure cap: `cap_bytes` > 0 squeezes the
  /// ledgers, < 0 restores the uncapped state. Defaults to
  /// QueryBudget::SetProcessCapBytes, so a mempressure fault works with no
  /// substrate wiring; tests override it to observe actuations.
  void SetMemPressureHandler(std::function<void(int64_t cap_bytes)> handler);

  /// Starts the clock (t=0 of the plan), applies the transitions due at
  /// t=0, and starts a poll thread that applies the rest. Idempotent.
  void Arm();

  /// Arm without the poll thread: tests and the simulator drive transitions
  /// by calling PollOnce() after advancing a manual clock.
  void ArmManual();

  /// Applies every transition due at the current clock time. Returns the
  /// number of transitions applied.
  int PollOnce();

  /// Stops the poll thread; active windows stay in force (chaos runs end by
  /// plan, not by disarm). Idempotent; the destructor calls it.
  void Disarm();

  /// The fabric's per-send fault point: fate of a block on
  /// (exchange_id, from → to) right now. Cheap when nothing is active.
  SendDecision OnSend(int exchange_id, int from, int to);

  /// True once a kCrashNode fault killed `node`.
  bool NodeDead(int node) const;

  /// Uniform draw in [0,1) from the plan's seeded stream (retry jitter uses
  /// this so a chaos run has a single source of randomness).
  double NextDouble();

  /// Nanoseconds of plan time elapsed (0 before Arm).
  int64_t ElapsedNanos() const;

  /// Applied transitions in application order (poll-cadence dependent).
  std::vector<FaultEvent> Events() const;
  /// The byte-comparable event log: Events() re-sorted into canonical
  /// (planned-time) order, so two runs of one plan that both passed the same
  /// plan horizon render identical text however often each was polled.
  std::string EventLogText() const;

  /// One line per window currently in force — wired into watchdog incident
  /// reports so a stall under chaos says *which* faults were active.
  std::string DescribeActiveFaults() const;

  const FaultPlan& plan() const { return plan_; }

 private:
  struct Window {
    FaultSpec spec;
    bool activated = false;
    bool deactivated = false;
  };

  /// Transitions due at plan-relative time `t`; actuator calls collected
  /// under the mutex, invoked after it is released.
  int ApplyTransitionsLocked(int64_t t,
                             std::vector<std::function<void()>>* actuations);
  bool MatchesLocked(const Window& w, int exchange_id, int from, int to) const;
  void PollLoop();

  FaultPlan plan_;
  Clock* clock_;
  MetricCounter* drops_metric_;
  MetricCounter* delays_metric_;
  MetricCounter* duplicates_metric_;
  MetricCounter* crashes_metric_;
  MetricCounter* nic_rewrites_metric_;
  MetricCounter* mem_pressure_metric_;
  MetricCounter* activations_metric_;

  mutable std::mutex mu_;
  std::vector<Window> windows_;
  std::vector<FaultEvent> events_;
  Rng rng_;
  std::function<void(int, int64_t)> nic_rewriter_;
  std::function<void(int)> crash_handler_;
  std::function<void(int64_t)> mem_pressure_handler_;
  int64_t arm_time_ns_ = -1;
  /// Count of windows currently in force; OnSend returns immediately when 0.
  std::atomic<int> active_windows_{0};
  std::atomic<bool> armed_{false};
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> dead_nodes_mask_{0};
  std::thread poll_thread_;
};

}  // namespace claims

#endif  // CLAIMS_FAULT_INJECTOR_H_
