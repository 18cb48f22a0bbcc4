#ifndef CLAIMS_WLM_ADMISSION_H_
#define CLAIMS_WLM_ADMISSION_H_

#include <cstdint>
#include <mutex>

#include "cluster/executor.h"
#include "cluster/plan.h"
#include "common/macros.h"
#include "obs/metrics_registry.h"

namespace claims {

/// What one query asks of the cluster at admission time. The paper's
/// elasticity machinery handles *running* queries trading cores; admission
/// bounds how much initial demand enters the system at once so the dynamic
/// schedulers arbitrate a feasible set instead of thrashing an oversubscribed
/// one.
struct QueryDemand {
  /// Worker threads the query starts with: Σ over segment instances of
  /// their initial parallelism. EP queries may later expand beyond this —
  /// per-node core caps are the DynamicScheduler's job; admission gates the
  /// entry pressure.
  int cores = 1;
  /// Elastic-buffer capacity the query may pin across its segments.
  int64_t memory_bytes = 0;
};

/// Conservative demand estimate from the plan shape. Memory counts each
/// segment's bounded elastic buffer at capacity (the dominant per-query
/// steady-state allocation; operator state like hash tables is workload
/// data-dependent and intentionally not guessed here).
QueryDemand EstimateDemand(const PhysicalPlan& plan, const ExecOptions& exec);

/// Receipt of one successful TryAdmit: exactly what the ledger booked (the
/// clamped values), plus the raw estimate for error accounting. Releasing
/// through the receipt returns precisely what was charged — releasing from a
/// re-derived estimate skews the books whenever the two diverge (a budget
/// re-configured mid-flight, a clamp applied on admit but not on release).
struct AdmissionReservation {
  int cores = 0;               ///< booked (clamped) initial cores
  int64_t memory_bytes = 0;    ///< booked (clamped) memory reservation
  int64_t estimate_bytes = 0;  ///< unclamped memory estimate at admit time
  bool active = false;         ///< true between TryAdmit and Release
};

struct AdmissionOptions {
  /// Multiprogramming level: most queries running at once. <= 0 disables
  /// the MPL gate.
  int max_concurrent = 8;
  /// Aggregate initial-core budget across the cluster; <= 0 disables.
  /// A sane setting is num_nodes × cores_per_node — then every admitted
  /// worker can, in principle, hold a core.
  int core_budget = 0;
  /// Aggregate elastic-buffer budget; <= 0 disables.
  int64_t memory_budget_bytes = 0;
};

/// Thread-safe reservation ledger for the three admission budgets. Queries
/// are never rejected for load — the QueryService keeps them queued until
/// TryAdmit succeeds (backpressure propagates to submitters through the
/// bounded queue). A query whose demand alone exceeds a budget would starve
/// forever, so an idle system (nothing running) admits any single query;
/// its reservation is clamped at the budget, which both preserves the
/// monitored invariant (cores_in_flight/memory_in_flight never exceed an
/// enabled budget) and keeps the system exclusive until the whale drains.
class AdmissionController {
 public:
  explicit AdmissionController(AdmissionOptions options);
  CLAIMS_DISALLOW_COPY_AND_ASSIGN(AdmissionController);

  const AdmissionOptions& options() const { return options_; }

  /// Atomically reserves the demand if every budget holds; false otherwise.
  /// On success `*reservation` (required) records what was actually booked,
  /// which is what Release returns.
  bool TryAdmit(const QueryDemand& demand, AdmissionReservation* reservation);

  /// Returns a reservation to the pool (query finished, failed, or
  /// cancelled), subtracting exactly the booked amounts. Idempotent: the
  /// receipt deactivates on first release.
  void Release(AdmissionReservation* reservation);

  /// Release plus estimate-quality accounting: records
  /// `wlm.mem_estimate_error` = |estimate − actual peak| so operators can
  /// see how far admission's buffer-shaped guess sits from what queries
  /// really used (pass actual_peak_bytes < 0 when the run produced no
  /// usable peak, e.g. it never started).
  void ReleaseWithActual(AdmissionReservation* reservation,
                         int64_t actual_peak_bytes);

  int running() const;
  int cores_in_flight() const;
  int64_t memory_in_flight() const;

 private:
  /// Subtracts booked amounts and refreshes the gauges; caller holds mu_.
  void ReleaseBookedLocked(int cores, int64_t memory_bytes);

  AdmissionOptions options_;
  MetricGauge* running_gauge_;
  MetricGauge* cores_gauge_;
  MetricGauge* memory_gauge_;
  MetricCounter* admitted_metric_;
  MetricHistogram* estimate_error_metric_;

  mutable std::mutex mu_;
  int running_ = 0;
  int cores_ = 0;
  int64_t memory_ = 0;
};

}  // namespace claims

#endif  // CLAIMS_WLM_ADMISSION_H_
