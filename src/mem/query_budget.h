#ifndef CLAIMS_MEM_QUERY_BUDGET_H_
#define CLAIMS_MEM_QUERY_BUDGET_H_

#include <atomic>
#include <cstdint>

#include "common/macros.h"

namespace claims {

class MetricCounter;

/// The per-query memory ledger: every execution owns exactly one. Arena
/// chunks, elastic-buffer blocks and exchange-channel blocks owned by the
/// query charge their bytes here before the memory is used, so the ledger's
/// peak is the query's peak memory (ExecutionReport, the paper's Table 4).
/// With a budget, TryCharge refuses to let `charged` exceed it — that is the
/// ledger invariant the mempressure stress test samples every millisecond.
///
/// Process cap (SetProcessCapBytes, actuated by the mempressure fault): while
/// set, a *bounded* ledger also refuses any charge that would take the sum
/// over all ledgers (TotalChargedBytes) past it. Unbounded ledgers never
/// refuse. This ledger is the only code in the process that refuses memory:
/// BlockPool only recycles.
///
/// Degradation ladder (docs/MEMORY.md): a refused charge is final, and the
/// ledger calls nothing. The *call site* decides what follows — the hash-agg
/// build spills its largest private table to a cold SpillRun and retries;
/// every other charger, and a spill that cannot absorb the fold, latches
/// MarkRejected() and fails the query with kResourceExhausted.
///
/// TryCharge deliberately does NOT latch rejected: a breach that spilling
/// recovers from is not a failure, and a latched flag would misclassify a
/// later unrelated Internal error as ResourceExhausted.
class QueryBudget {
 public:
  /// budget_bytes <= 0 means unbounded (charges always succeed, process cap
  /// or not); the ledger still tracks charged/peak so reports stay uniform.
  explicit QueryBudget(int64_t budget_bytes);
  /// A ledger dies balanced: everything that charged it refunds first.
  /// Leftover charge is a leak and stays in TotalChargedBytes.
  ~QueryBudget();

  CLAIMS_DISALLOW_COPY_AND_ASSIGN(QueryBudget);

  /// The ledger's one charge call: a single CAS attempt that never exceeds
  /// the budget (nor, for a bounded ledger, the process cap). Touches only
  /// atomics, so it is safe under any caller's lock.
  bool TryCharge(int64_t bytes);

  void Release(int64_t bytes);

  /// Latched by the operator that finally gives up on an allocation; the
  /// executor maps a failed segment with rejected() to kResourceExhausted.
  void MarkRejected();
  bool rejected() const {
    return rejected_.load(std::memory_order_acquire);
  }

  void AddSpilledBytes(int64_t bytes);

  int64_t budget_bytes() const { return budget_bytes_; }
  int64_t charged_bytes() const {
    return charged_.load(std::memory_order_relaxed);
  }
  int64_t peak_charged_bytes() const {
    return peak_.load(std::memory_order_relaxed);
  }
  int64_t spilled_bytes() const {
    return spilled_.load(std::memory_order_relaxed);
  }

  /// Sum of charged bytes across every ledger in the process (the aggregate
  /// behind the mem.charged_bytes gauge); 0 whenever no query holds memory.
  static int64_t TotalChargedBytes();
  /// Sum of every live ledger's budget (the mem.budget_bytes gauge).
  static int64_t TotalBudgetBytes();

  /// Caps TotalChargedBytes for bounded ledgers; <= 0 removes the cap.
  static void SetProcessCapBytes(int64_t cap);
  static int64_t process_cap_bytes();

 private:
  const int64_t budget_bytes_;
  std::atomic<int64_t> charged_{0};
  std::atomic<int64_t> peak_{0};
  std::atomic<int64_t> spilled_{0};
  std::atomic<bool> rejected_{false};

  MetricCounter* rejects_metric_;
};

}  // namespace claims

#endif  // CLAIMS_MEM_QUERY_BUDGET_H_
