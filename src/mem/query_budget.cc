#include "mem/query_budget.h"

#include "obs/metrics_registry.h"

namespace claims {

namespace {
/// Process-wide aggregates behind the /metrics gauges, which read them when
/// the registry is read (mem/block_pool.cc). Per-query gauges would be
/// unbounded-cardinality at millions-of-users rates; per-query numbers are
/// exposed through /queries instead (docs/MEMORY.md).
std::atomic<int64_t> g_total_charged{0};
std::atomic<int64_t> g_total_budget{0};
std::atomic<int64_t> g_process_cap{0};
}  // namespace

QueryBudget::QueryBudget(int64_t budget_bytes)
    : budget_bytes_(budget_bytes > 0 ? budget_bytes : 0),
      rejects_metric_(MetricsRegistry::Global()->counter("mem.degrade.rejects")) {
  g_total_budget.fetch_add(budget_bytes_, std::memory_order_relaxed);
}

QueryBudget::~QueryBudget() {
  g_total_budget.fetch_sub(budget_bytes_, std::memory_order_relaxed);
}

bool QueryBudget::TryCharge(int64_t bytes) {
  if (bytes <= 0) return true;
  if (budget_bytes_ > 0) {
    // Only a bounded ledger has a ladder to fall down, so only it honours
    // the process cap. The check is not atomic with the add below: racing
    // charges may overshoot the cap by one charge each.
    const int64_t cap = g_process_cap.load(std::memory_order_relaxed);
    if (cap > 0 &&
        g_total_charged.load(std::memory_order_relaxed) + bytes > cap) {
      return false;
    }
  }
  int64_t cur = charged_.load(std::memory_order_relaxed);
  while (true) {
    const int64_t next = cur + bytes;
    if (budget_bytes_ > 0 && next > budget_bytes_) return false;
    if (charged_.compare_exchange_weak(cur, next,
                                       std::memory_order_relaxed)) {
      break;
    }
  }
  const int64_t now = cur + bytes;
  int64_t peak = peak_.load(std::memory_order_relaxed);
  while (now > peak &&
         !peak_.compare_exchange_weak(peak, now, std::memory_order_relaxed)) {
  }
  g_total_charged.fetch_add(bytes, std::memory_order_relaxed);
  return true;
}

void QueryBudget::Release(int64_t bytes) {
  if (bytes <= 0) return;
  charged_.fetch_sub(bytes, std::memory_order_relaxed);
  g_total_charged.fetch_sub(bytes, std::memory_order_relaxed);
}

void QueryBudget::MarkRejected() {
  if (!rejected_.exchange(true, std::memory_order_acq_rel)) {
    rejects_metric_->Add();
  }
}

void QueryBudget::AddSpilledBytes(int64_t bytes) {
  if (bytes <= 0) return;
  spilled_.fetch_add(bytes, std::memory_order_relaxed);
  static MetricCounter* spills_metric =
      MetricsRegistry::Global()->counter("mem.degrade.spills");
  spills_metric->Add();
}

int64_t QueryBudget::TotalChargedBytes() {
  return g_total_charged.load(std::memory_order_relaxed);
}

int64_t QueryBudget::TotalBudgetBytes() {
  return g_total_budget.load(std::memory_order_relaxed);
}

void QueryBudget::SetProcessCapBytes(int64_t cap) {
  g_process_cap.store(cap > 0 ? cap : 0, std::memory_order_relaxed);
}

int64_t QueryBudget::process_cap_bytes() {
  return g_process_cap.load(std::memory_order_relaxed);
}

}  // namespace claims
