#include "wlm/admission.h"

#include <algorithm>
#include <cstdlib>

#include "storage/block.h"

namespace claims {

QueryDemand EstimateDemand(const PhysicalPlan& plan, const ExecOptions& exec) {
  QueryDemand demand;
  demand.cores = 0;
  for (const auto& f : plan.fragments) {
    const int per_instance = std::max(1, exec.parallelism);
    int instances = static_cast<int>(f->nodes.size());
    demand.cores += per_instance * instances;
    demand.memory_bytes += static_cast<int64_t>(instances) *
                           static_cast<int64_t>(exec.buffer_capacity_blocks) *
                           kDefaultBlockBytes;
  }
  demand.cores = std::max(1, demand.cores);
  return demand;
}

AdmissionController::AdmissionController(AdmissionOptions options)
    : options_(options) {
  MetricsRegistry* reg = MetricsRegistry::Global();
  running_gauge_ = reg->gauge("wlm.running");
  cores_gauge_ = reg->gauge("wlm.cores_in_flight");
  memory_gauge_ = reg->gauge("wlm.memory_in_flight");
  admitted_metric_ = reg->counter("wlm.admitted");
  estimate_error_metric_ = reg->histogram("wlm.mem_estimate_error");
}

namespace {

/// The ledger clamps each reservation at the budget: an oversized query
/// admitted into an idle system books the whole budget (excluding everyone
/// else while it runs) rather than breaking the `in-flight <= budget`
/// invariant the rest of the system monitors. The receipt records the
/// clamped values, so Release returns exactly them.
int64_t Clamped(int64_t demand, int64_t budget) {
  return budget > 0 ? std::min(demand, budget) : demand;
}

}  // namespace

bool AdmissionController::TryAdmit(const QueryDemand& demand,
                                   AdmissionReservation* reservation) {
  std::lock_guard<std::mutex> lock(mu_);
  // An idle system admits anything: a query bigger than a budget must not
  // starve, it simply runs alone.
  if (running_ > 0) {
    if (options_.max_concurrent > 0 && running_ >= options_.max_concurrent) {
      return false;
    }
    if (options_.core_budget > 0 &&
        cores_ + demand.cores > options_.core_budget) {
      return false;
    }
    if (options_.memory_budget_bytes > 0 &&
        memory_ + demand.memory_bytes > options_.memory_budget_bytes) {
      return false;
    }
  }
  const int booked_cores =
      static_cast<int>(Clamped(demand.cores, options_.core_budget));
  const int64_t booked_memory =
      Clamped(demand.memory_bytes, options_.memory_budget_bytes);
  ++running_;
  cores_ += booked_cores;
  memory_ += booked_memory;
  running_gauge_->Set(running_);
  cores_gauge_->Set(cores_);
  memory_gauge_->Set(static_cast<double>(memory_));
  admitted_metric_->Add();
  reservation->cores = booked_cores;
  reservation->memory_bytes = booked_memory;
  reservation->estimate_bytes = demand.memory_bytes;
  reservation->active = true;
  return true;
}

void AdmissionController::ReleaseBookedLocked(int cores,
                                              int64_t memory_bytes) {
  --running_;
  cores_ -= cores;
  memory_ -= memory_bytes;
  running_gauge_->Set(running_);
  cores_gauge_->Set(cores_);
  memory_gauge_->Set(static_cast<double>(memory_));
}

void AdmissionController::Release(AdmissionReservation* reservation) {
  if (reservation == nullptr || !reservation->active) return;
  reservation->active = false;
  std::lock_guard<std::mutex> lock(mu_);
  // Release exactly what TryAdmit booked. Re-deriving the clamp from the
  // demand here would skew the books whenever a budget changed between
  // admit and release (or the clamp diverged from the estimate).
  ReleaseBookedLocked(reservation->cores, reservation->memory_bytes);
}

void AdmissionController::ReleaseWithActual(AdmissionReservation* reservation,
                                            int64_t actual_peak_bytes) {
  if (reservation != nullptr && reservation->active &&
      actual_peak_bytes >= 0) {
    estimate_error_metric_->Record(static_cast<double>(
        std::abs(reservation->estimate_bytes - actual_peak_bytes)));
  }
  Release(reservation);
}

int AdmissionController::running() const {
  std::lock_guard<std::mutex> lock(mu_);
  return running_;
}

int AdmissionController::cores_in_flight() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cores_;
}

int64_t AdmissionController::memory_in_flight() const {
  std::lock_guard<std::mutex> lock(mu_);
  return memory_;
}

}  // namespace claims
