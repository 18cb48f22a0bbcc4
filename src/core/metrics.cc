#include "core/metrics.h"

namespace claims {

int64_t WorkerTimeMeter::Open(Kind kind, const Clock& clock) {
  std::lock_guard<std::mutex> lock(mu_);
  const int64_t now = clock.NowNanos();
  totals_[kind].ends_minus_starts_ns -= now;
  ++totals_[kind].open;
  return now;
}

int64_t WorkerTimeMeter::Close(Kind kind, const Clock& clock) {
  std::lock_guard<std::mutex> lock(mu_);
  const int64_t now = clock.NowNanos();
  totals_[kind].ends_minus_starts_ns += now;
  --totals_[kind].open;
  return now;
}

WorkerTimeMeter::Reading WorkerTimeMeter::Read(const Clock& clock) const {
  std::lock_guard<std::mutex> lock(mu_);
  Reading r;
  r.at_ns = clock.NowNanos();
  auto total = [&](Kind kind) {
    return totals_[kind].ends_minus_starts_ns + totals_[kind].open * r.at_ns;
  };
  r.live_ns = total(kLive);
  r.blocked_input_ns = total(kBlockedInput);
  r.blocked_output_ns = total(kBlockedOutput);
  return r;
}

const RecordOwner& OwnerOf(const SegmentStats* stats) {
  static const RecordOwner kAnonymous;
  return stats != nullptr ? stats->owner : kAnonymous;
}

int64_t OpenInterval(SegmentStats* stats, WorkerTimeMeter::Kind kind,
                     const Clock& clock) {
  return stats != nullptr ? stats->worker_time.Open(kind, clock)
                          : clock.NowNanos();
}

int64_t CloseInterval(SegmentStats* stats, WorkerTimeMeter::Kind kind,
                      const Clock& clock) {
  return stats != nullptr ? stats->worker_time.Close(kind, clock)
                          : clock.NowNanos();
}

void VisitRateAggregator::Observe(int producer_id, double tail_visit_rate) {
  // Invariant: stats_->visit_rate is written ONLY here, under mu_, as one
  // store of a value derived entirely from mu_-guarded state (the incremental
  // sum over `latest_`). There is never a load-modify-store on the atomic
  // itself, so concurrent Observe calls cannot interleave halfway and lose an
  // update. Readers (the scheduler's sampling path, reports) use relaxed
  // loads: they may see a value that lags by a block tail, but always one
  // that equals Σ latest contributions at some point in time.
  std::lock_guard<std::mutex> lock(mu_);
  double& slot = latest_[producer_id];  // value-initialized to 0.0 when new
  sum_ += tail_visit_rate - slot;
  slot = tail_visit_rate;
  stats_->visit_rate.store(sum_, std::memory_order_relaxed);
}

}  // namespace claims
