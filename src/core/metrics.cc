#include "core/metrics.h"

namespace claims {

const RecordOwner& OwnerOf(const SegmentStats* stats) {
  static const RecordOwner kAnonymous;
  return stats != nullptr ? stats->owner : kAnonymous;
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

double RateSampler::Sample(int64_t counter, int64_t now_ns) {
  if (!primed_) {
    primed_ = true;
    last_counter_ = counter;
    last_ns_ = now_ns;
    return 0.0;
  }
  int64_t dt = now_ns - last_ns_;
  int64_t dc = counter - last_counter_;
  last_counter_ = counter;
  last_ns_ = now_ns;
  if (dt <= 0) return 0.0;
  return static_cast<double>(dc) * 1e9 / static_cast<double>(dt);
}

void RateSampler::Reset() { primed_ = false; }

}  // namespace claims
