#ifndef CLAIMS_CORE_METRICS_H_
#define CLAIMS_CORE_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>

#include "common/clock.h"
#include "obs/recorder.h"

namespace claims {

/// Shared runtime counters of one segment, updated by its worker threads and
/// sampled by the dynamic scheduler each tick (paper §4.3–4.4). The real
/// engine updates them with wall-clock nanoseconds; the virtual-time
/// simulator updates the identical structure with virtual nanoseconds, so
/// the scheduler code is substrate-agnostic.
struct SegmentStats {
  /// Identity stamped on every record the segment's components store
  /// (query id, segment label, node). Set once, before the segment runs;
  /// read-only afterwards.
  RecordOwner owner;
  /// Tuples consumed at the stage beginner (scan/merger) — the basis of the
  /// processing rate T_i.
  std::atomic<int64_t> input_tuples{0};
  /// Tuples emitted into the elastic iterator's buffer; input vs output gives
  /// the segment selectivity δ_i.
  std::atomic<int64_t> output_tuples{0};
  /// Time workers spent blocked waiting for input (starved) or for space in
  /// the output buffer / network (over-producing). Used to decide whether a
  /// measured rate is "under-estimated" (§4.4) and to classify segments for
  /// Algorithm 1.
  std::atomic<int64_t> blocked_input_ns{0};
  std::atomic<int64_t> blocked_output_ns{0};
  /// Average visit rate V_i aggregated from input block tails (§4.3).
  std::atomic<double> visit_rate{1.0};
  /// Payload bytes the segment's sender delivered to another host; the
  /// query's remote bytes are the sum over its segments.
  std::atomic<int64_t> remote_bytes{0};

  double selectivity() const {
    int64_t in = input_tuples.load(std::memory_order_relaxed);
    int64_t out = output_tuples.load(std::memory_order_relaxed);
    return in == 0 ? 1.0 : static_cast<double>(out) / static_cast<double>(in);
  }
};

/// `stats`'s owner, or an anonymous one for components run without segment
/// counters (unit tests, benches).
const RecordOwner& OwnerOf(const SegmentStats* stats);

/// Aggregates the visit-rate contributions that exchange envelopes carry: a
/// segment's V_i is the sum of the latest contribution from each producer
/// (paper Fig. 7: V_j = Σ_i p_ij · δ_i · V_i). The merger calls Observe per
/// received block; the running sum lands in SegmentStats::visit_rate.
class VisitRateAggregator {
 public:
  explicit VisitRateAggregator(SegmentStats* stats) : stats_(stats) {}

  /// Records the latest tail value from `producer_id` and refreshes V_i.
  ///
  /// Thread safety: the whole update — map slot, running sum, and the store
  /// into SegmentStats::visit_rate — happens under mu_, so the atomic only
  /// ever receives complete sums (no read-modify-write races between
  /// concurrent observers). visit_rate readers take relaxed loads.
  void Observe(int producer_id, double tail_visit_rate);

 private:
  SegmentStats* stats_;
  std::mutex mu_;
  std::map<int, double> latest_;
  double sum_ = 0.0;  ///< Σ latest_ values, maintained incrementally
};

/// Differentiates a monotone counter into an instantaneous rate between
/// scheduler ticks.
class RateSampler {
 public:
  /// Returns the rate (units/sec) since the previous Sample call; the first
  /// call primes the baseline and returns 0.
  double Sample(int64_t counter, int64_t now_ns);

  void Reset();

 private:
  bool primed_ = false;
  int64_t last_counter_ = 0;
  int64_t last_ns_ = 0;
};

}  // namespace claims

#endif  // CLAIMS_CORE_METRICS_H_
