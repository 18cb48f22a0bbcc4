#ifndef CLAIMS_CORE_METRICS_H_
#define CLAIMS_CORE_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>

#include "common/clock.h"
#include "obs/recorder.h"

namespace claims {

/// Worker time of one segment: how long its workers were live, and of that
/// how long they were blocked on input (starved) or on output (a full buffer
/// or network). The scheduler's blocked fractions are Δblocked ÷ Δlive
/// between ticks (§4.4); the real engine and the simulator write the same
/// meter. A read counts each interval still open up to the read's instant,
/// so a wait is charged to the tick it happens in. Writers and the reader
/// take the clock under one leaf lock, so a read is exact; as a worker
/// waits only while live, and never on input and output at once,
/// Δblocked_input + Δblocked_output ≤ Δlive between any two reads.
class WorkerTimeMeter {
 public:
  enum Kind { kLive = 0, kBlockedInput = 1, kBlockedOutput = 2 };

  /// The three totals at one instant, `at_ns`.
  struct Reading {
    int64_t at_ns = 0;
    int64_t live_ns = 0;
    int64_t blocked_input_ns = 0;
    int64_t blocked_output_ns = 0;
  };

  /// Open and Close start and end one interval of `kind` now and return
  /// that instant.
  int64_t Open(Kind kind, const Clock& clock);
  int64_t Close(Kind kind, const Clock& clock);
  Reading Read(const Clock& clock) const;

 private:
  /// Per kind: the intervals' ends minus their starts, an open one counting
  /// its start only, and how many are open; a read at t adds open · t.
  struct Total { int64_t ends_minus_starts_ns = 0, open = 0; };

  mutable std::mutex mu_;
  Total totals_[3];  ///< indexed by Kind; guarded by mu_
};

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
  /// Live and blocked worker time.
  WorkerTimeMeter worker_time;
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

/// WorkerTimeMeter::Open / Close on `stats`'s meter; without segment
/// counters (unit tests, benches) they only read the clock.
int64_t OpenInterval(SegmentStats* stats, WorkerTimeMeter::Kind kind,
                     const Clock& clock);
int64_t CloseInterval(SegmentStats* stats, WorkerTimeMeter::Kind kind,
                      const Clock& clock);

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

}  // namespace claims

#endif  // CLAIMS_CORE_METRICS_H_
