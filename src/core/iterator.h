#ifndef CLAIMS_CORE_ITERATOR_H_
#define CLAIMS_CORE_ITERATOR_H_

#include <atomic>
#include <cstdint>

#include "storage/block.h"

namespace claims {

struct SegmentStats;

/// Result of Iterator::Open / Iterator::Next, following the paper's appendix:
/// SUCCESS carries a block (Next) or a constructed state (Open); TERMINATED
/// means the calling worker thread observed a terminate request (shrinkage)
/// and must unwind; end-of-file means the input dataflow is exhausted. ERROR
/// means the operator failed (bad input, resource exhaustion, ...): the
/// stream is broken, not merely empty — consumers must not report the blocks
/// seen so far as a complete result. ElasticIterator latches the first error
/// any of its workers observes and re-raises it from its own Next().
enum class NextResult {
  kSuccess = 0,
  kEndOfFile = 1,
  kTerminated = 2,
  kError = 3,
};

/// Per-worker-thread execution context threaded through every Open/Next call.
/// It carries the terminate flag polled by `DetectedTerminateRequest()` (the
/// appendix's termination checks), the worker's bookkeeping core used by the
/// context-reuse pool (§3.2), and the segment's shared statistics counters
/// read by the dynamic scheduler.
struct WorkerContext {
  int worker_id = 0;
  /// Bookkeeping core the scheduler assigned (threads are not pinned); the
  /// context pool reuses a parked context only on the same core.
  int core_id = 0;

  /// Set by ElasticIterator::Shrink; checked at block boundaries.
  std::atomic<bool>* terminate_requested = nullptr;

  /// Set by the stage beginner when this worker takes its first data block —
  /// the paper's "beginning of data processing" moment that bounds the
  /// expansion delay (Fig. 9a). A worker expanded into a blocking state
  /// construction starts processing long before Open returns.
  std::atomic<bool>* processing_started = nullptr;

  /// Metrics sink for the dynamic scheduler; may be null in unit tests.
  SegmentStats* stats = nullptr;

  bool DetectedTerminateRequest() const {
    return terminate_requested != nullptr &&
           terminate_requested->load(std::memory_order_acquire);
  }
};

/// The elastic iterator model's operator interface (paper §3.1). Unlike the
/// classic Volcano protocol, Open and Next are **thread-safe and called
/// concurrently by all worker threads of a segment**:
///
///  * `Open` recursively constructs iterator state. Non-blocking iterators
///    (scan, filter, project) build theirs at construction and only forward
///    Open; blocking iterators (hash join build, aggregation, sort) let every
///    worker consume child blocks in parallel into a shared state behind a
///    dynamic barrier. Returns kTerminated if the calling worker received a
///    terminate request mid-construction.
///  * `Next` produces one output block per call and never writes a block it
///    received: emitted blocks are read-only (BlockPtr). Read-only iterators
///    need no synchronization; state-updating iterators use atomics/CAS.
///  * `Close` tears down the subtree; called once after all workers exited.
class Iterator {
 public:
  virtual ~Iterator() = default;

  virtual NextResult Open(WorkerContext* ctx) = 0;
  virtual NextResult Next(WorkerContext* ctx, BlockPtr* out) = 0;
  virtual void Close() = 0;

  /// Number of iterators in this subtree (used by Fig. 9 overhead benches).
  virtual int SubtreeSize() const { return 1; }
};

}  // namespace claims

#endif  // CLAIMS_CORE_ITERATOR_H_
