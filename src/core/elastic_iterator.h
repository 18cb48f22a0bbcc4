#ifndef CLAIMS_CORE_ELASTIC_ITERATOR_H_
#define CLAIMS_CORE_ELASTIC_ITERATOR_H_

#include <memory>
#include <mutex>
#include <vector>

#include "common/clock.h"
#include "common/macros.h"
#include "core/data_buffer.h"
#include "core/iterator.h"
#include "core/metrics.h"
#include "core/pooled_thread.h"
#include "obs/metrics_registry.h"

namespace claims {

/// The elastic iterator (paper §3, Fig. 4–5; appendix Alg. 2) — the operator
/// that upgrades a Volcano-style pipeline with runtime parallelism control.
///
/// It owns a pool of workers, each run on a parked thread (PooledThread),
/// that collaboratively drive the child iterator subtree: each worker
/// recursively calls child->Open() (parallel state construction — building
/// the shared hash table, sorting chunks, ...) and then repeatedly calls
/// child->Next(), inserting result blocks into the joint DataBuffer. The
/// parent iterator (typically the segment's sender) consumes blocks from the
/// buffer via this iterator's Next().
///
/// Elasticity:
///  * Expand() starts one more worker. Because every iterator state is shared
///    (§3: state sharing), the newcomer participates immediately — joining
///    state construction if the segment is in S1/S2, or data production if in
///    S3 — with *no* state migration. Expansion costs well under a
///    millisecond (Fig. 9a).
///  * Shrink() flags one worker for termination. The worker observes the flag
///    at the next block boundary (the termination checks injected into every
///    iterator's Open/Next), finishes its in-flight block so no tuple is lost,
///    deregisters from all barriers, and its thread parks — a few
///    milliseconds at most, growing with the depth of the active stage
///    (Fig. 9b).
class ElasticIterator : public Iterator {
 public:
  struct Options {
    int initial_parallelism = 1;
    int min_parallelism = 1;
    int max_parallelism = 256;
    size_t buffer_capacity_blocks = 64;
    /// The joint buffer releases blocks in sequence-number order (§3.2). The
    /// numbers are the ones the child's operators wrote: each worker must
    /// insert non-decreasing numbers, which a scan (storage index), a sort
    /// (output rank) or an aggregation (emit index) yields, and filter,
    /// project and join preserve. A merger does not renumber.
    bool order_preserving = false;
    /// Shared segment counters, and the owner stamped on this iterator's
    /// records; optional (unit tests may omit).
    SegmentStats* stats = nullptr;
    /// Owning query's memory ledger (passed through to the joint buffer); a
    /// refused block charge latches a segment error that the executor maps
    /// to kResourceExhausted.
    QueryBudget* budget = nullptr;
    Clock* clock = nullptr;  ///< defaults to SteadyClock
  };

  ElasticIterator(std::unique_ptr<Iterator> child, Options options);
  ~ElasticIterator() override;

  CLAIMS_DISALLOW_COPY_AND_ASSIGN(ElasticIterator);

  // --- Iterator interface (called by the single parent/consumer thread) ----

  /// Spawns the initial worker pool; returns immediately (state construction
  /// proceeds asynchronously — that *is* the pipeline).
  NextResult Open(WorkerContext* ctx) override;

  /// Pops one result block from the joint buffer; blocks until data arrives
  /// or every worker finished (kEndOfFile). If any worker's child subtree
  /// failed (Open or Next returned kError), returns kError instead of a
  /// wrong empty/partial end-of-file.
  NextResult Next(WorkerContext* ctx, BlockPtr* out) override;

  /// Terminates all workers, drains them, closes the child subtree and
  /// destroys it (child() is null afterwards).
  void Close() override;

  int SubtreeSize() const override {
    return 1 + (child_ != nullptr ? child_->SubtreeSize() : 0);
  }

  // --- Elasticity (called by the dynamic scheduler) -------------------------

  /// Adds one worker on (bookkeeping) core `core_id`. False if the segment is
  /// not open, failed, finished or at max parallelism.
  bool Expand(int core_id);

  /// Asynchronously removes one worker. False if at min parallelism or
  /// nothing to shrink.
  bool Shrink();

  /// Shrink and wait for the worker to fully terminate; returns the shrinkage
  /// delay in nanoseconds, or -1 on failure (Fig. 9b measurement).
  int64_t ShrinkBlocking();

  /// Expand and wait until the new worker is ready to process data; returns
  /// the expansion delay in nanoseconds, or -1 where Expand would return
  /// false (Fig. 9a).
  int64_t ExpandMeasured(int core_id);

  /// Number of live (non-terminated, non-finished) workers.
  int parallelism() const;

  /// Most workers that were ever live at once.
  int peak_parallelism() const;

  /// True once every worker exhausted the input — or a worker failed (an
  /// errored segment is terminal; the scheduler must stop feeding it cores).
  bool finished() const;

  /// True once any worker's child subtree reported kError. Latched: the
  /// first error wins, cancels the buffer, and is re-raised by Next().
  bool failed() const { return error_.load(std::memory_order_acquire); }

  DataBuffer* buffer() { return &buffer_; }
  Iterator* child() { return child_.get(); }

 private:
  struct Worker {
    PooledThread thread;
    std::atomic<bool> terminate{false};
    std::atomic<bool> done{false};
    std::atomic<bool> ready{false};  ///< passed Open; processing data
    int worker_id = 0;
    int core_id = 0;
  };

  void WorkerMain(Worker* worker);
  /// Latches the first child error and cancels the buffer so the consumer
  /// and the remaining workers unwind promptly.
  void LatchError();
  /// Whether Expand may add a worker; caller holds mu_.
  bool CanExpandLocked() const;
  /// The newest live worker, or nullptr when shrinking is refused (not open,
  /// closed, or at min parallelism); caller holds mu_.
  Worker* ShrinkVictimLocked() const;
  /// Starts a worker; caller holds mu_.
  Worker* StartWorkerLocked(int core_id);
  /// Joins all worker threads; must NOT hold mu_ (workers take it on exit).
  void JoinAllWorkers();

  std::unique_ptr<Iterator> child_;
  Options options_;
  Clock* clock_;
  DataBuffer buffer_;

  // Process-wide elasticity metrics (pointers resolved once; updates are
  // relaxed atomics, so Expand/Shrink latency is unaffected).
  MetricCounter* expand_metric_;
  MetricCounter* shrink_metric_;
  MetricHistogram* expand_latency_metric_;
  MetricHistogram* shrink_latency_metric_;
  MetricGauge* buffer_peak_metric_;  ///< high-watermark, labelled per segment

  /// First child error, if any (see failed()). Atomic so Next()/Expand can
  /// read it without taking mu_.
  std::atomic<bool> error_{false};

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Worker>> workers_;
  int next_worker_id_ = 0;
  int live_workers_ = 0;       ///< started and neither finished nor terminated
  int peak_parallelism_ = 0;   ///< high-watermark of live_workers_
  int finished_workers_ = 0;   ///< exited via end-of-file
  bool opened_ = false;
  bool closed_ = false;
};

}  // namespace claims

#endif  // CLAIMS_CORE_ELASTIC_ITERATOR_H_
