#ifndef CLAIMS_EXEC_OPS_PROFILING_ITERATOR_H_
#define CLAIMS_EXEC_OPS_PROFILING_ITERATOR_H_

#include <atomic>
#include <memory>
#include <string>
#include <utility>

#include "common/macros.h"
#include "core/iterator.h"
#include "obs/recorder.h"

namespace claims {

/// Transparent per-operator time attribution: wraps one Iterator and
/// accumulates the wall time every elastic worker spends inside its
/// Open/Next/Close calls, recording a single kOperator span at Close. The
/// Executor inserts one wrapper per plan operator **only while the
/// EventRecorder is on** — with recording off there is no wrapper at all,
/// no virtual-call overhead, nothing (the fig09 branch-cheapness claim is
/// about the armed-but-unscraped path, which costs two clock reads and a few
/// relaxed atomics per Next).
///
/// Time model: `busy_ns` sums call durations across workers, so it is
/// CPU-flavored inclusive time (can exceed the wall interval when several
/// workers drive the subtree). A child wrapper's calls nest inside the
/// parent's, so the assembler's exclusive = inclusive − Σ children telescopes
/// back to the root's inclusive time per segment.
class ProfilingIterator : public Iterator {
 public:
  struct Identity {
    RecordOwner owner;    ///< owning query, segment instance and node
    std::string op_name;  ///< e.g. "scan(lineitem)", "hash-join"
    /// Pre-order position in the segment's operator tree; parent_op = -1
    /// marks the segment root.
    int op_id = -1;
    int parent_op = -1;
    /// The planner's output-row estimate for the operator (POp::est_rows),
    /// recorded as the span's "est_rows" arg; -1 records none.
    int64_t est_rows = -1;
  };

  ProfilingIterator(std::unique_ptr<Iterator> child, Identity identity)
      : child_(std::move(child)), identity_(std::move(identity)) {}
  ~ProfilingIterator() override;

  CLAIMS_DISALLOW_COPY_AND_ASSIGN(ProfilingIterator);

  NextResult Open(WorkerContext* ctx) override;
  NextResult Next(WorkerContext* ctx, BlockPtr* out) override;
  void Close() override;

  /// Transparent: the wrapper must not change Fig. 9's per-iterator overhead
  /// accounting or any depth-derived behavior.
  int SubtreeSize() const override { return child_->SubtreeSize(); }

  Iterator* child() { return child_.get(); }

 private:
  /// CAS-min/max over concurrent workers.
  void NoteInterval(int64_t start_ns, int64_t end_ns);
  /// Records the kOperator span exactly once (Close, or destructor fallback).
  void EmitSpan();

  std::unique_ptr<Iterator> child_;
  Identity identity_;

  std::atomic<int64_t> busy_ns_{0};
  std::atomic<int64_t> calls_{0};
  std::atomic<int64_t> rows_{0};
  std::atomic<int64_t> first_start_ns_{INT64_MAX};
  std::atomic<int64_t> last_end_ns_{0};
  std::atomic<bool> emitted_{false};
};

}  // namespace claims

#endif  // CLAIMS_EXEC_OPS_PROFILING_ITERATOR_H_
