#include "exec/ops/profiling_iterator.h"

#include "common/clock.h"

namespace claims {

ProfilingIterator::~ProfilingIterator() {
  // Normal teardown goes through Close(); the fallback covers error paths
  // where a segment unwinds without closing its tree.
  EmitSpan();
}

void ProfilingIterator::NoteInterval(int64_t start_ns, int64_t end_ns) {
  busy_ns_.fetch_add(end_ns - start_ns, std::memory_order_relaxed);
  int64_t cur = first_start_ns_.load(std::memory_order_relaxed);
  while (start_ns < cur && !first_start_ns_.compare_exchange_weak(
                               cur, start_ns, std::memory_order_relaxed)) {
  }
  cur = last_end_ns_.load(std::memory_order_relaxed);
  while (end_ns > cur && !last_end_ns_.compare_exchange_weak(
                             cur, end_ns, std::memory_order_relaxed)) {
  }
}

NextResult ProfilingIterator::Open(WorkerContext* ctx) {
  const int64_t t0 = SteadyClock::Default()->NowNanos();
  NextResult r = child_->Open(ctx);
  NoteInterval(t0, SteadyClock::Default()->NowNanos());
  return r;
}

NextResult ProfilingIterator::Next(WorkerContext* ctx, BlockPtr* out) {
  const int64_t t0 = SteadyClock::Default()->NowNanos();
  NextResult r = child_->Next(ctx, out);
  NoteInterval(t0, SteadyClock::Default()->NowNanos());
  calls_.fetch_add(1, std::memory_order_relaxed);
  if (r == NextResult::kSuccess && *out != nullptr) {
    rows_.fetch_add((*out)->num_rows(), std::memory_order_relaxed);
  }
  return r;
}

void ProfilingIterator::Close() {
  child_->Close();
  EmitSpan();
}

void ProfilingIterator::EmitSpan() {
  if (emitted_.exchange(true, std::memory_order_acq_rel)) return;
  EventRecorder* rec = EventRecorder::Global();
  if (!rec->enabled()) return;
  const int64_t first = first_start_ns_.load(std::memory_order_relaxed);
  EventRecord span(EventKind::kOperator, identity_.owner,
                   first == INT64_MAX ? 0 : first,
                   last_end_ns_.load(std::memory_order_relaxed));
  span.name = identity_.op_name;
  span.op_id = identity_.op_id;
  span.parent_op = identity_.parent_op;
  span.busy_ns = busy_ns_.load(std::memory_order_relaxed);
  span.tuples = rows_.load(std::memory_order_relaxed);
  span.bytes = calls_.load(std::memory_order_relaxed);  // Next() call count
  if (identity_.est_rows >= 0) {
    span.AddArg("est_rows", static_cast<double>(identity_.est_rows));
  }
  rec->Record(std::move(span));
}

}  // namespace claims
