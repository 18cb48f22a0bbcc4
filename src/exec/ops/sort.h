#ifndef CLAIMS_EXEC_OPS_SORT_H_
#define CLAIMS_EXEC_OPS_SORT_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "core/barrier.h"
#include "core/iterator.h"

namespace claims {

class QueryBudget;

/// One ORDER BY key.
struct SortKey {
  int column;
  bool ascending = true;
};

/// Compares fixed-width rows on a key list (used by sort and by result
/// verification in tests).
class RowComparator {
 public:
  RowComparator(const Schema* schema, std::vector<SortKey> keys)
      : schema_(schema), keys_(std::move(keys)) {}

  /// <0, 0, >0 like memcmp.
  int Compare(const char* a, const char* b) const;
  bool operator()(const char* a, const char* b) const {
    return Compare(a, b) < 0;
  }

 private:
  const Schema* schema_;
  std::vector<SortKey> keys_;
};

/// Parallel sort — a pipeline breaker (appendix Alg. 8) in four phases:
///  1. all workers drain the child into a shared block buffer, then locally
///     sort one chunk (block) at a time into runs  — Barrier 1;
///  2. the call that opens Barrier 1 (its completion action) sorts any chunk
///     no worker claimed and computes global separator keys that split the
///     key space into ranges; no worker passes the barrier before it ends;
///  3. workers claim ranges and merge each range from all runs without any
///     further synchronization                                 — Barrier 3;
///  4. Next() hands out the range-ordered result blocks (sequence-numbered,
///     so an order-preserving elastic iterator keeps global order).
/// Terminate requests are honoured between blocks, chunks and ranges: a
/// shrinking worker completes the range it claimed, and a chunk it buffered
/// but nobody sorted is sorted in phase 2, so no row is lost.
///
/// Everything the sort holds until Close is charged to the query's ledger:
/// each buffered input block with 8 bytes per row for its run, and each
/// output block. A sort cannot spill, so a refused charge latches rejected()
/// and fails the segment; Close refunds every charge.
class SortIterator : public Iterator {
 public:
  /// `budget` (nullable) is the owning query's ledger; `num_ranges` is the
  /// merge granularity (work units of phase 3).
  SortIterator(std::unique_ptr<Iterator> child, const Schema* schema,
               std::vector<SortKey> keys, QueryBudget* budget = nullptr,
               int num_ranges = 16);

  NextResult Open(WorkerContext* ctx) override;
  NextResult Next(WorkerContext* ctx, BlockPtr* out) override;
  void Close() override;
  int SubtreeSize() const override { return 1 + child_->SubtreeSize(); }

  int64_t sorted_rows() const { return total_rows_.load(); }

 private:
  void DeregisterAll();
  /// Charges `bytes` to the ledger; false (rejected() latched) on refusal.
  bool Charge(int64_t bytes);
  /// The rows of `block`, sorted: one run.
  std::vector<const char*> MakeRun(const Block& block) const;
  /// Barrier 1's completion action (phase 2).
  void FinishRuns();

  std::unique_ptr<Iterator> child_;
  const Schema* schema_;
  RowComparator comparator_;
  QueryBudget* budget_;
  int num_ranges_;
  std::atomic<int64_t> charged_{0};  ///< refunded by Close

  DynamicBarrier barrier1_{[this] { FinishRuns(); }};
  DynamicBarrier barrier3_;

  std::mutex mu_;
  std::vector<BlockPtr> buffered_;                 // phase 1 input
  std::vector<std::vector<const char*>> runs_;     // phase 1 output
  std::vector<std::vector<char>> separators_;      // phase 2 output
  /// Phase 3 output, still writable: Next numbers the blocks by output rank
  /// once every range is merged.
  std::vector<std::vector<std::shared_ptr<Block>>> range_blocks_;

  std::atomic<int> chunk_cursor_{0};
  std::atomic<int> range_cursor_{0};
  std::atomic<int64_t> total_rows_{0};
  std::atomic<int64_t> emit_cursor_{0};
  std::vector<BlockPtr> emit_list_;  // flattened, built once after barrier 3
  std::mutex emit_mu_;
  std::atomic<bool> emit_ready_{false};
};

}  // namespace claims

#endif  // CLAIMS_EXEC_OPS_SORT_H_
