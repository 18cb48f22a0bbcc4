#ifndef CLAIMS_CORE_DATA_BUFFER_H_
#define CLAIMS_CORE_DATA_BUFFER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>

#include "common/macros.h"
#include "core/iterator.h"
#include "mem/query_budget.h"
#include "storage/block.h"

namespace claims {

/// The elastic iterator's joint output buffer (paper §3.1, Fig. 5): worker
/// threads insert result blocks concurrently; the single consumer (typically
/// the segment's sender) pops them via Pop(). The buffer is bounded, giving
/// natural backpressure — producer threads block when the consumer (or the
/// network behind it) cannot keep up, which is exactly the signal the dynamic
/// scheduler uses to detect over-producing segments.
///
/// In order-preserving mode (§3.2(2)) each producer's inserts must carry
/// non-decreasing block sequence numbers (the numbers the segment's own
/// operators wrote; see ElasticIterator::Options); Pop() then performs a
/// streaming k-way merge, releasing the globally smallest sequence number
/// only once no lagging producer can still insert a smaller one.
class DataBuffer {
 public:
  struct Options {
    size_t capacity_blocks = 64;
    bool order_preserving = false;
    /// Owning query's memory ledger; every queued block holds its payload
    /// bytes on it. Insert charges under mu_ once the block has room, so a
    /// producer waiting for room holds no charge; a refused charge queues
    /// nothing, latches the ledger's rejected() and fails the Insert.
    QueryBudget* budget = nullptr;
  };

  explicit DataBuffer(Options options) : options_(options) {}
  ~DataBuffer();
  CLAIMS_DISALLOW_COPY_AND_ASSIGN(DataBuffer);

  /// Registers a producer before its worker thread starts (or on expansion).
  void AddProducer(int producer_id);

  /// A producer will never insert again. `finished` distinguishes *why* it
  /// left: true means it exhausted its input (end-of-file), false means it was
  /// terminated early (shrink). The distinction matters for Pop's end-of-file
  /// decision: a buffer whose producers all left *terminated* is paused, not
  /// exhausted — an Expand may register a new producer and resume the stream.
  /// Without it, a consumer racing a departing worker against a concurrent
  /// AddProducer could observe zero producers and zero blocks and report a
  /// wrong (empty) end-of-file for a still-live segment.
  void RemoveProducer(int producer_id, bool finished = true);

  /// Inserts a block, blocking while the buffer is at capacity. Returns false
  /// if the buffer was cancelled while waiting, or when the query's memory
  /// ledger refused the block (the ledger's rejected() tells the two apart).
  bool Insert(int producer_id, BlockPtr block);

  /// Order-preserving mode only: promises that `producer_id` will never
  /// insert a block with sequence number < `seq` again, unblocking the merge
  /// across low-selectivity stretches.
  void AdvanceWatermark(int producer_id, uint64_t seq);

  /// Consumer side: pops one block, blocking until data is available or the
  /// stream is exhausted (kEndOfFile): every producer left and at least one
  /// of them finished (or none was ever registered). If all producers were
  /// terminated early, Pop keeps waiting for a replacement producer or
  /// Cancel. Cancellation also yields kEndOfFile.
  NextResult Pop(BlockPtr* out);

  /// Drops the queued blocks, refunding their ledger charge, and wakes all
  /// waiters; subsequent Inserts fail and Pops return end-of-file.
  void Cancel();

  size_t size() const;
  bool cancelled() const;
  int num_producers() const;

 private:
  struct ProducerQueue {
    std::deque<BlockPtr> blocks;
    uint64_t watermark = 0;  ///< producer never inserts a seq below this again
    bool finished = false;
  };

  // All guarded by mu_.
  void DropQueuedLocked();
  bool PopReadyLocked() const;
  bool ExhaustedLocked() const;
  size_t TotalLocked() const { return total_blocks_; }

  Options options_;
  mutable std::mutex mu_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<BlockPtr> fifo_;                 // unordered mode
  std::map<int, ProducerQueue> producers_;    // ordered mode uses queues
  size_t total_blocks_ = 0;
  int active_producers_ = 0;
  bool ever_had_producer_ = false;  ///< any AddProducer happened
  bool any_finished_ = false;       ///< a producer left via end-of-file
  bool cancelled_ = false;
};

}  // namespace claims

#endif  // CLAIMS_CORE_DATA_BUFFER_H_
