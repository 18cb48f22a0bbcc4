#ifndef CLAIMS_STORAGE_BLOCK_H_
#define CLAIMS_STORAGE_BLOCK_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>

#include "mem/block_pool.h"
#include "storage/schema.h"

namespace claims {

/// Default block payload: 64 KB, chosen in the paper (§5.1) to fit the L2
/// cache and used as the unit of pipelined data flow.
inline constexpr int32_t kDefaultBlockBytes = 64 * 1024;

/// A fixed-capacity batch of fixed-width rows — the basic processing unit of
/// the engine (block-at-a-time, paper §2.1). Besides the row payload a block
/// carries a sequence number (order preservation, §3.2), written by the
/// operator that fills the block. The other half of the paper's §4.3 tail,
/// the visit rate, belongs to one exchange edge and rides the envelope
/// (NetBlock), not the block.
///
/// A block is written only by the operator that fills it, through the
/// writable pointer MakeBlock returns. Once emitted it travels as a BlockPtr,
/// a pointer to const, so buffers, channels, broadcast consumers and scans
/// of the same storage block share it without copies or locks.
///
/// Only appended rows are defined. Nothing zeroes a block's capacity: the
/// payload is recycled pool memory, and every writer fills each byte of the
/// rows it appends (whole-row copies, or every column of a row slot; CHAR
/// columns NUL-pad to their width), so rows stay memcmp-comparable. Bytes
/// past num_rows() are never read.
class Block {
 public:
  /// Creates an empty block for rows of `row_size` bytes. The payload comes
  /// from the shared BlockPool, which never refuses, and is not initialised;
  /// a queued block is charged to its query's ledger by the buffer or
  /// channel holding it.
  explicit Block(int32_t row_size, int32_t capacity_bytes = kDefaultBlockBytes)
      : row_size_(row_size),
        capacity_rows_(capacity_bytes / (row_size > 0 ? row_size : 1)),
        payload_(BlockPool::Global()->Allocate(
            static_cast<size_t>(capacity_rows_) * row_size)) {}

  /// Deep copy (tests clone blocks via `std::make_shared<Block>(*block)`):
  /// same capacity, a fresh pooled payload holding a copy of the rows.
  Block(const Block& other)
      : row_size_(other.row_size_),
        capacity_rows_(other.capacity_rows_),
        num_rows_(other.num_rows_),
        sequence_number_(other.sequence_number_),
        payload_(BlockPool::Global()->Allocate(other.data_size())) {
    std::memcpy(payload_.data, other.payload_.data, other.payload_bytes());
  }
  Block& operator=(const Block&) = delete;

  ~Block() { BlockPool::Global()->Release(payload_); }

  int32_t row_size() const { return row_size_; }
  int32_t capacity_rows() const { return capacity_rows_; }
  int32_t num_rows() const { return num_rows_; }
  bool empty() const { return num_rows_ == 0; }
  bool full() const { return num_rows_ >= capacity_rows_; }
  int64_t payload_bytes() const {
    return static_cast<int64_t>(num_rows_) * row_size_;
  }
  int64_t capacity_bytes() const { return static_cast<int64_t>(data_size()); }

  const char* RowAt(int32_t i) const {
    return payload_.data + static_cast<size_t>(i) * row_size_;
  }
  char* MutableRowAt(int32_t i) {
    return payload_.data + static_cast<size_t>(i) * row_size_;
  }

  /// Reserves the next row slot; returns nullptr when full. The slot holds
  /// whatever its memory held before: the caller writes every byte of it.
  char* AppendRow() {
    if (full()) return nullptr;
    return MutableRowAt(num_rows_++);
  }

  /// Reserves the next `n` row slots and returns the first. The caller
  /// guarantees capacity and writes every byte of the slots.
  char* AppendRows(int32_t n) {
    char* first = MutableRowAt(num_rows_);
    num_rows_ += n;
    return first;
  }

  /// Appends a copy of `row` (must be row_size() bytes); false when full.
  bool AppendRowCopy(const char* row) {
    char* slot = AppendRow();
    if (slot == nullptr) return false;
    std::memcpy(slot, row, row_size_);
    return true;
  }

  /// Appends rows `sel[0..n)` of `src` (same row size). The caller guarantees
  /// capacity — this is the batch-kernel gather inner loop, so it does not
  /// re-check fullness per row.
  void AppendGather(const Block& src, const int32_t* sel, int32_t n) {
    char* dst = MutableRowAt(num_rows_);
    for (int32_t i = 0; i < n; ++i) {
      std::memcpy(dst, src.RowAt(sel[i]), row_size_);
      dst += row_size_;
    }
    num_rows_ += n;
  }

  /// Doubles the row capacity through the pool, keeping the rows appended so
  /// far: the output of an operator whose fan-out per input block is
  /// unbounded (the join probe) starts at the default size and grows only
  /// when it fills. Only the rows are copied.
  void DoubleCapacity() {
    const int32_t rows = std::max<int32_t>(1, capacity_rows_) * 2;
    const size_t bytes = static_cast<size_t>(rows) * row_size_;
    PoolAlloc bigger = BlockPool::Global()->Allocate(bytes);
    std::memcpy(bigger.data, payload_.data, payload_bytes());
    BlockPool::Global()->Release(payload_);
    payload_ = bigger;
    capacity_rows_ = rows;
  }

  void Clear() { num_rows_ = 0; }

  /// Order-preservation tag (§3.2): a scan writes the storage index, a sort
  /// the output rank, an aggregation the emit index; filter, project and
  /// join copy their input's number onto their output.
  uint64_t sequence_number() const { return sequence_number_; }
  void set_sequence_number(uint64_t s) { sequence_number_ = s; }

 private:
  /// Logical payload size (what capacity_bytes reports); payload_.bytes may
  /// be larger after size-class rounding.
  size_t data_size() const {
    return static_cast<size_t>(capacity_rows_) * row_size_;
  }

  int32_t row_size_;
  int32_t capacity_rows_;
  int32_t num_rows_ = 0;
  uint64_t sequence_number_ = 0;
  PoolAlloc payload_;
};

/// An emitted block: read-only, shared by every holder.
using BlockPtr = std::shared_ptr<const Block>;

/// A fresh block for the calling operator to fill; it converts to a BlockPtr
/// when emitted.
inline std::shared_ptr<Block> MakeBlock(
    int32_t row_size, int32_t capacity_bytes = kDefaultBlockBytes) {
  return std::make_shared<Block>(row_size, capacity_bytes);
}

}  // namespace claims

#endif  // CLAIMS_STORAGE_BLOCK_H_
