#include "core/data_buffer.h"

#include <algorithm>

namespace claims {

void DataBuffer::AddProducer(int producer_id) {
  std::lock_guard<std::mutex> lock(mu_);
  ++active_producers_;
  ever_had_producer_ = true;
  if (options_.order_preserving) {
    producers_.emplace(producer_id, ProducerQueue{});
  }
}

void DataBuffer::RemoveProducer(int producer_id, bool finished) {
  std::lock_guard<std::mutex> lock(mu_);
  --active_producers_;
  if (finished) any_finished_ = true;
  if (options_.order_preserving) {
    auto it = producers_.find(producer_id);
    if (it != producers_.end()) it->second.finished = true;
  }
  // A departing producer can complete the merge precondition or signal EOF.
  not_empty_.notify_all();
}

DataBuffer::~DataBuffer() {
  std::lock_guard<std::mutex> lock(mu_);
  DropQueuedLocked();
}

void DataBuffer::DropQueuedLocked() {
  // A torn-down or cancelled stream's queued blocks are never popped: refund
  // their charges so the ledger balances as soon as the stream ends.
  int64_t charged = 0;
  for (const BlockPtr& b : fifo_) charged += b->payload_bytes();
  fifo_.clear();
  for (auto& [id, q] : producers_) {
    for (const BlockPtr& b : q.blocks) charged += b->payload_bytes();
    q.blocks.clear();
  }
  total_blocks_ = 0;
  if (options_.budget != nullptr) options_.budget->Release(charged);
}

bool DataBuffer::Insert(int producer_id, BlockPtr block) {
  std::unique_lock<std::mutex> lock(mu_);
  ProducerQueue* q = nullptr;
  if (options_.order_preserving) {
    q = &producers_.at(producer_id);
    // A producer whose queue is empty may be the one gating the k-way merge;
    // refusing its insert at capacity would deadlock the pipeline, so the
    // bound only applies once it has data queued (worst case: capacity + P).
    if (!cancelled_ && total_blocks_ >= options_.capacity_blocks &&
        !q->blocks.empty()) {
      not_full_.wait(lock, [&] {
        return cancelled_ || total_blocks_ < options_.capacity_blocks ||
               q->blocks.empty();
      });
    }
  } else if (!cancelled_ && total_blocks_ >= options_.capacity_blocks) {
    not_full_.wait(lock, [&] {
      return cancelled_ || total_blocks_ < options_.capacity_blocks;
    });
  }
  if (cancelled_) return false;
  // Charged once the block has room, so the ledger holds what the buffer
  // holds; a refusal queues nothing.
  QueryBudget* budget = options_.budget;
  if (budget != nullptr && !budget->TryCharge(block->payload_bytes())) {
    budget->MarkRejected();
    return false;
  }
  if (q != nullptr) {
    q->watermark = std::max(q->watermark, block->sequence_number());
    q->blocks.push_back(std::move(block));
  } else {
    fifo_.push_back(std::move(block));
  }
  ++total_blocks_;
  not_empty_.notify_one();
  return true;
}

void DataBuffer::AdvanceWatermark(int producer_id, uint64_t seq) {
  if (!options_.order_preserving) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = producers_.find(producer_id);
  if (it == producers_.end()) return;
  if (seq > it->second.watermark) {
    it->second.watermark = seq;
    not_empty_.notify_all();
  }
}

bool DataBuffer::PopReadyLocked() const {
  if (total_blocks_ == 0) return false;
  if (!options_.order_preserving) return true;
  // Find the globally smallest queued sequence number.
  uint64_t min_seq = UINT64_MAX;
  for (const auto& [id, q] : producers_) {
    if (!q.blocks.empty()) {
      min_seq = std::min(min_seq, q.blocks.front()->sequence_number());
    }
  }
  if (min_seq == UINT64_MAX) return false;
  // Releasable only if no lagging producer can still insert a smaller one.
  for (const auto& [id, q] : producers_) {
    if (q.blocks.empty() && !q.finished && q.watermark < min_seq) return false;
  }
  return true;
}

bool DataBuffer::ExhaustedLocked() const {
  // End-of-file is only genuine when no producer is left AND at least one of
  // them ran its input dry (or none ever registered). If every current
  // producer departed *terminated* — all shrunk away, none finished — the
  // input is not exhausted; the stream is paused until an Expand registers a
  // replacement producer (or Cancel ends it). This closes the premature-EOF
  // window where a consumer woke between a departing worker's RemoveProducer
  // and a concurrent AddProducer and saw 0 producers / 0 blocks.
  return active_producers_ == 0 && total_blocks_ == 0 &&
         (any_finished_ || !ever_had_producer_);
}

NextResult DataBuffer::Pop(BlockPtr* out) {
  std::unique_lock<std::mutex> lock(mu_);
  not_empty_.wait(lock, [&] {
    return cancelled_ || PopReadyLocked() || ExhaustedLocked();
  });
  if (cancelled_) return NextResult::kEndOfFile;
  if (ExhaustedLocked()) return NextResult::kEndOfFile;
  if (options_.order_preserving) {
    ProducerQueue* best = nullptr;
    uint64_t min_seq = UINT64_MAX;
    for (auto& [id, q] : producers_) {
      if (!q.blocks.empty() && q.blocks.front()->sequence_number() < min_seq) {
        min_seq = q.blocks.front()->sequence_number();
        best = &q;
      }
    }
    *out = std::move(best->blocks.front());
    best->blocks.pop_front();
  } else {
    *out = std::move(fifo_.front());
    fifo_.pop_front();
  }
  --total_blocks_;
  if (options_.budget != nullptr) options_.budget->Release((*out)->payload_bytes());
  // notify_all, not notify_one: a pop can simultaneously free a capacity slot
  // for one producer and enable the empty-queue bypass of another; waking the
  // wrong single producer loses the wakeup and deadlocks the merge.
  not_full_.notify_all();
  return NextResult::kSuccess;
}

void DataBuffer::Cancel() {
  std::lock_guard<std::mutex> lock(mu_);
  cancelled_ = true;
  DropQueuedLocked();
  not_empty_.notify_all();
  not_full_.notify_all();
}

size_t DataBuffer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_blocks_;
}

bool DataBuffer::cancelled() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cancelled_;
}

int DataBuffer::num_producers() const {
  std::lock_guard<std::mutex> lock(mu_);
  return active_producers_;
}

}  // namespace claims
