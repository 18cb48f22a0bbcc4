#include "net/channel.h"

#include <atomic>
#include <chrono>

#include "mem/query_budget.h"

namespace claims {

BlockChannel::BlockChannel(int num_producers, int capacity_blocks,
                           QueryBudget* budget)
    : capacity_(capacity_blocks), budget_(budget),
      open_producers_(num_producers) {}

BlockChannel::~BlockChannel() {
  // A cancelled or failed query can tear its exchanges down with blocks
  // still queued; their charges go back so the ledger balances.
  std::lock_guard<std::mutex> lock(mu_);
  DropQueuedLocked();
}

void BlockChannel::DropQueuedLocked() {
  if (budget_ != nullptr) {
    int64_t charged = 0;
    for (const NetBlock& nb : queue_) charged += nb.wire_bytes();
    if (charged > 0) budget_->Release(charged);
  }
  queue_.clear();
}

bool BlockChannel::Enqueue(NetBlock block, const std::atomic<bool>* cancel,
                           bool assign_seq, uint64_t* assigned_seq) {
  std::unique_lock<std::mutex> lock(mu_);
  while (capacity_ > 0 && static_cast<int>(queue_.size()) >= capacity_ &&
         !cancelled_) {
    if (cancel != nullptr && cancel->load(std::memory_order_acquire)) {
      return false;
    }
    not_full_.wait_for(lock, std::chrono::milliseconds(1));
  }
  if (cancelled_) return false;
  // Charged once the block has room, so a sender still waiting holds no
  // charge; a refusal queues nothing and takes no wire sequence number.
  if (budget_ != nullptr && !budget_->TryCharge(block.wire_bytes())) {
    budget_->MarkRejected();
    return false;
  }
  if (assign_seq) block.wire_seq = next_send_seq_[block.from_node]++;
  if (assigned_seq != nullptr) *assigned_seq = block.wire_seq;
  queue_.push_back(std::move(block));
  not_empty_.notify_one();
  return true;
}

bool BlockChannel::Send(NetBlock block, const std::atomic<bool>* cancel,
                        uint64_t* assigned_seq) {
  return Enqueue(std::move(block), cancel, /*assign_seq=*/true, assigned_seq);
}

bool BlockChannel::SendDuplicate(NetBlock block,
                                 const std::atomic<bool>* cancel) {
  return Enqueue(std::move(block), cancel, /*assign_seq=*/false, nullptr);
}

void BlockChannel::CloseProducer() {
  std::lock_guard<std::mutex> lock(mu_);
  --open_producers_;
  if (open_producers_ <= 0) not_empty_.notify_all();
}

ChannelStatus BlockChannel::Receive(NetBlock* out, int64_t timeout_ns) {
  std::unique_lock<std::mutex> lock(mu_);
  // timeout_ns <= 0 is a non-blocking poll: decide from current state only.
  if (timeout_ns > 0) {
    not_empty_.wait_for(lock, std::chrono::nanoseconds(timeout_ns), [this] {
      return cancelled_ || !queue_.empty() || open_producers_ <= 0;
    });
  }
  if (cancelled_) return ChannelStatus::kClosed;
  while (!queue_.empty()) {
    NetBlock block = std::move(queue_.front());
    queue_.pop_front();
    const int64_t bytes = block.wire_bytes();
    if (budget_ != nullptr && bytes > 0) budget_->Release(bytes);
    not_full_.notify_all();
    uint64_t& expected = next_recv_seq_[block.from_node];
    if (block.wire_seq < expected) {
      // Redelivery of a consumed sequence number (injected duplication or a
      // retry whose first copy did land): drop silently.
      ++duplicates_suppressed_;
      continue;
    }
    if (block.wire_seq > expected) {
      // Blocks between expected and wire_seq never arrived. Record the gap;
      // whether that is fatal is the sender's call (exhausted retries fail
      // the producing segment, so a gap here always has a matching typed
      // error on the send side).
      sequence_gaps_ += static_cast<int64_t>(block.wire_seq - expected);
    }
    expected = block.wire_seq + 1;
    lock.unlock();
    if (block.frame != nullptr) block.block = block.frame->Decode();
    *out = std::move(block);
    return ChannelStatus::kOk;
  }
  if (open_producers_ <= 0) return ChannelStatus::kClosed;
  return ChannelStatus::kTimeout;
}

void BlockChannel::Cancel() {
  std::lock_guard<std::mutex> lock(mu_);
  cancelled_ = true;
  DropQueuedLocked();
  not_full_.notify_all();
  not_empty_.notify_all();
}

size_t BlockChannel::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

int64_t BlockChannel::duplicates_suppressed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return duplicates_suppressed_;
}

int64_t BlockChannel::sequence_gaps() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sequence_gaps_;
}

}  // namespace claims
