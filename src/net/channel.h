#ifndef CLAIMS_NET_CHANNEL_H_
#define CLAIMS_NET_CHANNEL_H_

#include <condition_variable>
#include <deque>
#include <map>
#include <mutex>

#include "common/macros.h"
#include "net/wire_frame.h"
#include "storage/block.h"

namespace claims {

class QueryBudget;

/// The envelope a block crosses one exchange edge in. Mergers need the
/// producer's identity and its visit-rate contribution V_i·δ_i·p_ij to fold
/// the consumer segment's V_j (paper §4.3, Fig. 7): the contribution belongs
/// to the edge, so it rides here while the block itself stays read-only and
/// may be shared by several envelopes (broadcast, injected duplicates).
/// `wire_seq` is the per-(producer, channel) wire sequence number Send
/// assigns; Receive uses it to suppress duplicated deliveries and detect
/// losses (docs/FAULTS.md). With the exchange id and logical consumer node
/// it forms the batch's causal link key, which the receiver records.
///
/// A block crossing hosts travels as its frame (net/wire_frame.h): a queued
/// envelope then holds the frame alone, and Receive decodes it into `block`,
/// leaving the frame in place so the receiver can count its bytes.
struct NetBlock {
  BlockPtr block;
  int from_node = 0;
  uint64_t wire_seq = 0;
  int exchange_id = -1;
  int to_node = -1;
  double visit_rate = 1.0;
  FramePtr frame = nullptr;

  /// What the envelope costs on the wire and in the channel's ledger: the
  /// frame's bytes when it has one, else the block's payload.
  int64_t wire_bytes() const {
    return frame != nullptr ? frame->bytes() : block->payload_bytes();
  }
};

/// Receive outcomes; kTimeout lets mergers poll their terminate flag while
/// idle instead of blocking forever on a quiet link.
enum class ChannelStatus { kOk, kTimeout, kClosed };

/// Bounded MPMC block queue — one per (exchange, consumer node). All producer
/// segments of the exchange send into it; the consumer segment's worker
/// threads receive from it. Capacity bounds give end-to-end backpressure from
/// a slow consumer back into the producers' elastic buffers.
///
/// With a ledger, every queued envelope (duplicates and shared broadcast
/// blocks and frames included) holds its wire_bytes() on the owning query's
/// QueryBudget, refunded when it is received, when the channel is
/// cancelled, and when it is destroyed with envelopes still queued. A queued
/// block or frame is read-only, so the refund is its wire_bytes() again. The
/// charge is taken under the channel lock once the envelope has room, so a
/// sender waiting on a full channel holds none.
class BlockChannel {
 public:
  /// `num_producers` senders must call CloseProducer before the channel
  /// drains to end-of-stream. `capacity_blocks <= 0` means unbounded (used by
  /// materialized execution, where the channel *is* the materialization).
  /// `budget` (nullable) must outlive the channel.
  BlockChannel(int num_producers, int capacity_blocks,
               QueryBudget* budget = nullptr);
  ~BlockChannel();
  CLAIMS_DISALLOW_COPY_AND_ASSIGN(BlockChannel);

  /// Blocks while full; false when cancelled, or when the ledger refused the
  /// block (the ledger is then latched rejected(), so the query ends
  /// kResourceExhausted) and nothing was queued. Assigns the block the
  /// next wire sequence number of its producer (keyed by `from_node`); the
  /// assigned value is written to `assigned_seq` when non-null (the fault
  /// injector's duplication path re-sends under the same sequence).
  bool Send(NetBlock block, const std::atomic<bool>* cancel = nullptr,
            uint64_t* assigned_seq = nullptr);

  /// Enqueues a copy of an already-sequenced block *without* assigning a new
  /// wire sequence — the fault injector's block-duplication fate. The
  /// receiver's duplicate suppression drops whichever copy arrives second.
  bool SendDuplicate(NetBlock block, const std::atomic<bool>* cancel = nullptr);

  /// One producer finished; at zero the channel closes after draining.
  void CloseProducer();

  /// Waits up to `timeout_ns` for a block. `timeout_ns <= 0` is a
  /// non-blocking poll: it returns whatever is decidable right now (kOk,
  /// kClosed) without waiting, else kTimeout immediately. Duplicated
  /// deliveries (wire_seq already consumed from that producer) are dropped
  /// here and never surfaced. A framed envelope is decoded after the lock
  /// is released, so `out->block` is always an ordinary block.
  ChannelStatus Receive(NetBlock* out, int64_t timeout_ns);

  /// Blocks received then dropped as duplicates (fault-injection evidence).
  int64_t duplicates_suppressed() const;
  /// Wire-sequence gaps observed (deliveries missing ahead of a received
  /// block). With send-side retry exhausting, a gap means a block was lost
  /// for good; the consumer's segment fails rather than silently under-counts.
  int64_t sequence_gaps() const;

  void Cancel();

  size_t size() const;

 private:
  /// Refunds every queued block and empties the queue; caller holds mu_.
  void DropQueuedLocked();

  int capacity_;
  QueryBudget* budget_;
  mutable std::mutex mu_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<NetBlock> queue_;
  int open_producers_;
  bool cancelled_ = false;
  /// Per-producer wire sequencing (keyed by from_node): next seq to assign
  /// on the send side, next seq expected on the receive side.
  std::map<int, uint64_t> next_send_seq_;
  std::map<int, uint64_t> next_recv_seq_;
  int64_t duplicates_suppressed_ = 0;
  int64_t sequence_gaps_ = 0;

  bool Enqueue(NetBlock block, const std::atomic<bool>* cancel,
               bool assign_seq, uint64_t* assigned_seq);
};

}  // namespace claims

#endif  // CLAIMS_NET_CHANNEL_H_
