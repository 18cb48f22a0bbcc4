#ifndef CLAIMS_CLUSTER_EXCHANGE_H_
#define CLAIMS_CLUSTER_EXCHANGE_H_

#include <atomic>
#include <functional>
#include <memory>
#include <vector>

#include "common/clock.h"
#include "core/iterator.h"
#include "core/metrics.h"
#include "net/network.h"

namespace claims {

/// Merger — the data-exchange receiver and stage beginner of a consumer
/// segment (appendix Alg. 5). The paper's dedicated merging thread and
/// NUMA-partitioned merger buffer are realized by the network fabric's
/// BlockChannel: it keeps receiving (buffering) sender traffic even while
/// the segment's worker threads are all busy or shrunk away.
///
/// Every received envelope (NetBlock) carries the producer's visit-rate
/// contribution p_ij·δ_i·V_i; the merger folds the latest value per producer
/// into the segment's V_i (paper §4.3, Fig. 7) — no extra control messages.
/// Blocks pass through untouched, sequence numbers included: only the
/// operator that creates a block numbers it.
class MergerIterator : public Iterator {
 public:
  /// Records carry `stats`'s owner (anonymous when null).
  MergerIterator(BlockChannel* channel, SegmentStats* stats, Clock* clock);
  ~MergerIterator() override;

  NextResult Open(WorkerContext* ctx) override;
  NextResult Next(WorkerContext* ctx, BlockPtr* out) override;
  void Close() override;

 private:
  /// Opens a blocked-input span on the first starved poll (CAS keeps a single
  /// open span even when several elastic workers drive this merger); arriving
  /// data resolves it with the block's link key so the assembler can
  /// causally link the wait to the producing segment's send.
  void NoteStarved(int64_t t0);
  void ResolveStarved(int64_t end_ns, const LinkKey& link);
  /// Drops the open blocked-input span, if any.
  void AbortStarved();

  BlockChannel* channel_;
  SegmentStats* stats_;
  VisitRateAggregator visit_rates_;
  Clock* clock_;
  /// Open blocked-input span token (0 = none); see NoteStarved.
  std::atomic<uint64_t> blocked_token_{0};
};

/// How a sender routes its segment's output across the consumer segment
/// group (paper Fig. 3's data exchange).
enum class Partitioning {
  kHash,       ///< repartition on hash columns (shuffle)
  kBroadcast,  ///< replicate to every consumer (small build sides)
  kToOne,      ///< everything to one consumer (master collector / gather)
};

/// A shuffle's row split: hashes a block's key columns (HashKeys) and copies
/// each row into the block of destination PartitionOf(hash, number of
/// destinations), in order. A destination's block leaves when it fills.
class HashSplit {
 public:
  /// Takes each block that fills: its destination and the block. False
  /// stops the split.
  using Emit = std::function<bool(int dest, BlockPtr block)>;

  /// `schema` lays out the rows and must outlive the split.
  HashSplit(const Schema* schema, std::vector<int> hash_cols, int num_dests);

  /// Routes every row of `block`. False as soon as `emit` returns false.
  bool Add(const Block& block, const Emit& emit);

  /// Emits each destination's partly filled block.
  bool Flush(const Emit& emit);

 private:
  const Schema* schema_;
  std::vector<int> hash_cols_;
  /// Per destination: the block being filled (null: none yet).
  std::vector<std::shared_ptr<Block>> pending_;
  std::vector<uint64_t> hashes_;  ///< one block's key hashes
};

/// Sender — the data-exchange transmitter at the top of a segment (appendix
/// Alg. 4). Pump() drains the segment's elastic iterator and routes blocks
/// into the network fabric, each envelope carrying the visit-rate tail
/// V_i·sent_ij/in_i: the tuples sent to consumer j so far over the tuples
/// the segment's stage beginner took in, which is V_i·δ_i·p_ij once the
/// stream ends. A broadcast sends the one block to every
/// consumer. Runs on the segment's driver thread; blocking inside Send (NIC
/// throttle or full consumer channel) propagates as backpressure into the
/// elastic buffer, which is how the dynamic scheduler sees "over-producing
/// for the network".
///
/// A block bound for another host crosses as its frame (net/wire_frame.h),
/// encoded once however many remote consumers it has; a consumer on the
/// sender's host receives the block itself.
class SenderPump {
 public:
  struct Spec {
    int exchange_id = 0;
    int from_node = 0;
    Partitioning partitioning = Partitioning::kToOne;
    std::vector<int> hash_cols;
    std::vector<int> consumer_nodes;
    /// Lays out the rows: the shuffle hashes and the frames read it.
    const Schema* schema = nullptr;
    Network* network = nullptr;
    SegmentStats* stats = nullptr;
    /// Physical placement after node-loss re-dispatch: whose NIC this pump
    /// spends (-1 = from_node) and which box hosts each consumer (empty =
    /// consumer_nodes). Channel addressing stays logical (see net::Route).
    int from_node_physical = -1;
    std::vector<int> consumer_placement;
    /// Timestamps of the send records (nullptr = SteadyClock); the records
    /// carry `stats`'s owner.
    Clock* clock = nullptr;
  };

  explicit SenderPump(Spec spec);

  /// True once a send failed kUnavailable (dead endpoint or retries
  /// exhausted): the resulting pump failure is *transient* — a re-dispatch
  /// of the whole query may succeed — rather than a logic error.
  bool send_unavailable() const {
    return send_unavailable_.load(std::memory_order_acquire);
  }

  /// Drains `source` until end-of-file, then flushes partial blocks and
  /// closes this producer on the exchange. Returns false if cancelled or if
  /// `source` reported kError (the stream is broken; the blocks sent so far
  /// must not be taken for a complete result).
  ///
  /// Pump itself runs on the segment's single driver thread, but the
  /// per-consumer counters below are atomics so that SendBlock stays correct
  /// if a future layout fans the pump out across workers (the elastic
  /// iterator's parallelism must never silently corrupt sent_ij).
  bool Pump(Iterator* source, WorkerContext* ctx,
            const std::atomic<bool>* cancel);

 private:
  /// A block on its way out, and its frame once a cross-host send asked for
  /// one (null after that when the rows are the smaller form).
  struct Outgoing {
    BlockPtr block;
    FramePtr frame = nullptr;
    bool encoded = false;
  };

  bool SendBlock(int dest_index, Outgoing* out,
                 const std::atomic<bool>* cancel);

  Spec spec_;
  /// Tuples routed per destination (sent_ij of the outgoing visit-rate
  /// tails), counted before each send. Thread-safe: updated with relaxed
  /// fetch_adds; SendBlock reads its own post-add snapshot.
  std::vector<std::atomic<int64_t>> sent_tuples_;
  std::atomic<bool> send_unavailable_{false};
};

}  // namespace claims

#endif  // CLAIMS_CLUSTER_EXCHANGE_H_
