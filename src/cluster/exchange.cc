#include "cluster/exchange.h"

#include <optional>

#include "obs/recorder.h"
#include "storage/partition.h"

namespace claims {
namespace {

/// How long a merger waits for a block between terminate-flag checks.
constexpr int64_t kMergerPollNs = 1'000'000;

}  // namespace

MergerIterator::MergerIterator(BlockChannel* channel, SegmentStats* stats,
                               Clock* clock)
    : channel_(channel),
      stats_(stats),
      visit_rates_(stats),
      clock_(clock != nullptr ? clock : SteadyClock::Default()) {}

// A merger torn down while starved (cancellation, shrink-to-zero) must not
// leak its open blocked-input span.
MergerIterator::~MergerIterator() { AbortStarved(); }

void MergerIterator::NoteStarved(int64_t t0) {
  EventRecorder* rec = EventRecorder::Global();
  if (!rec->enabled()) return;
  if (blocked_token_.load(std::memory_order_acquire) != 0) return;
  EventRecord wait(EventKind::kBlockedInput, OwnerOf(stats_), t0, t0);
  wait.name = "starved";
  uint64_t token = rec->BeginOpen(std::move(wait));
  if (token == 0) return;
  uint64_t expected = 0;
  if (!blocked_token_.compare_exchange_strong(expected, token,
                                              std::memory_order_acq_rel)) {
    rec->AbortOpen(token);  // another worker opened one first
  }
}

void MergerIterator::ResolveStarved(int64_t end_ns, const LinkKey& link) {
  uint64_t token = blocked_token_.exchange(0, std::memory_order_acq_rel);
  // Kept even when short: the resolving link key is the causal edge the
  // assembler follows from this wait to the producing segment.
  EventRecorder::Global()->EndOpen(token, end_ns, &link);
}

void MergerIterator::AbortStarved() {
  uint64_t token = blocked_token_.exchange(0, std::memory_order_acq_rel);
  EventRecorder::Global()->AbortOpen(token);
}

NextResult MergerIterator::Open(WorkerContext* ctx) {
  if (ctx->DetectedTerminateRequest()) return NextResult::kTerminated;
  // The receive buffer (the channel) lives in the fabric and was created
  // before any producer started; nothing to construct here.
  return NextResult::kSuccess;
}

NextResult MergerIterator::Next(WorkerContext* ctx, BlockPtr* out) {
  while (true) {
    if (ctx->DetectedTerminateRequest()) return NextResult::kTerminated;
    NetBlock nb;
    // Every receive is a wait on input, however it ends, so a wait shorter
    // than one poll counts too.
    const int64_t t0 =
        OpenInterval(stats_, WorkerTimeMeter::kBlockedInput, *clock_);
    ChannelStatus status = channel_->Receive(&nb, kMergerPollNs);
    const int64_t t1 =
        CloseInterval(stats_, WorkerTimeMeter::kBlockedInput, *clock_);
    if (status == ChannelStatus::kOk) {
      if (stats_ != nullptr) {
        stats_->input_tuples.fetch_add(nb.block->num_rows(),
                                       std::memory_order_relaxed);
        visit_rates_.Observe(nb.from_node, nb.visit_rate);
      }
      EventRecorder* rec = EventRecorder::Global();
      if (rec->enabled()) {
        EventRecord recv(EventKind::kNetRecv, OwnerOf(stats_), t0, t1);
        recv.name = "recv";
        recv.tuples = nb.block->num_rows();
        recv.bytes = nb.wire_bytes();
        // Link seqs are 1-based, matching the send record; 0 = unlinked.
        recv.link = LinkKey{nb.exchange_id, nb.from_node, nb.to_node,
                            nb.wire_seq + 1};
        ResolveStarved(t1, recv.link);
        rec->Record(std::move(recv));
      }
      if (ctx->processing_started != nullptr) {
        ctx->processing_started->store(true, std::memory_order_release);
      }
      *out = std::move(nb.block);
      return NextResult::kSuccess;
    }
    if (status == ChannelStatus::kClosed) {
      // End-of-stream: any open wait was for data that will never come —
      // attribute nothing (drop it) rather than fabricate a causal edge.
      AbortStarved();
      return NextResult::kEndOfFile;
    }
    // Timeout: the recorder's starved span stays open until data arrives.
    NoteStarved(t0);
  }
}

void MergerIterator::Close() { AbortStarved(); }

HashSplit::HashSplit(const Schema* schema, std::vector<int> hash_cols,
                     int num_dests)
    : schema_(schema),
      hash_cols_(std::move(hash_cols)),
      pending_(static_cast<size_t>(num_dests)) {}

bool HashSplit::Add(const Block& block, const Emit& emit) {
  const int32_t n = block.num_rows();
  if (n == 0) return true;
  const int ndest = static_cast<int>(pending_.size());
  hashes_.resize(static_cast<size_t>(n));
  HashKeys(*schema_, block.RowAt(0), block.row_size(), hash_cols_, n,
           hashes_.data());
  for (int32_t i = 0; i < n; ++i) {
    const int d = PartitionOf(hashes_[static_cast<size_t>(i)], ndest);
    std::shared_ptr<Block>& dst = pending_[d];
    if (dst == nullptr) dst = MakeBlock(schema_->row_size());
    dst->AppendRowCopy(block.RowAt(i));
    if (dst->full()) {
      if (!emit(d, std::move(dst))) return false;
      dst = nullptr;
    }
  }
  return true;
}

bool HashSplit::Flush(const Emit& emit) {
  for (int d = 0; d < static_cast<int>(pending_.size()); ++d) {
    if (pending_[d] == nullptr) continue;
    if (!emit(d, std::move(pending_[d]))) return false;
    pending_[d] = nullptr;
  }
  return true;
}

SenderPump::SenderPump(Spec spec)
    : spec_(std::move(spec)), sent_tuples_(spec_.consumer_nodes.size()) {}

bool SenderPump::SendBlock(int dest_index, Outgoing* out,
                           const std::atomic<bool>* cancel) {
  if (out->block == nullptr || out->block->empty()) return true;
  const int64_t rows = out->block->num_rows();
  // Outgoing tail = V_i · sent_ij / in_i, which is V_i·δ_i·p_ij (paper §4.3)
  // once the stream ends. Both counts precede the send: sent_ij is added
  // here, and the stage beginner counted in_i before it emitted the rows, so
  // the tail never runs ahead of the data. A broadcast sends every row to
  // each consumer, so its ratio is δ_i; a join's fan-out may exceed 1.
  const int64_t sent =
      sent_tuples_[dest_index].fetch_add(rows, std::memory_order_relaxed) +
      rows;
  double tail = 1.0;
  if (spec_.stats != nullptr) {
    tail = spec_.stats->visit_rate.load(std::memory_order_relaxed);
    const int64_t in =
        spec_.stats->input_tuples.load(std::memory_order_relaxed);
    if (in > 0) tail *= static_cast<double>(sent) / static_cast<double>(in);
  }
  Route route;
  route.exchange_id = spec_.exchange_id;
  route.from_logical = spec_.from_node;
  route.from_physical =
      spec_.from_node_physical >= 0 ? spec_.from_node_physical : spec_.from_node;
  route.to_logical = spec_.consumer_nodes[dest_index];
  route.to_physical =
      static_cast<size_t>(dest_index) < spec_.consumer_placement.size()
          ? spec_.consumer_placement[dest_index]
          : route.to_logical;
  // Only a block leaving its host is encoded, and only once: a broadcast's
  // remote consumers share the frame, a local one shares the block.
  const bool remote = route.from_physical != route.to_physical;
  if (remote && !out->encoded) {
    out->frame = WireFrame::Encode(*spec_.schema, *out->block);
    out->encoded = true;
  }
  const bool framed = remote && out->frame != nullptr;
  EventRecorder* rec = EventRecorder::Global();
  const bool recording = rec->enabled();
  Clock* clock = spec_.clock != nullptr ? spec_.clock : SteadyClock::Default();
  const int64_t t0 = recording ? clock->NowNanos() : 0;
  const int64_t bytes =
      framed ? out->frame->bytes() : out->block->payload_bytes();
  uint64_t wire_seq = 0;
  const SendOutcome outcome =
      framed ? spec_.network->SendRoute(route, out->frame, tail, cancel,
                                        &wire_seq)
             : spec_.network->SendRoute(route, out->block, tail, cancel,
                                        &wire_seq);
  // Counted here, per query, rather than read off the fabric's total, which
  // every concurrent query adds to.
  if (outcome == SendOutcome::kOk && spec_.stats != nullptr && remote) {
    spec_.stats->remote_bytes.fetch_add(bytes, std::memory_order_relaxed);
  }
  if (recording && outcome == SendOutcome::kOk) {
    // The span covers retries and NIC throttle waits too: that *is* the time
    // this block spent getting onto the wire, and the critical path should
    // charge it to the exchange when the consumer was waiting on it.
    EventRecord send(EventKind::kNetSend, OwnerOf(spec_.stats), t0,
                     clock->NowNanos());
    send.name = "send";
    send.tuples = rows;
    send.bytes = bytes;
    send.link = LinkKey{spec_.exchange_id, route.from_logical,
                        route.to_logical, wire_seq + 1};
    rec->Record(std::move(send));
  }
  if (outcome == SendOutcome::kUnavailable) {
    send_unavailable_.store(true, std::memory_order_release);
  }
  return outcome == SendOutcome::kOk;
}

bool SenderPump::Pump(Iterator* source, WorkerContext* ctx,
                      const std::atomic<bool>* cancel) {
  const int ncons = static_cast<int>(spec_.consumer_nodes.size());
  const HashSplit::Emit send = [&](int d, BlockPtr block) {
    Outgoing out{std::move(block)};
    return SendBlock(d, &out, cancel);
  };
  std::optional<HashSplit> split;
  if (spec_.partitioning == Partitioning::kHash) {
    split.emplace(spec_.schema, spec_.hash_cols, ncons);
  }
  bool ok = true;
  while (ok) {
    BlockPtr block;
    NextResult r = source->Next(ctx, &block);
    if (r == NextResult::kError) {
      // The stream is broken, not exhausted: close out as a failure so the
      // consumer side never mistakes the partial data for a clean result.
      ok = false;
      break;
    }
    if (r != NextResult::kSuccess) break;
    switch (spec_.partitioning) {
      case Partitioning::kToOne:
        ok = send(0, std::move(block));
        break;
      case Partitioning::kBroadcast: {
        // Every consumer gets the same read-only block, or its one frame.
        Outgoing out{std::move(block)};
        for (int d = 0; d < ncons && ok; ++d) ok = SendBlock(d, &out, cancel);
        break;
      }
      case Partitioning::kHash:
        ok = split->Add(*block, send);
        break;
    }
  }
  if (ok && split.has_value()) ok = split->Flush(send);
  spec_.network->CloseProducer(spec_.exchange_id);
  return ok;
}

}  // namespace claims
