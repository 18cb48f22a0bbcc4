#include "core/elastic_iterator.h"

#include <chrono>
#include <thread>

#include "common/logging.h"
#include "obs/recorder.h"

namespace claims {
namespace {

DataBuffer::Options BufferOptions(const ElasticIterator::Options& options) {
  DataBuffer::Options buf;
  buf.capacity_blocks = options.buffer_capacity_blocks;
  buf.order_preserving = options.order_preserving;
  buf.budget = options.budget;
  return buf;
}

}  // namespace

ElasticIterator::ElasticIterator(std::unique_ptr<Iterator> child,
                                 Options options)
    : child_(std::move(child)),
      options_(options),
      clock_(options.clock != nullptr ? options.clock
                                      : SteadyClock::Default()),
      buffer_(BufferOptions(options)) {
  MetricsRegistry* reg = MetricsRegistry::Global();
  expand_metric_ = reg->counter("elastic.expansions");
  shrink_metric_ = reg->counter("elastic.shrinks");
  expand_latency_metric_ = reg->histogram("elastic.expand_latency_ns");
  shrink_latency_metric_ = reg->histogram("elastic.shrink_latency_ns");
  const std::string& segment = OwnerOf(options_.stats).segment;
  buffer_peak_metric_ =
      reg->gauge("buffer.peak:" + (segment.empty() ? "?" : segment));
}

ElasticIterator::~ElasticIterator() { Close(); }

NextResult ElasticIterator::Open(WorkerContext* /*ctx*/) {
  std::lock_guard<std::mutex> lock(mu_);
  if (opened_) return NextResult::kSuccess;
  opened_ = true;
  for (int i = 0; i < options_.initial_parallelism; ++i) {
    StartWorkerLocked(/*core_id=*/i);
  }
  return NextResult::kSuccess;
}

NextResult ElasticIterator::Next(WorkerContext* /*ctx*/, BlockPtr* out) {
  NextResult r = buffer_.Pop(out);
  // A latched worker error cancels the buffer, which Pop reports as
  // end-of-file; surface the failure instead of a wrong empty result.
  if (r == NextResult::kEndOfFile && error_.load(std::memory_order_acquire)) {
    return NextResult::kError;
  }
  return r;
}

void ElasticIterator::Close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return;
    closed_ = true;
    for (auto& w : workers_) {
      w->terminate.store(true, std::memory_order_release);
    }
  }
  // Wake any worker blocked on a full buffer and the consumer.
  buffer_.Cancel();
  // Join without holding mu_: exiting workers take mu_ for their final
  // bookkeeping, so joining under the lock would deadlock. No new workers can
  // appear — Expand refuses once closed_ is set.
  JoinAllWorkers();
  // Every worker is joined, so nothing reads the subtree again: free its
  // operator state (hash tables, arenas, sort buffers) now rather than when
  // the segment shell dies, which a retained query report may delay.
  child_->Close();
  child_.reset();
}

ElasticIterator::Worker* ElasticIterator::StartWorkerLocked(int core_id) {
  auto worker = std::make_unique<Worker>();
  worker->worker_id = next_worker_id_++;
  worker->core_id = core_id;
  Worker* w = worker.get();
  buffer_.AddProducer(w->worker_id);
  ++live_workers_;
  if (live_workers_ > peak_parallelism_) peak_parallelism_ = live_workers_;
  workers_.push_back(std::move(worker));
  w->thread = PooledThread([this, w] { WorkerMain(w); });
  return w;
}

void ElasticIterator::JoinAllWorkers() {
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
}

void ElasticIterator::WorkerMain(Worker* worker) {
  WorkerContext ctx;
  ctx.worker_id = worker->worker_id;
  ctx.core_id = worker->core_id;
  ctx.terminate_requested = &worker->terminate;
  ctx.processing_started = &worker->ready;
  ctx.stats = options_.stats;

  EventRecorder* rec = EventRecorder::Global();
  const bool recording = rec->enabled();
  const RecordOwner& owner = OwnerOf(options_.stats);
  // Live from here until the exit bookkeeping below; every wait this worker
  // charges falls inside this interval.
  const int64_t live_start =
      OpenInterval(options_.stats, WorkerTimeMeter::kLive, *clock_);

  bool via_eof = false;
  NextResult open_status = child_->Open(&ctx);
  if (open_status == NextResult::kError) LatchError();
  if (open_status == NextResult::kSuccess) {
    worker->ready.store(true, std::memory_order_release);
    if (recording) {
      // S1/S2 → S3 marker: state construction done, data production begins.
      const int64_t now = clock_->NowNanos();
      EventRecord ev(EventKind::kInstant, owner, now, now);
      ev.name = "worker-ready";
      ev.AddArg("worker", worker->worker_id);
      rec->Record(std::move(ev));
    }
    // Algorithm 2: pull blocks from the child and feed the joint buffer.
    while (true) {
      BlockPtr block;
      NextResult r = child_->Next(&ctx, &block);
      if (r == NextResult::kSuccess) {
        if (block->empty()) {
          // Empty watermark block (e.g. a fully filtered input block): the
          // sequence number must still reach the order-preserving merge or
          // low-selectivity streams stall behind it, but the block itself
          // carries no data — advance the producer watermark instead of
          // enqueuing it.
          buffer_.AdvanceWatermark(worker->worker_id,
                                   block->sequence_number());
          continue;
        }
        int32_t rows = block->num_rows();
        const int64_t t0 = OpenInterval(
            options_.stats, WorkerTimeMeter::kBlockedOutput, *clock_);
        // A full buffer is about to block this worker: register the wait as
        // an open span, so a watchdog incident names the segment wedged on
        // backpressure; waits long enough to matter stay in the profile.
        uint64_t blocked_token = 0;
        if (recording && buffer_.size() >= options_.buffer_capacity_blocks) {
          EventRecord span(EventKind::kBlockedOutput, owner, t0, t0);
          span.name = "buffer-insert";
          blocked_token = rec->BeginOpen(std::move(span));
        }
        bool inserted = buffer_.Insert(worker->worker_id, std::move(block));
        const int64_t t1 = CloseInterval(
            options_.stats, WorkerTimeMeter::kBlockedOutput, *clock_);
        if (blocked_token != 0) {
          if (t1 - t0 < EventRecorder::kMinBlockedSpanNs) {
            rec->AbortOpen(blocked_token);
          } else {
            rec->EndOpen(blocked_token, t1);
          }
        }
        if (options_.stats != nullptr && inserted) {
          options_.stats->output_tuples.fetch_add(rows,
                                                  std::memory_order_relaxed);
        }
        if (inserted) {
          double depth = static_cast<double>(buffer_.size());
          buffer_peak_metric_->UpdateMax(depth);
          if (recording) {
            EventRecord sample(EventKind::kCounter, owner, t1, t1);
            sample.name = "buffer";
            sample.AddArg("value", depth);
            rec->Record(std::move(sample));
          }
        } else if (options_.budget != nullptr && options_.budget->rejected()) {
          // The query's memory ledger refused a block: a real budget
          // breach, not a routine cancel.
          LatchError();
          break;
        } else {
          break;  // buffer cancelled — segment closing
        }
      } else if (r == NextResult::kEndOfFile) {
        via_eof = true;
        break;
      } else if (r == NextResult::kError) {
        LatchError();
        break;
      } else {  // kTerminated — shrink completed
        break;
      }
    }
  }
  worker->ready.store(true, std::memory_order_release);
  const int64_t exit_ns =
      CloseInterval(options_.stats, WorkerTimeMeter::kLive, *clock_);
  if (recording) {
    EventRecord span(EventKind::kWorker, owner, live_start, exit_ns);
    span.name = "worker";
    span.AddArg("worker", worker->worker_id);
    span.AddArg("exhausted_input", via_eof ? 1 : 0);
    rec->Record(std::move(span));
  }

  // Update liveness counters before leaving the buffer, so that a consumer
  // observing end-of-file (possible only after the last RemoveProducer) also
  // observes finished() == true.
  {
    std::lock_guard<std::mutex> lock(mu_);
    --live_workers_;
    if (via_eof) ++finished_workers_;
  }
  // `finished = via_eof`: only a worker that ran its input dry may contribute
  // to the buffer's end-of-file decision; a terminated (shrunk) departure
  // leaves the stream revivable by a later Expand (see DataBuffer::Pop).
  buffer_.RemoveProducer(worker->worker_id, /*finished=*/via_eof);
  worker->done.store(true, std::memory_order_release);
}

void ElasticIterator::LatchError() {
  bool expected = false;
  if (error_.compare_exchange_strong(expected, true,
                                     std::memory_order_acq_rel)) {
    // First error wins: wake the consumer and unwind the remaining workers.
    // Queued blocks are dropped with the buffer — the result would be wrong
    // anyway.
    buffer_.Cancel();
  }
}

bool ElasticIterator::CanExpandLocked() const {
  if (!opened_ || closed_) return false;
  if (error_.load(std::memory_order_acquire)) return false;  // failed
  if (finished_workers_ > 0 && live_workers_ == 0) return false;  // finished
  return live_workers_ < options_.max_parallelism;
}

ElasticIterator::Worker* ElasticIterator::ShrinkVictimLocked() const {
  if (!opened_ || closed_) return nullptr;
  int shrinkable = 0;
  Worker* victim = nullptr;
  for (auto it = workers_.rbegin(); it != workers_.rend(); ++it) {
    Worker* w = it->get();
    if (!w->done.load(std::memory_order_acquire) &&
        !w->terminate.load(std::memory_order_acquire)) {
      ++shrinkable;
      if (victim == nullptr) victim = w;
    }
  }
  return shrinkable > options_.min_parallelism ? victim : nullptr;
}

bool ElasticIterator::Expand(int core_id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!CanExpandLocked()) return false;
  StartWorkerLocked(core_id);
  expand_metric_->Add();
  return true;
}

bool ElasticIterator::Shrink() {
  std::lock_guard<std::mutex> lock(mu_);
  Worker* victim = ShrinkVictimLocked();
  if (victim == nullptr) return false;
  victim->terminate.store(true, std::memory_order_release);
  shrink_metric_->Add();
  return true;
}

int64_t ElasticIterator::ShrinkBlocking() {
  Worker* victim = nullptr;
  int64_t t0 = clock_->NowNanos();
  {
    std::lock_guard<std::mutex> lock(mu_);
    victim = ShrinkVictimLocked();
    if (victim == nullptr) return -1;
    victim->terminate.store(true, std::memory_order_release);
  }
  shrink_metric_->Add();
  while (!victim->done.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  int64_t delay = clock_->NowNanos() - t0;
  shrink_latency_metric_->Record(delay);
  return delay;
}

int64_t ElasticIterator::ExpandMeasured(int core_id) {
  Worker* w = nullptr;
  int64_t t0 = clock_->NowNanos();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!CanExpandLocked()) return -1;
    w = StartWorkerLocked(core_id);
  }
  expand_metric_->Add();
  while (!w->ready.load(std::memory_order_acquire) &&
         !w->done.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  int64_t delay = clock_->NowNanos() - t0;
  expand_latency_metric_->Record(delay);
  return delay;
}

int ElasticIterator::peak_parallelism() const {
  std::lock_guard<std::mutex> lock(mu_);
  return peak_parallelism_;
}

int ElasticIterator::parallelism() const {
  std::lock_guard<std::mutex> lock(mu_);
  int live = 0;
  for (const auto& w : workers_) {
    if (!w->done.load(std::memory_order_acquire) &&
        !w->terminate.load(std::memory_order_acquire)) {
      ++live;
    }
  }
  return live;
}

bool ElasticIterator::finished() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (!opened_) return false;
  if (error_.load(std::memory_order_acquire)) return true;  // terminal
  return live_workers_ == 0 && finished_workers_ > 0;
}

}  // namespace claims
