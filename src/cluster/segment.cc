#include "cluster/segment.h"

#include "obs/recorder.h"

namespace claims {

Segment::Segment(std::unique_ptr<Iterator> ops_root, Config config)
    : config_(std::move(config)),
      scalability_(config_.max_parallelism),
      sender_([this] {
        SenderPump::Spec spec = config_.sender;
        spec.stats = config_.stats;
        if (spec.clock == nullptr) spec.clock = config_.clock;
        return spec;
      }()) {
  ElasticIterator::Options opts = config_.elastic;
  opts.stats = config_.stats;
  opts.clock = config_.clock;
  opts.max_parallelism = config_.max_parallelism;
  elastic_ = std::make_unique<ElasticIterator>(std::move(ops_root), opts);
}

Segment::~Segment() {
  Cancel();
  Join();
}

void Segment::Start() {
  started_.store(true, std::memory_order_release);
  driver_ = PooledThread([this] { DriverMain(); });
}

void Segment::Join() {
  if (driver_.joinable()) driver_.join();
}

void Segment::Cancel() {
  cancel_.store(true, std::memory_order_release);
  if (started_.load(std::memory_order_acquire) &&
      !done_.load(std::memory_order_acquire)) {
    elastic_->buffer()->Cancel();
  }
}

bool Segment::active() const {
  return started_.load(std::memory_order_acquire) &&
         !done_.load(std::memory_order_acquire);
}

void Segment::DriverMain() {
  Clock* clock =
      config_.clock != nullptr ? config_.clock : SteadyClock::Default();
  const int64_t t0 = clock->NowNanos();
  start_ns_.store(t0, std::memory_order_release);

  WorkerContext ctx;  // the driver is not a worker; no terminate flag
  elastic_->Open(&ctx);
  bool pump_ok = sender_.Pump(elastic_.get(), &ctx, &cancel_);
  // A failed pump without a requested Cancel() means the stream broke (a
  // child operator errored, or a send aborted underneath us): record it so
  // the executor can distinguish "drained" from "gave up mid-stream".
  if (!pump_ok && !cancel_.load(std::memory_order_acquire)) {
    failed_.store(true, std::memory_order_release);
    if (config_.on_failure) config_.on_failure();
  }
  final_parallelism_.store(elastic_->parallelism(), std::memory_order_release);
  done_.store(true, std::memory_order_release);
  elastic_->Close();

  int64_t t1 = clock->NowNanos();
  lifetime_ns_.store(t1 - t0, std::memory_order_release);
  EventRecorder* rec = EventRecorder::Global();
  if (rec->enabled()) {
    EventRecord span(EventKind::kSegment, config_.stats->owner, t0, t1);
    span.tuples = config_.stats->output_tuples.load(std::memory_order_relaxed);
    span.AddArg("launch_width", launch_width());
    span.AddArg("cancelled", cancel_.load(std::memory_order_acquire) ? 1 : 0);
    rec->Record(std::move(span));
  }
}

}  // namespace claims
