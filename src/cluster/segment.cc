#include "cluster/segment.h"

#include "obs/profile/profiler.h"
#include "obs/trace.h"

namespace claims {

Segment::Segment(std::unique_ptr<Iterator> ops_root, Config config)
    : config_(std::move(config)),
      scalability_(config_.max_parallelism),
      sender_([this] {
        SenderPump::Spec spec = config_.sender;
        spec.stats = config_.stats;
        // Profiler identity defaults from the segment's own: the executor
        // only has to set elastic.query_id once per segment.
        if (spec.clock == nullptr) spec.clock = config_.clock;
        if (spec.segment_label.empty()) spec.segment_label = config_.name;
        if (spec.query_id == 0) spec.query_id = config_.elastic.query_id;
        return spec;
      }()) {
  ElasticIterator::Options opts = config_.elastic;
  opts.stats = config_.stats;
  opts.clock = config_.clock;
  opts.max_parallelism = config_.max_parallelism;
  opts.trace_label = config_.name;
  opts.trace_pid = config_.node_id;
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
  TraceCollector* tc = TraceCollector::Global();
  Clock* clock =
      config_.clock != nullptr ? config_.clock : SteadyClock::Default();
  const int64_t t0 = clock->NowNanos();
  if (tc->enabled()) {
    // The report's parallelism series starts at the launch width; scheduler
    // ticks add a point each from there.
    tc->Counter(t0, config_.node_id, "parallelism:" + config_.name,
                config_.elastic.initial_parallelism);
  }

  WorkerContext ctx;  // the driver is not a worker; no terminate flag
  elastic_->Open(&ctx);
  bool pump_ok = sender_.Pump(elastic_.get(), &ctx, &cancel_);
  // A failed pump without a requested Cancel() means the stream broke (a
  // child operator errored, or a send aborted underneath us): record it so
  // the executor can distinguish "drained" from "gave up mid-stream".
  if (!pump_ok && !cancel_.load(std::memory_order_acquire)) {
    failed_.store(true, std::memory_order_release);
  }
  final_parallelism_.store(elastic_->parallelism(), std::memory_order_release);
  done_.store(true, std::memory_order_release);
  elastic_->Close();

  int64_t t1 = clock->NowNanos();
  lifetime_ns_.store(t1 - t0, std::memory_order_release);
  if (tc->enabled()) {
    tc->Complete(t0, t1 - t0, config_.node_id, "segment", config_.name,
                 {{"cancelled", cancel_.load(std::memory_order_acquire)
                                    ? 1.0
                                    : 0.0}});
  }
  QueryProfiler* profiler = QueryProfiler::Global();
  if (config_.elastic.query_id != 0 && profiler->armed()) {
    ProfSpan span;
    span.query_id = config_.elastic.query_id;
    span.kind = SpanKind::kSegment;
    span.name = config_.name;
    span.segment = config_.name;
    span.node = config_.node_id;
    span.start_ns = t0;
    span.end_ns = t1;
    span.tuples =
        config_.stats != nullptr
            ? config_.stats->output_tuples.load(std::memory_order_relaxed)
            : 0;
    profiler->EmitComplete(std::move(span));
  }
}

}  // namespace claims
