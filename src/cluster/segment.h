#ifndef CLAIMS_CLUSTER_SEGMENT_H_
#define CLAIMS_CLUSTER_SEGMENT_H_

#include <functional>
#include <memory>
#include <string>

#include "cluster/exchange.h"
#include "core/elastic_iterator.h"
#include "core/pooled_thread.h"
#include "core/scheduler.h"

namespace claims {

/// One segment instance: the unit of deployment and of dynamic scheduling
/// (paper §2.1). Physically it is
///     [scan | merger] → ops… → ElasticIterator → SenderPump
/// driven by a dedicated driver thread (the paper's sender thread, not
/// counted against the node's worker cores), taken from the thread park.
/// Implements SchedulableSegment so the node's DynamicScheduler can
/// expand/shrink it.
class Segment : public SchedulableSegment {
 public:
  struct Config {
    SenderPump::Spec sender;        ///< stats wired in by the constructor
    ElasticIterator::Options elastic;  ///< stats/clock wired in
    /// Shared segment counters, owned by the executor (the iterator tree
    /// below captures the same pointer). Required: its owner is the
    /// segment's identity — name, hosting node and query.
    SegmentStats* stats = nullptr;
    Clock* clock = nullptr;
    int max_parallelism = 24;
    /// Called once, from the driver thread, when the stream breaks (see
    /// failed()); the executor cancels the query's other segments.
    std::function<void()> on_failure;
  };

  /// `ops_root` is the operator tree below the elastic iterator.
  Segment(std::unique_ptr<Iterator> ops_root, Config config);
  ~Segment() override;

  CLAIMS_DISALLOW_COPY_AND_ASSIGN(Segment);

  /// Launches the driver on a parked thread.
  void Start();

  /// Blocks until the segment finished pumping (or was cancelled).
  void Join();

  /// Cooperative cancellation (query abort / engine shutdown).
  void Cancel();

  // --- SchedulableSegment ----------------------------------------------------

  const std::string& name() const override {
    return config_.stats->owner.segment;
  }
  bool active() const override;
  uint64_t query_id() const override { return config_.stats->owner.query_id; }
  int parallelism() const override { return elastic_->parallelism(); }
  SegmentStats* stats() override { return config_.stats; }
  ScalabilityVector* scalability() override { return &scalability_; }
  bool Expand(int core_id) override { return elastic_->Expand(core_id); }
  bool Shrink() override { return elastic_->Shrink(); }

  int node_id() const { return config_.stats->owner.node; }
  ElasticIterator* elastic() { return elastic_.get(); }

  /// Workers the segment launched with.
  int launch_width() const { return config_.elastic.initial_parallelism; }
  /// Clock time the driver started; 0 before Start().
  int64_t start_ns() const { return start_ns_.load(std::memory_order_acquire); }
  /// Driver start → drained, for ExecutionReport; 0 until the driver exits.
  int64_t lifetime_ns() const {
    return lifetime_ns_.load(std::memory_order_acquire);
  }
  /// Worker count at the moment the segment drained.
  int final_parallelism() const {
    return final_parallelism_.load(std::memory_order_acquire);
  }

  /// True once the driver exited with a broken stream: the pump reported
  /// failure (child error or send cancellation) without Cancel() being the
  /// cause. Valid after Join().
  bool failed() const { return failed_.load(std::memory_order_acquire); }

  /// A failure whose cause was infrastructure loss (kUnavailable on a send:
  /// dead node, or a fault storm outlasting every retry) rather than a logic
  /// error — the executor surfaces it as Status::Unavailable so the workload
  /// manager's retry policy can re-dispatch. Valid after Join().
  bool failed_unavailable() const {
    return failed() && sender_.send_unavailable();
  }

 private:
  void DriverMain();

  Config config_;
  ScalabilityVector scalability_;
  std::unique_ptr<ElasticIterator> elastic_;
  SenderPump sender_;
  PooledThread driver_;
  std::atomic<bool> cancel_{false};
  std::atomic<bool> done_{false};
  std::atomic<bool> failed_{false};
  std::atomic<int64_t> start_ns_{0};
  std::atomic<int64_t> lifetime_ns_{0};
  std::atomic<int> final_parallelism_{0};
  /// Atomic: Start() runs on the executor thread while active() and Cancel()
  /// are called concurrently from the scheduler tick.
  std::atomic<bool> started_{false};
};

}  // namespace claims

#endif  // CLAIMS_CLUSTER_SEGMENT_H_
