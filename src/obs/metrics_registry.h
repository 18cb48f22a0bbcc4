#ifndef CLAIMS_OBS_METRICS_REGISTRY_H_
#define CLAIMS_OBS_METRICS_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/macros.h"

namespace claims {

/// Monotone counter (events, tuples, bytes). Relaxed atomics: totals are
/// exact, cross-counter ordering is not promised.
class MetricCounter {
 public:
  void Add(int64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Last-value / high-watermark gauge (buffer occupancy, queue depth).
class MetricGauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  /// Monotone max update (high-watermarks from concurrent writers).
  void UpdateMax(double v) {
    double cur = value_.load(std::memory_order_relaxed);
    while (v > cur &&
           !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0};
};

/// Lock-free log2-bucketed histogram for latency/size distributions
/// (expansion delay, shrinkage delay, block bytes). Bucket i holds values in
/// [2^(i-1), 2^i); percentiles are read off the bucket boundaries, accurate
/// to a factor of 2 — plenty for the order-of-magnitude questions the paper's
/// Fig. 9 asks.
class MetricHistogram {
 public:
  static constexpr int kBuckets = 64;

  void Record(int64_t v);

  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  int64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  int64_t min() const;
  /// 0 on an empty histogram (not the INT64_MIN sentinel).
  int64_t max() const;
  double mean() const;
  /// Upper bound of the bucket containing the p-quantile, p in [0,1].
  int64_t Percentile(double p) const;
  void Reset();

  /// Occupancy of bucket `i` (non-cumulative), i in [0, kBuckets).
  int64_t bucket_count(int i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  /// Copies every bucket occupancy into `out[kBuckets]` and returns their
  /// sum. The snapshot is the subtrahend for *windowed* quantiles: the time-
  /// series sampler diffs two snapshots and reads percentiles off the delta.
  int64_t SnapshotBuckets(int64_t out[kBuckets]) const;

  /// Percentile over a bucket *delta* (current snapshot minus a previous
  /// one), same boundary semantics as Percentile. An empty window (all
  /// deltas zero) reports 0 — never a stale cumulative quantile. Negative
  /// entries (a Reset between snapshots) are treated as empty buckets.
  static int64_t DeltaPercentile(const int64_t delta[kBuckets], double p);
  /// Largest value bucket `i` can hold: 0 for bucket 0 (v <= 0), else
  /// 2^i - 1 (bucket i holds [2^(i-1), 2^i)). Prometheus `le` boundaries.
  static int64_t BucketUpperBound(int i) {
    return i == 0 ? 0 : (int64_t{1} << i) - 1;
  }

 private:
  static int BucketOf(int64_t v);

  std::atomic<int64_t> buckets_[kBuckets] = {};
  std::atomic<int64_t> count_{0};
  std::atomic<int64_t> sum_{0};
  std::atomic<int64_t> min_{INT64_MAX};
  std::atomic<int64_t> max_{INT64_MIN};
};

/// Process-wide registry of named metrics. Lookup takes a mutex — components
/// resolve their metrics once at construction and hold the stable pointers;
/// the update paths are pure atomics. Figures a component already keeps
/// (pool and ledger totals, process usage) are not pushed on every change:
/// a refresh hook copies them in whenever the registry is read. Names use
/// dotted lower-case ("scheduler.expansions", "net.bytes_sent");
/// instance-scoped metrics append a label after a colon ("buffer.peak:S1@n0").
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  CLAIMS_DISALLOW_COPY_AND_ASSIGN(MetricsRegistry);

  static MetricsRegistry* Global();

  /// Get-or-create; returned pointers stay valid for the registry's lifetime.
  MetricCounter* counter(const std::string& name);
  MetricGauge* gauge(const std::string& name);
  MetricHistogram* histogram(const std::string& name);

  /// Registers `hook`, which TextSnapshot and Visit run before they read.
  /// Hooks run one at a time, outside the registry mutex, so a hook may look
  /// metrics up; it must not register hooks. They live as long as the
  /// registry. The global registry comes with one: UpdateProcessGauges.
  void AddRefreshHook(std::function<void()> hook);

  /// Human-readable dump of every registered metric, sorted by name:
  ///   counter scheduler.expansions 42
  ///   gauge   buffer.peak:S1@n0 63
  ///   hist    elastic.expand_latency_ns count=12 mean=1834 p50=2048 ...
  std::string TextSnapshot() const;

  /// Zeroes every metric (tests; between bench repetitions). Pointers stay
  /// valid.
  void ResetAll();

  /// Runs the refresh hooks, then visits every registered metric, sorted by
  /// name within each kind, while holding the registry mutex (callbacks must
  /// not call back into the registry). The Prometheus exposition in
  /// obs/prometheus.h is built on this; tests use it to enumerate without
  /// parsing TextSnapshot.
  void Visit(
      const std::function<void(const std::string&, const MetricCounter&)>&
          on_counter,
      const std::function<void(const std::string&, const MetricGauge&)>&
          on_gauge,
      const std::function<void(const std::string&, const MetricHistogram&)>&
          on_histogram) const;

 private:
  void RunRefreshHooks() const;

  /// Taken before mu_, never under it. Serializing the hooks keeps a counter
  /// that a hook advances to a running total from being advanced twice.
  mutable std::mutex hooks_mu_;
  std::vector<std::function<void()>> hooks_;
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<MetricCounter>> counters_;
  std::map<std::string, std::unique_ptr<MetricGauge>> gauges_;
  std::map<std::string, std::unique_ptr<MetricHistogram>> histograms_;
};

}  // namespace claims

#endif  // CLAIMS_OBS_METRICS_REGISTRY_H_
