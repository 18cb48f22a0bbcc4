#include "obs/metrics_registry.h"

#include <algorithm>

#include "common/string_util.h"
#include "obs/process_stats.h"

namespace claims {

int MetricHistogram::BucketOf(int64_t v) {
  if (v <= 0) return 0;
  int bit = 63 - __builtin_clzll(static_cast<unsigned long long>(v));
  return std::min(kBuckets - 1, bit + 1);
}

void MetricHistogram::Record(int64_t v) {
  buckets_[BucketOf(v)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
  int64_t cur = min_.load(std::memory_order_relaxed);
  while (v < cur &&
         !min_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
  cur = max_.load(std::memory_order_relaxed);
  while (v > cur &&
         !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

int64_t MetricHistogram::min() const {
  int64_t v = min_.load(std::memory_order_relaxed);
  return v == INT64_MAX ? 0 : v;
}

int64_t MetricHistogram::max() const {
  // Empty-histogram guard lives here (not in each renderer) so no caller can
  // ever observe the INT64_MIN sentinel.
  int64_t v = max_.load(std::memory_order_relaxed);
  return v == INT64_MIN ? 0 : v;
}

double MetricHistogram::mean() const {
  int64_t n = count();
  return n == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(n);
}

int64_t MetricHistogram::Percentile(double p) const {
  int64_t n = count();
  if (n == 0) return 0;
  int64_t target = static_cast<int64_t>(p * static_cast<double>(n - 1)) + 1;
  int64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    seen += buckets_[b].load(std::memory_order_relaxed);
    if (seen >= target) {
      // Upper bucket boundary: bucket b holds [2^(b-1), 2^b).
      return b == 0 ? 0 : int64_t{1} << b;
    }
  }
  return max();
}

int64_t MetricHistogram::SnapshotBuckets(int64_t out[kBuckets]) const {
  int64_t total = 0;
  for (int b = 0; b < kBuckets; ++b) {
    out[b] = buckets_[b].load(std::memory_order_relaxed);
    total += out[b];
  }
  return total;
}

int64_t MetricHistogram::DeltaPercentile(const int64_t delta[kBuckets],
                                         double p) {
  int64_t n = 0;
  for (int b = 0; b < kBuckets; ++b) n += std::max<int64_t>(0, delta[b]);
  if (n == 0) return 0;
  int64_t target = static_cast<int64_t>(p * static_cast<double>(n - 1)) + 1;
  int64_t seen = 0;
  int last_occupied = 0;
  for (int b = 0; b < kBuckets; ++b) {
    int64_t occ = std::max<int64_t>(0, delta[b]);
    if (occ > 0) last_occupied = b;
    seen += occ;
    if (seen >= target) return b == 0 ? 0 : int64_t{1} << b;
  }
  return last_occupied == 0 ? 0 : int64_t{1} << last_occupied;
}

void MetricHistogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(INT64_MAX, std::memory_order_relaxed);
  max_.store(INT64_MIN, std::memory_order_relaxed);
}

MetricsRegistry* MetricsRegistry::Global() {
  static MetricsRegistry* registry = [] {
    auto* r = new MetricsRegistry;
    r->AddRefreshHook(UpdateProcessGauges);
    return r;
  }();
  return registry;
}

void MetricsRegistry::AddRefreshHook(std::function<void()> hook) {
  std::lock_guard<std::mutex> lock(hooks_mu_);
  hooks_.push_back(std::move(hook));
}

void MetricsRegistry::RunRefreshHooks() const {
  std::lock_guard<std::mutex> lock(hooks_mu_);
  for (const auto& hook : hooks_) hook();
}

MetricCounter* MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<MetricCounter>();
  return slot.get();
}

MetricGauge* MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<MetricGauge>();
  return slot.get();
}

MetricHistogram* MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<MetricHistogram>();
  return slot.get();
}

std::string MetricsRegistry::TextSnapshot() const {
  RunRefreshHooks();
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const auto& [name, c] : counters_) {
    out += StrFormat("counter %s %lld\n", name.c_str(),
                     static_cast<long long>(c->value()));
  }
  for (const auto& [name, g] : gauges_) {
    out += StrFormat("gauge   %s %.6g\n", name.c_str(), g->value());
  }
  for (const auto& [name, h] : histograms_) {
    out += StrFormat(
        "hist    %s count=%lld mean=%.0f min=%lld p50=%lld p95=%lld "
        "p99=%lld max=%lld\n",
        name.c_str(), static_cast<long long>(h->count()), h->mean(),
        static_cast<long long>(h->min()),
        static_cast<long long>(h->Percentile(0.50)),
        static_cast<long long>(h->Percentile(0.95)),
        static_cast<long long>(h->Percentile(0.99)),
        static_cast<long long>(h->max()));
  }
  return out;
}

void MetricsRegistry::Visit(
    const std::function<void(const std::string&, const MetricCounter&)>&
        on_counter,
    const std::function<void(const std::string&, const MetricGauge&)>&
        on_gauge,
    const std::function<void(const std::string&, const MetricHistogram&)>&
        on_histogram) const {
  RunRefreshHooks();
  std::lock_guard<std::mutex> lock(mu_);
  if (on_counter) {
    for (const auto& [name, c] : counters_) on_counter(name, *c);
  }
  if (on_gauge) {
    for (const auto& [name, g] : gauges_) on_gauge(name, *g);
  }
  if (on_histogram) {
    for (const auto& [name, h] : histograms_) on_histogram(name, *h);
  }
}

void MetricsRegistry::ResetAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Reset();
  for (auto& [name, h] : histograms_) h->Reset();
}

}  // namespace claims
