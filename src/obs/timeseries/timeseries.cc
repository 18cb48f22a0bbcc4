#include "obs/timeseries/timeseries.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>

#include "common/string_util.h"

namespace claims {

namespace {

std::atomic<MetricSampler*> g_default_sampler{nullptr};

}  // namespace

TimeseriesOptions TimeseriesOptions::FromEnv(TimeseriesOptions base) {
  if (const char* v = std::getenv("CLAIMS_TS_PERIOD_MS")) {
    long ms = std::strtol(v, nullptr, 10);
    if (ms > 0) base.period_ns = static_cast<int64_t>(ms) * 1'000'000;
  }
  return base;
}

MetricSampler* MetricSampler::Default() {
  return g_default_sampler.load(std::memory_order_acquire);
}

void MetricSampler::SetDefault(MetricSampler* sampler) {
  g_default_sampler.store(sampler, std::memory_order_release);
}

MetricSampler::MetricSampler(TimeseriesOptions options, Clock* clock,
                             MetricsRegistry* registry)
    : options_(options),
      clock_(clock != nullptr ? clock : SteadyClock::Default()),
      registry_(registry != nullptr ? registry : MetricsRegistry::Global()),
      samples_metric_(registry_->counter("timeseries.samples")),
      anomalies_metric_(registry_->counter("timeseries.anomalies")),
      dropped_series_metric_(registry_->counter("timeseries.dropped_series")),
      detector_(options.anomaly) {}

MetricSampler::~MetricSampler() {
  Stop();
  if (Default() == this) SetDefault(nullptr);
}

void MetricSampler::Start() {
  if (running_.exchange(true, std::memory_order_acq_rel)) return;
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    stop_requested_ = false;
  }
  thread_ = std::thread([this] { ThreadMain(); });
}

void MetricSampler::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    stop_requested_ = true;
  }
  wake_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void MetricSampler::ThreadMain() {
  // The wait is real-time (std::condition_variable::wait_for), NOT
  // clock_->SleepNanos: a frozen injected clock must never hang the sampler
  // thread (only timestamps come from the injected clock). Same contract as
  // the stall watchdog's poll loop.
  const auto period = std::chrono::nanoseconds(
      std::max<int64_t>(options_.period_ns, 1'000'000));
  while (true) {
    {
      std::unique_lock<std::mutex> lock(wake_mu_);
      wake_cv_.wait_for(lock, period, [this] { return stop_requested_; });
      if (stop_requested_) return;
    }
    SampleOnce();
  }
}

int MetricSampler::SampleOnce() {
  const int64_t now = clock_->NowNanos();

  // Collect outside our own mutex: Visit holds the registry mutex during
  // callbacks, and we never want registry_mu + sampler_mu held together.
  struct RawCounter {
    std::string name;
    int64_t value;
  };
  struct RawGauge {
    std::string name;
    double value;
  };
  struct RawHist {
    std::string name;
    int64_t buckets[MetricHistogram::kBuckets];
  };
  std::vector<RawCounter> counters;
  std::vector<RawGauge> gauges;
  std::vector<RawHist> hists;
  registry_->Visit(
      [&](const std::string& name, const MetricCounter& c) {
        counters.push_back({name, c.value()});
      },
      [&](const std::string& name, const MetricGauge& g) {
        gauges.push_back({name, g.value()});
      },
      [&](const std::string& name, const MetricHistogram& h) {
        RawHist raw;
        raw.name = name;
        h.SnapshotBuckets(raw.buckets);
        hists.push_back(std::move(raw));
      });

  int appended = 0;
  std::vector<AnomalyIncident> fired;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const int64_t last = last_sample_ns_;
    const double dt_s =
        last >= 0 && now > last ? static_cast<double>(now - last) / 1e9 : 0.0;

    auto append = [&](const std::string& name, const char* kind,
                      double value) {
      AppendLocked(name, kind, now, value);
      ++appended;
      if (options_.detect_anomalies &&
          (options_.anomaly_watch.empty() ||
           name.find(options_.anomaly_watch) != std::string::npos)) {
        AnomalyIncident inc;
        if (detector_.Observe(name, now, value, &inc)) {
          fired.push_back(std::move(inc));
        }
      }
    };

    for (const RawCounter& c : counters) {
      auto [it, inserted] = counter_base_.try_emplace(c.name, c.value);
      if (inserted) continue;  // first observation: baseline only
      int64_t delta = c.value - it->second;
      // A negative delta means the counter was Reset between samples: treat
      // the current value as the new window's worth and rebase.
      if (delta < 0) delta = c.value;
      it->second = c.value;
      append(c.name, "rate",
             dt_s > 0 ? static_cast<double>(delta) / dt_s : 0.0);
    }
    for (const RawGauge& g : gauges) {
      append(g.name, "gauge", g.value);
    }
    for (const RawHist& h : hists) {
      HistBaseline& base = hist_base_[h.name];
      if (!base.valid) {
        std::copy(h.buckets, h.buckets + MetricHistogram::kBuckets,
                  base.buckets);
        base.valid = true;
        continue;
      }
      int64_t delta[MetricHistogram::kBuckets];
      int64_t window_count = 0;
      for (int b = 0; b < MetricHistogram::kBuckets; ++b) {
        delta[b] = h.buckets[b] - base.buckets[b];
        base.buckets[b] = h.buckets[b];
        if (delta[b] > 0) window_count += delta[b];
      }
      append(h.name + ".rate", "rate",
             dt_s > 0 ? static_cast<double>(window_count) / dt_s : 0.0);
      append(h.name + ".p50", "quantile",
             static_cast<double>(MetricHistogram::DeltaPercentile(delta, 0.50)));
      append(h.name + ".p95", "quantile",
             static_cast<double>(MetricHistogram::DeltaPercentile(delta, 0.95)));
      append(h.name + ".p99", "quantile",
             static_cast<double>(MetricHistogram::DeltaPercentile(delta, 0.99)));
    }

    last_sample_ns_ = now;
  }
  sample_count_.fetch_add(1, std::memory_order_relaxed);
  samples_metric_->Add(appended);

  // Incidents fire outside mu_: the callback typically raises a watchdog
  // incident whose context providers read this sampler back (ToText).
  for (const AnomalyIncident& inc : fired) {
    anomalies_metric_->Add();
    {
      std::lock_guard<std::mutex> lock(mu_);
      TsAnnotation a;
      a.t_ns = inc.t_ns;
      a.label = "anomaly." + inc.series;
      a.begin = true;
      if (annotations_.size() < options_.annotation_capacity) {
        annotations_.push_back(std::move(a));
      } else if (!annotations_.empty()) {
        annotations_[annotation_next_ % annotations_.size()] = std::move(a);
        annotation_next_ = (annotation_next_ + 1) % annotations_.size();
      }
    }
    if (on_incident_) on_incident_(inc);
  }
  return appended;
}

void MetricSampler::AppendLocked(const std::string& name, const char* kind,
                                 int64_t t_ns, double value) {
  auto it = series_.find(name);
  if (it == series_.end()) {
    if (series_.size() >= options_.max_series) {
      dropped_series_metric_->Add();
      return;
    }
    it = series_.emplace(name, SeriesRing{}).first;
    it->second.kind = kind;
    it->second.samples.reserve(
        std::min<size_t>(options_.ring_capacity, 64));
  }
  SeriesRing& ring = it->second;
  TsSample s{t_ns, value};
  if (ring.samples.size() < options_.ring_capacity) {
    ring.samples.push_back(s);
  } else if (!ring.samples.empty()) {
    ring.samples[ring.next] = s;
    ring.next = (ring.next + 1) % ring.samples.size();
  }
}

std::vector<TsSample> MetricSampler::OrderedSamplesLocked(
    const SeriesRing& ring) const {
  std::vector<TsSample> out;
  out.reserve(ring.samples.size());
  if (ring.samples.size() < options_.ring_capacity) {
    out = ring.samples;  // not yet wrapped: already chronological
  } else {
    for (size_t i = 0; i < ring.samples.size(); ++i) {
      out.push_back(ring.samples[(ring.next + i) % ring.samples.size()]);
    }
  }
  return out;
}

void MetricSampler::Annotate(std::string label, bool begin) {
  TsAnnotation a;
  a.t_ns = clock_->NowNanos();
  a.label = std::move(label);
  a.begin = begin;
  std::lock_guard<std::mutex> lock(mu_);
  if (annotations_.size() < options_.annotation_capacity) {
    annotations_.push_back(std::move(a));
  } else if (!annotations_.empty()) {
    annotations_[annotation_next_ % annotations_.size()] = std::move(a);
    annotation_next_ = (annotation_next_ + 1) % annotations_.size();
  }
}

void MetricSampler::SetIncidentCallback(IncidentCallback cb) {
  on_incident_ = std::move(cb);
}

std::string MetricSampler::ToJson(const std::string& metric_filter,
                                  int64_t window_ns) const {
  const int64_t now = clock_->NowNanos();
  const int64_t cutoff = window_ns > 0 ? now - window_ns : INT64_MIN;
  std::string out;
  out.reserve(4096);
  std::lock_guard<std::mutex> lock(mu_);
  out += StrFormat(
      "{\"enabled\":true,\"now_ns\":%lld,\"period_ns\":%lld,\"series\":[",
      static_cast<long long>(now),
      static_cast<long long>(options_.period_ns));
  bool first_series = true;
  for (const auto& [name, ring] : series_) {
    if (!metric_filter.empty() &&
        name.find(metric_filter) == std::string::npos) {
      continue;
    }
    if (!first_series) out += ',';
    first_series = false;
    out += "{\"name\":\"";
    AppendJsonEscaped(&out, name);
    out += StrFormat("\",\"kind\":\"%s\",\"samples\":[", ring.kind);
    bool first_sample = true;
    for (const TsSample& s : OrderedSamplesLocked(ring)) {
      if (s.t_ns < cutoff) continue;
      if (!first_sample) out += ',';
      first_sample = false;
      out += StrFormat("[%lld,%.10g]", static_cast<long long>(s.t_ns),
                       s.value);
    }
    out += "]}";
  }
  out += "],\"annotations\":[";
  bool first_ann = true;
  std::vector<TsAnnotation> anns = annotations_;
  std::sort(anns.begin(), anns.end(),
            [](const TsAnnotation& a, const TsAnnotation& b) {
              return a.t_ns < b.t_ns;
            });
  for (const TsAnnotation& a : anns) {
    if (a.t_ns < cutoff) continue;
    if (!first_ann) out += ',';
    first_ann = false;
    out += StrFormat("{\"t_ns\":%lld,\"label\":\"",
                     static_cast<long long>(a.t_ns));
    AppendJsonEscaped(&out, a.label);
    out += StrFormat("\",\"begin\":%s}", a.begin ? "true" : "false");
  }
  out += "]}";
  return out;
}

std::string MetricSampler::ToText(const std::string& metric_filter,
                                  int64_t window_ns) const {
  const int64_t now = clock_->NowNanos();
  const int64_t cutoff = window_ns > 0 ? now - window_ns : INT64_MIN;
  std::string out;
  out += StrFormat("timeseries period=%lldms window=%s\n",
                   static_cast<long long>(options_.period_ns / 1'000'000),
                   window_ns > 0
                       ? StrFormat("%llds",
                                   static_cast<long long>(window_ns /
                                                          1'000'000'000))
                             .c_str()
                       : "all");
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, ring] : series_) {
    if (!metric_filter.empty() &&
        name.find(metric_filter) == std::string::npos) {
      continue;
    }
    std::vector<double> values;
    double vmin = 0, vmax = 0, vlast = 0;
    bool any = false;
    for (const TsSample& s : OrderedSamplesLocked(ring)) {
      if (s.t_ns < cutoff) continue;
      values.push_back(s.value);
      if (!any) {
        vmin = vmax = s.value;
        any = true;
      } else {
        vmin = std::min(vmin, s.value);
        vmax = std::max(vmax, s.value);
      }
      vlast = s.value;
    }
    if (!any) continue;
    out += StrFormat("  %-44s %-8s min=%-10.4g max=%-10.4g last=%-10.4g [%s]\n",
                     name.c_str(), ring.kind, vmin, vmax, vlast,
                     AsciiSparkline(values).c_str());
  }
  std::vector<TsAnnotation> anns = annotations_;
  std::sort(anns.begin(), anns.end(),
            [](const TsAnnotation& a, const TsAnnotation& b) {
              return a.t_ns < b.t_ns;
            });
  bool header = false;
  for (const TsAnnotation& a : anns) {
    if (a.t_ns < cutoff) continue;
    if (!header) {
      out += "annotations:\n";
      header = true;
    }
    out += StrFormat("  t=%lldns %s %s\n", static_cast<long long>(a.t_ns),
                     a.begin ? "begin" : "end", a.label.c_str());
  }
  return out;
}

std::vector<std::string> MetricSampler::SeriesNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(series_.size());
  for (const auto& [name, ring] : series_) names.push_back(name);
  return names;
}

std::vector<TsSample> MetricSampler::SeriesSamples(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = series_.find(name);
  if (it == series_.end()) return {};
  return OrderedSamplesLocked(it->second);
}

std::vector<TsAnnotation> MetricSampler::Annotations() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TsAnnotation> anns = annotations_;
  std::sort(anns.begin(), anns.end(),
            [](const TsAnnotation& a, const TsAnnotation& b) {
              return a.t_ns < b.t_ns;
            });
  return anns;
}

std::string AsciiSparkline(const std::vector<double>& values) {
  static const char kRamp[] = " .:-=+*#%@";
  constexpr int kLevels = 10;
  if (values.empty()) return "";
  double vmax = 0;
  for (double v : values) vmax = std::max(vmax, v);
  std::string out;
  out.reserve(values.size());
  for (double v : values) {
    if (vmax <= 0 || v <= 0) {
      out += kRamp[0];
      continue;
    }
    int level = static_cast<int>(std::floor(v / vmax * (kLevels - 1) + 0.5));
    out += kRamp[std::clamp(level, 0, kLevels - 1)];
  }
  return out;
}

}  // namespace claims
