#include "obs/watchdog.h"

#include <chrono>
#include <cstdio>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"
#include "obs/metrics_registry.h"
#include "obs/recorder.h"

namespace claims {

StallWatchdog::StallWatchdog(WatchdogOptions options, Clock* clock)
    : options_(std::move(options)),
      clock_(clock != nullptr ? clock : SteadyClock::Default()),
      incidents_metric_(
          MetricsRegistry::Global()->counter("watchdog.incidents")) {}

StallWatchdog::~StallWatchdog() { Stop(); }

void StallWatchdog::AddProgressProbe(std::string name,
                                     std::function<int64_t()> fn) {
  std::lock_guard<std::mutex> lock(mu_);
  ProgressProbe probe;
  probe.name = std::move(name);
  probe.fn = std::move(fn);
  probe.last_change_ns = clock_->NowNanos();
  progress_probes_.push_back(std::move(probe));
}

void StallWatchdog::AddConditionProbe(std::string name,
                                      std::function<std::string()> fn) {
  std::lock_guard<std::mutex> lock(mu_);
  ConditionProbe probe;
  probe.name = std::move(name);
  probe.fn = std::move(fn);
  condition_probes_.push_back(std::move(probe));
}

void StallWatchdog::AddContextProvider(std::string name,
                                       std::function<std::string()> fn) {
  std::lock_guard<std::mutex> lock(mu_);
  context_providers_.push_back({std::move(name), std::move(fn)});
}

void StallWatchdog::Start() {
  if (running_.exchange(true, std::memory_order_acq_rel)) return;
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    stop_requested_ = false;
  }
  thread_ = std::thread([this] { ThreadMain(); });
}

void StallWatchdog::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    stop_requested_ = true;
  }
  wake_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void StallWatchdog::ThreadMain() {
  std::unique_lock<std::mutex> lock(wake_mu_);
  while (!stop_requested_) {
    // Real time, not claims::Clock: the watchdog must keep polling even when
    // an injected virtual clock is frozen (that frozen clock may be the very
    // anomaly under investigation).
    wake_cv_.wait_for(lock,
                      std::chrono::nanoseconds(options_.poll_period_ns));
    if (stop_requested_) break;
    lock.unlock();
    PollOnce();
    lock.lock();
  }
}

int StallWatchdog::PollOnce() {
  const int64_t now = clock_->NowNanos();
  int raised = 0;
  // Raise outside mu_? RaiseIncident only touches state guarded by mu_ and
  // does file IO; probes may not call back into the watchdog, so holding
  // mu_ across the pass is safe and keeps probe bookkeeping atomic.
  std::lock_guard<std::mutex> lock(mu_);
  for (ProgressProbe& probe : progress_probes_) {
    int64_t value = probe.fn();
    if (value == kInactive) {
      // Idle subsystem: reset the window so reactivation starts fresh.
      probe.last_value = kInactive;
      probe.last_change_ns = now;
      continue;
    }
    if (probe.last_value == kInactive || value != probe.last_value) {
      probe.last_value = value;
      probe.last_change_ns = now;
      continue;
    }
    const int64_t stalled_ns = now - probe.last_change_ns;
    if (stalled_ns >= options_.stall_window_ns &&
        now >= probe.suppressed_until_ns) {
      probe.suppressed_until_ns = now + options_.incident_cooldown_ns;
      RaiseIncident(
          probe.name,
          StrFormat("no progress for %.2f s (counter pinned at %lld, "
                    "stall window %.2f s)",
                    stalled_ns / 1e9, static_cast<long long>(value),
                    options_.stall_window_ns / 1e9),
          now);
      ++raised;
    }
  }
  for (ConditionProbe& probe : condition_probes_) {
    std::string detail = probe.fn();
    if (detail.empty() || now < probe.suppressed_until_ns) continue;
    probe.suppressed_until_ns = now + options_.incident_cooldown_ns;
    RaiseIncident(probe.name, detail, now);
    ++raised;
  }
  return raised;
}

bool StallWatchdog::ReportIncident(const std::string& source,
                                   const std::string& detail) {
  const int64_t now = clock_->NowNanos();
  std::lock_guard<std::mutex> lock(mu_);
  int64_t& until = external_suppressed_until_[source];
  if (now < until) return false;
  until = now + options_.incident_cooldown_ns;
  RaiseIncident(source, detail, now);
  return true;
}

void StallWatchdog::RaiseIncident(const std::string& probe,
                                  const std::string& detail, int64_t now_ns) {
  const int64_t id = next_incident_id_++;
  incidents_.fetch_add(1, std::memory_order_relaxed);
  incidents_metric_->Add();
  CLAIMS_LOG(Warning) << "watchdog incident #" << id << " [" << probe
                      << "]: " << detail;

  const std::string base =
      StrFormat("%s/incident-%lld", options_.incident_dir.c_str(),
                static_cast<long long>(id));
  EventRecorder* rec = EventRecorder::Global();
  std::string trace_path;
  if (options_.dump_flight_recorder && rec->enabled()) {
    trace_path = base + ".trace.json";
    if (Status s = rec->WriteChromeJson(trace_path); !s.ok()) {
      CLAIMS_LOG(Warning) << "watchdog: " << s.ToString();
      trace_path.clear();
    }
  }

  std::string report;
  report += StrFormat("watchdog incident #%lld\n",
                      static_cast<long long>(id));
  report += StrFormat("time_ns: %lld\n", static_cast<long long>(now_ns));
  report += "probe: " + probe + "\n";
  report += "detail: " + detail + "\n";
  report += StrFormat("flight_recorder: %s (records=%zu overwritten=%lld)\n",
                      trace_path.empty() ? "<not captured>"
                                         : trace_path.c_str(),
                      rec->size(),
                      static_cast<long long>(rec->overwritten()));
  for (const ContextProvider& provider : context_providers_) {
    std::string context = provider.fn();
    if (context.empty()) continue;
    report += "\n--- context: " + provider.name + " ---\n";
    report += context;
    if (report.back() != '\n') report.push_back('\n');
  }
  report += "\n--- metrics snapshot ---\n";
  report += MetricsRegistry::Global()->TextSnapshot();

  const std::string report_path = base + ".txt";
  std::FILE* f = std::fopen(report_path.c_str(), "w");
  if (f != nullptr) {
    std::fwrite(report.data(), 1, report.size(), f);
    std::fclose(f);
    incident_files_.push_back(report_path);
    if (!trace_path.empty()) incident_files_.push_back(trace_path);
  } else {
    CLAIMS_LOG(Warning) << "watchdog: cannot write " << report_path;
  }
}

std::vector<std::string> StallWatchdog::incident_files() const {
  std::lock_guard<std::mutex> lock(mu_);
  return incident_files_;
}

}  // namespace claims
