#ifndef CLAIMS_OBS_WATCHDOG_H_
#define CLAIMS_OBS_WATCHDOG_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/macros.h"

namespace claims {

class MetricCounter;

struct WatchdogOptions {
  /// Probe sampling period.
  int64_t poll_period_ns = 100'000'000;  // 100 ms
  /// A progress probe whose counter has not advanced for this long (while
  /// the probe reports itself active) is a stall.
  int64_t stall_window_ns = 2'000'000'000;  // 2 s
  /// After an incident fires for a probe, further incidents from the same
  /// probe are suppressed for this long (a stalled system stays stalled;
  /// one report per episode is the useful granularity).
  int64_t incident_cooldown_ns = 10'000'000'000;  // 10 s
  /// Where incident reports (and flight-recorder dumps) are written.
  std::string incident_dir = ".";
  /// Also dump the EventRecorder (Chrome JSON) with each incident when
  /// recording is on.
  bool dump_flight_recorder = true;
};

/// A stalled elastic pipeline is invisible to throughput metrics — rates
/// just read zero — so the watchdog samples *progress* instead: monotone
/// counters (scheduler ticks, per-query tuples emitted) that must keep
/// moving while their subsystem claims to be active. On anomaly it writes a
/// text incident report plus a flight-recorder dump into `incident_dir`,
/// increments "watchdog.incidents", and logs — the live-introspection
/// equivalent of a post-mortem, taken while the process is still wedged.
///
/// Two probe flavors:
///  * progress probe — returns a monotone counter, or kInactive while the
///    subsystem is legitimately idle (idle is not a stall);
///  * condition probe — returns a non-empty description when an anomaly
///    holds right now (deadline breach, invariant violation).
///
/// Probes run on the watchdog thread and must be thread-safe and non-
/// blocking. Register everything before Start(); the paired subsystems in
/// wlm/introspection.h show the intended wiring.
class StallWatchdog {
 public:
  static constexpr int64_t kInactive = -1;

  /// `clock` defaults to SteadyClock; tests inject a manual clock and drive
  /// PollOnce directly.
  explicit StallWatchdog(WatchdogOptions options, Clock* clock = nullptr);
  ~StallWatchdog();

  CLAIMS_DISALLOW_COPY_AND_ASSIGN(StallWatchdog);

  void AddProgressProbe(std::string name, std::function<int64_t()> fn);
  void AddConditionProbe(std::string name, std::function<std::string()> fn);
  /// Context providers run when an incident is raised (not every poll) and
  /// their output is appended to the report — e.g. the fault plane's
  /// active-fault list, so a stall report says whether chaos was armed.
  /// Same contract as probes: thread-safe, non-blocking, registered before
  /// Start(). An empty return is omitted from the report.
  void AddContextProvider(std::string name, std::function<std::string()> fn);

  /// Launches the sampling thread. No-op when already running.
  void Start();
  /// Stops and joins. Idempotent.
  void Stop();
  bool running() const { return running_.load(std::memory_order_acquire); }

  /// One sampling pass (called by the thread every poll_period_ns; tests
  /// call it directly). Returns the number of incidents raised this pass.
  int PollOnce();

  /// Raises an incident on behalf of an external detector (the time-series
  /// anomaly watchdog) with the full report treatment — flight-recorder
  /// dump, context providers, metrics snapshot — under the same per-source
  /// cooldown as probes. Returns false when suppressed by cooldown.
  /// Thread-safe; callable whether or not the poll thread runs.
  bool ReportIncident(const std::string& source, const std::string& detail);

  int64_t incident_count() const {
    return incidents_.load(std::memory_order_relaxed);
  }
  /// Paths of every report written so far (tests; the /queries sibling
  /// endpoints surface the same list).
  std::vector<std::string> incident_files() const;

 private:
  struct ProgressProbe {
    std::string name;
    std::function<int64_t()> fn;
    int64_t last_value = kInactive;
    int64_t last_change_ns = 0;
    int64_t suppressed_until_ns = 0;
  };
  struct ConditionProbe {
    std::string name;
    std::function<std::string()> fn;
    int64_t suppressed_until_ns = 0;
  };
  struct ContextProvider {
    std::string name;
    std::function<std::string()> fn;
  };

  void ThreadMain();
  /// Writes report + dump, bumps counters. `detail` is the probe-specific
  /// description.
  void RaiseIncident(const std::string& probe, const std::string& detail,
                     int64_t now_ns);

  WatchdogOptions options_;
  Clock* clock_;
  MetricCounter* incidents_metric_;

  mutable std::mutex mu_;  ///< guards probe state and incident bookkeeping
  std::vector<ProgressProbe> progress_probes_;
  std::vector<ConditionProbe> condition_probes_;
  std::vector<ContextProvider> context_providers_;
  std::vector<std::string> incident_files_;
  /// Cooldown bookkeeping for ReportIncident sources (probe cooldowns live
  /// on the probes themselves).
  std::map<std::string, int64_t> external_suppressed_until_;
  int64_t next_incident_id_ = 0;

  std::atomic<int64_t> incidents_{0};
  std::atomic<bool> running_{false};
  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
  bool stop_requested_ = false;
  std::thread thread_;
};

}  // namespace claims

#endif  // CLAIMS_OBS_WATCHDOG_H_
