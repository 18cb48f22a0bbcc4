#ifndef CLAIMS_WLM_INTROSPECTION_H_
#define CLAIMS_WLM_INTROSPECTION_H_

#include <atomic>
#include <memory>
#include <string>

#include "common/macros.h"
#include "common/status.h"
#include "obs/monitor_server.h"
#include "obs/timeseries/timeseries.h"
#include "obs/watchdog.h"
#include "wlm/query_service.h"

namespace claims {

class FaultInjector;

/// Configuration of the whole introspection plane. Like MonitorOptions,
/// everything defaults to OFF: a default-constructed plane starts no server,
/// no watchdog thread, and leaves tracing untouched.
struct IntrospectionOptions {
  MonitorOptions monitor;
  /// Start the stall watchdog alongside the monitor.
  bool enable_watchdog = false;
  WatchdogOptions watchdog;
  /// When > 0: bound the global EventRecorder to a ring of this many records
  /// (the flight recorder) and turn it on, so /flight-recorder/dump and
  /// watchdog incidents always have a bounded recent-records window.
  size_t flight_recorder_capacity = 0;
  /// Start the metric time-series sampler alongside the monitor and publish
  /// it as MetricSampler::Default — this is what puts data behind
  /// /timeseries and /dash and arms the anomaly watchdog.
  bool enable_timeseries = false;
  TimeseriesOptions timeseries;

  /// Environment overlay:
  ///   CLAIMS_MONITOR_PORT=<port>   enable the monitor (0 = ephemeral)
  ///   CLAIMS_TRACE_RING=<events>   flight-recorder capacity (handled by
  ///                                TraceEnvScope too; here for servers
  ///                                that construct the plane directly)
  ///   CLAIMS_WATCHDOG=1            enable the stall watchdog
  ///   CLAIMS_TS_PERIOD_MS=<ms>     enable the time-series sampler at this
  ///                                cadence
  static IntrospectionOptions FromEnv(IntrospectionOptions base);
  static IntrospectionOptions FromEnv() {
    return FromEnv(IntrospectionOptions());
  }
};

/// Ties the observability primitives to the running system: owns a
/// MonitorServer and a StallWatchdog, registers the workload-manager routes
///
///   GET /queries    live query inventory (QueryService::ListQueries)
///   GET /scheduler  per-node DynamicScheduler snapshots (cores in use,
///                   live segments, parallelism, last λ and R_i)
///
/// and wires the watchdog probes:
///   * scheduler-tick progress per node (active only while the node has a
///     segment registered — an idle control loop parks and must not alarm);
///   * per-query tuples-emitted progress for every running query;
///   * a deadline-breach condition (running past its absolute deadline by
///     more than the stall window means cooperative cancellation wedged).
///
/// This lives in wlm — the top of the dependency stack — precisely so the
/// obs layer needs no knowledge of queries, schedulers, or clusters.
class IntrospectionPlane {
 public:
  IntrospectionPlane(QueryService* service, IntrospectionOptions options);
  ~IntrospectionPlane();

  CLAIMS_DISALLOW_COPY_AND_ASSIGN(IntrospectionPlane);

  /// Starts whatever the options enable. Idempotent per component; a fully
  /// disabled plane is a no-op returning OK.
  Status Start();
  /// Stops watchdog then monitor. Idempotent; the destructor calls it.
  void Stop();

  MonitorServer* monitor() { return &monitor_; }
  StallWatchdog* watchdog() { return &watchdog_; }
  MetricSampler* sampler() { return &sampler_; }

  /// Surfaces an armed chaos plane: adds GET /faults (planned schedule,
  /// active faults, event log so far) and a watchdog context provider so
  /// incident reports record whether — and which — faults were live when a
  /// stall fired. Pass nullptr to detach. The injector must outlive the
  /// plane or the next AttachFaultInjector(nullptr).
  void AttachFaultInjector(FaultInjector* injector);

  /// JSON bodies of the registered routes (exposed for tests; the HTTP
  /// handlers return exactly these strings).
  std::string QueriesJson() const;
  std::string SchedulerJson() const;
  std::string FaultsJson() const;

 private:
  void RegisterRoutes();
  void RegisterProbes();

  QueryService* service_;
  IntrospectionOptions options_;
  MonitorServer monitor_;
  StallWatchdog watchdog_;
  MetricSampler sampler_;
  std::atomic<FaultInjector*> injector_{nullptr};
};

}  // namespace claims

#endif  // CLAIMS_WLM_INTROSPECTION_H_
