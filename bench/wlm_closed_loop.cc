// Workload-manager traffic bench: drives a TPC-H-subset query stream at the
// QueryService over an in-process cluster and reports the latency
// distribution (p50/p95/p99), makespan, and throughput. This is the
// concurrency smoke the CI wlm job runs (16-query closed loop) and the
// source of the BENCH_wlm.json baseline record (--json).
//
//   wlm_closed_loop [--queries N] [--mpl M] [--open [--rate QPS]]
//                   [--scale SF] [--seed S] [--json] [--monitor-port P]
//                   [--linger SEC] [--profile] [--mem-budget-mb MB]
//                   [--timeline] [--chaos-seed S]
//
// --seed fixes the driver's deterministic randomness (open-mode Poisson
// inter-arrivals); two runs with the same seed submit the same schedule.
//
// --timeline records per-second completion buckets: the JSON record gains a
// "timeline" array (throughput + p99 per second) and the text report prints
// ASCII sparklines — the time axis BENCH_wlm.json otherwise lacks.
//
// --chaos-seed arms a seeded fault storm (RandomFaultStorm) PLUS a scripted
// crash of node 3 one second in, with query retries enabled, so a monitored
// run produces the dip-and-recover curve on /timeseries and /dash with the
// crash annotated on the timeline (the CI monitor-smoke configuration).
// Under chaos the exit code only requires that every query terminated and
// some succeeded — typed failures through a killed node are the scenario,
// not a bug.
//
// --profile turns the event recorder on for the whole run (bounded to a
// 64 K-record ring unless the monitor or a CLAIMS_TRACE capture already
// sized it) and, after the workload drains, prints the slowest profiled
// query's critical path and timeline (docs/OBSERVABILITY.md). With
// --monitor-port, every profile is also live at GET /profile/<id> under the
// same ids /queries shows.
//
// --monitor-port starts the live introspection plane (HTTP monitoring
// endpoint + flight recorder + watchdog) on 127.0.0.1:P (0 = ephemeral; the
// bound port is printed). --linger keeps the process and the monitor alive,
// and a --chaos-seed injector armed, for SEC seconds after the workload
// drains so an external scraper (the CI monitor-smoke job) can probe
// terminal state and the fault timeline.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "engine/database.h"
#include "engine/workloads.h"
#include "fault/fault_plan.h"
#include "fault/injector.h"
#include "obs/profile/assembler.h"
#include "obs/recorder.h"
#include "wlm/driver/workload_driver.h"
#include "wlm/introspection.h"
#include "wlm/query_service.h"

int main(int argc, char** argv) {
  using namespace claims;
  TraceEnvScope trace_scope;  // CLAIMS_TRACE=<path> captures the run

  int queries = 16;
  int mpl = 8;
  double scale = 0.02;
  double rate = 0;
  bool open = false;
  bool json = false;
  bool profile = false;
  int monitor_port = -1;  // -1 = monitoring off
  double linger_sec = 0;
  uint64_t seed = 42;
  int64_t mem_budget_mb = 0;  // 0 = memory admission gate off
  bool timeline = false;
  int64_t chaos_seed = -1;  // -1 = chaos off
  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char* flag) -> double {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(2);
      }
      return std::atof(argv[++i]);
    };
    if (!std::strcmp(argv[i], "--queries")) {
      queries = static_cast<int>(next("--queries"));
    } else if (!std::strcmp(argv[i], "--mpl")) {
      mpl = static_cast<int>(next("--mpl"));
    } else if (!std::strcmp(argv[i], "--scale")) {
      scale = next("--scale");
    } else if (!std::strcmp(argv[i], "--rate")) {
      rate = next("--rate");
    } else if (!std::strcmp(argv[i], "--open")) {
      open = true;
    } else if (!std::strcmp(argv[i], "--json")) {
      json = true;
    } else if (!std::strcmp(argv[i], "--profile")) {
      profile = true;
    } else if (!std::strcmp(argv[i], "--monitor-port")) {
      monitor_port = static_cast<int>(next("--monitor-port"));
    } else if (!std::strcmp(argv[i], "--linger")) {
      linger_sec = next("--linger");
    } else if (!std::strcmp(argv[i], "--seed")) {
      seed = static_cast<uint64_t>(next("--seed"));
    } else if (!std::strcmp(argv[i], "--mem-budget-mb")) {
      mem_budget_mb = static_cast<int64_t>(next("--mem-budget-mb"));
    } else if (!std::strcmp(argv[i], "--timeline")) {
      timeline = true;
    } else if (!std::strcmp(argv[i], "--chaos-seed")) {
      chaos_seed = static_cast<int64_t>(next("--chaos-seed"));
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }

  DatabaseOptions dopts;
  dopts.cluster.num_nodes = 4;
  dopts.cluster.cores_per_node = 8;
  Database db(dopts);
  if (Status s = db.LoadTpch({.scale_factor = scale}); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }

  // Drivers cycle through the supported TPC-H subset. Plans are move-only
  // and consumed by Submit, so each query is planned on demand; planning is
  // serialized because Database::Plan is not advertised thread-safe.
  const std::vector<int>& numbers = SupportedTpchQueries();
  {
    // Fail fast on any unplannable query before starting the clock.
    for (int q : numbers) {
      if (auto plan = db.Plan(*TpchQuery(q)); !plan.ok()) {
        std::fprintf(stderr, "Q%d: %s\n", q,
                     plan.status().ToString().c_str());
        return 1;
      }
    }
  }
  std::mutex plan_mu;

  QueryServiceOptions sopts;
  sopts.admission.max_concurrent = mpl;
  sopts.admission.core_budget =
      dopts.cluster.num_nodes * dopts.cluster.cores_per_node;
  // Constrained-memory scenario: an aggregate admission budget makes every
  // admitted query run under a binding per-query ledger (its clamped
  // reservation), so the storm degrades by spill/reject instead of growing
  // unbounded — the BENCH_wlm memory-pressure configuration.
  if (mem_budget_mb > 0) {
    sopts.admission.memory_budget_bytes = mem_budget_mb << 20;
  }
  sopts.max_queue_depth = 2 * static_cast<size_t>(queries);
  QueryService service(db.cluster(), sopts);

  std::unique_ptr<IntrospectionPlane> plane;
  if (monitor_port >= 0) {
    IntrospectionOptions iopts;
    iopts.monitor.enabled = true;
    iopts.monitor.port = monitor_port;
    iopts.flight_recorder_capacity = 1 << 16;
    iopts.enable_watchdog = true;
    // A monitored run always gets the time axis: /timeseries + /dash data
    // and the anomaly watchdog, at the env-overridable 1 s default cadence.
    iopts.enable_timeseries = true;
    iopts.timeseries = TimeseriesOptions::FromEnv(iopts.timeseries);
    plane = std::make_unique<IntrospectionPlane>(&service, iopts);
    if (Status s = plane->Start(); !s.ok()) {
      std::fprintf(stderr, "monitor: %s\n", s.ToString().c_str());
      return 1;
    }
    // Printed (and flushed) before the clock starts so a supervising script
    // can discover an ephemeral port.
    std::printf("monitor listening on 127.0.0.1:%d\n",
                plane->monitor()->port());
    std::fflush(stdout);
  }

  // Seeded chaos: a windowed storm (drop/delay/dup/NIC) plus a scripted
  // crash of node 3, at plan times counted from Arm (the crash at 1 s).
  // Queries get a retry budget so most ride through the faults that land
  // while they run. A short run can end before the first window opens, so
  // the injector stays armed until --linger ends: the faults still fire,
  // and /faults and the time-series annotations show them either way.
  std::unique_ptr<FaultInjector> injector;
  if (chaos_seed >= 0) {
    FaultPlan storm = RandomFaultStorm(static_cast<uint64_t>(chaos_seed),
                                       dopts.cluster.num_nodes,
                                       3'000'000'000);
    FaultSpec crash;
    crash.kind = FaultKind::kCrashNode;
    crash.at_ns = 1'000'000'000;
    crash.node = dopts.cluster.num_nodes - 1;
    storm.faults.push_back(crash);
    injector = std::make_unique<FaultInjector>(std::move(storm));
    db.cluster()->AttachFaultInjector(injector.get());
    if (plane) plane->AttachFaultInjector(injector.get());
  }

  WorkloadOptions wopts;
  wopts.mode = open ? ArrivalMode::kOpen : ArrivalMode::kClosed;
  wopts.total_queries = queries;
  wopts.mpl = mpl;
  wopts.arrival_rate_qps = rate;
  wopts.seed = seed;
  wopts.submit.label = "tpch";
  wopts.timeline = timeline;
  if (injector) {
    wopts.submit.retry.max_attempts = 3;
    wopts.submit.retry.initial_backoff_ns = 5'000'000;
  }
  wopts.make_plan = [&](int seq) -> PhysicalPlan {
    std::lock_guard<std::mutex> lock(plan_mu);
    auto plan = db.Plan(*TpchQuery(numbers[seq % numbers.size()]));
    return std::move(*plan);
  };
  wopts.priority_of = [](int seq) { return seq % 3; };

  if (profile) {
    EventRecorder* recorder = EventRecorder::Global();
    if (recorder->ring_capacity() == 0 && !trace_scope.active()) {
      recorder->ConfigureRing(1 << 16);
    }
    recorder->Enable();
  }
  if (injector) injector->Arm();

  WorkloadDriver driver(&service, wopts);
  WorkloadReport report = driver.Run();

  if (json) {
    std::printf("%s\n", report.ToJson().c_str());
  } else {
    bench::Title("Workload manager: TPC-H subset traffic");
    std::printf("%s\n", report.ToString().c_str());
  }
  if (profile) {
    // Every finished query stored an assembled profile under its wlm handle
    // id; show the one that hurt most. (The ring keeps the last 64, which
    // covers any CI-sized run; size bigger workloads accordingly.)
    std::shared_ptr<const QueryProfile> slowest;
    for (const auto& p : EventRecorder::Global()->ListProfiles()) {
      if (slowest == nullptr || p->wall_ns() > slowest->wall_ns()) slowest = p;
    }
    if (slowest != nullptr) {
      bench::Title("Slowest profiled query: critical path");
      std::printf("%s\n", slowest->ToText().c_str());
    } else {
      std::printf("no profiles recorded\n");
    }
  }
  std::fflush(stdout);
  if (plane && linger_sec > 0) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(static_cast<int64_t>(linger_sec * 1000)));
  }
  if (injector) {
    injector->Disarm();
    db.cluster()->AttachFaultInjector(nullptr);
  }
  if (plane) plane->Stop();
  const int terminated = report.succeeded + report.failed + report.cancelled +
                         report.deadline_exceeded;
  if (injector) {
    // Chaos run: typed failures through the killed node are expected; the
    // gate is "no hangs, survivors keep answering".
    return terminated == report.total && report.succeeded > 0 ? 0 : 1;
  }
  return report.succeeded == report.total ? 0 : 1;
}
