#include "wlm/introspection.h"

#include <cstdlib>
#include <utility>

#include "common/clock.h"
#include "common/string_util.h"
#include "fault/injector.h"
#include "obs/recorder.h"

namespace claims {
namespace {

void AppendJsonString(std::string* out, const std::string& s) {
  out->push_back('"');
  AppendJsonEscaped(out, s);
  out->push_back('"');
}

/// JSON has no Infinity/NaN; the snapshots pre-sanitize λ to -1, this guards
/// everything else.
std::string JsonNumber(double v) {
  if (v != v || v > 1e300 || v < -1e300) return "-1";
  return StrFormat("%.6g", v);
}

}  // namespace

IntrospectionOptions IntrospectionOptions::FromEnv(IntrospectionOptions base) {
  base.monitor = MonitorOptions::FromEnv(base.monitor);
  const char* ring = std::getenv("CLAIMS_TRACE_RING");
  if (ring != nullptr && ring[0] != '\0') {
    base.flight_recorder_capacity =
        static_cast<size_t>(std::atoll(ring));
  }
  const char* wd = std::getenv("CLAIMS_WATCHDOG");
  if (wd != nullptr && wd[0] != '\0' && wd[0] != '0') {
    base.enable_watchdog = true;
  }
  const char* ts = std::getenv("CLAIMS_TS_PERIOD_MS");
  if (ts != nullptr && ts[0] != '\0') {
    base.enable_timeseries = true;
    base.timeseries = TimeseriesOptions::FromEnv(base.timeseries);
  }
  return base;
}

IntrospectionPlane::IntrospectionPlane(QueryService* service,
                                       IntrospectionOptions options)
    : service_(service),
      options_(std::move(options)),
      monitor_(options_.monitor),
      watchdog_(options_.watchdog),
      sampler_(options_.timeseries) {
  RegisterRoutes();
  RegisterProbes();
}

IntrospectionPlane::~IntrospectionPlane() { Stop(); }

Status IntrospectionPlane::Start() {
  if (options_.flight_recorder_capacity > 0) {
    EventRecorder* rec = EventRecorder::Global();
    rec->ConfigureRing(options_.flight_recorder_capacity);
    rec->Enable();
  }
  CLAIMS_RETURN_IF_ERROR(monitor_.Start());
  if (options_.enable_watchdog) watchdog_.Start();
  if (options_.enable_timeseries) {
    MetricSampler::SetDefault(&sampler_);
    sampler_.Start();
  }
  return Status::OK();
}

void IntrospectionPlane::Stop() {
  if (MetricSampler::Default() == &sampler_) MetricSampler::SetDefault(nullptr);
  sampler_.Stop();
  watchdog_.Stop();
  monitor_.Stop();
}

void IntrospectionPlane::RegisterRoutes() {
  monitor_.AddHandler("GET", "/queries", [this](const HttpRequest&) {
    return HttpResponse::Json(QueriesJson());
  });
  monitor_.AddHandler("GET", "/scheduler", [this](const HttpRequest&) {
    return HttpResponse::Json(SchedulerJson());
  });
  monitor_.AddHandler("GET", "/faults", [this](const HttpRequest&) {
    return HttpResponse::Json(FaultsJson());
  });
}

void IntrospectionPlane::AttachFaultInjector(FaultInjector* injector) {
  injector_.store(injector, std::memory_order_release);
}

void IntrospectionPlane::RegisterProbes() {
  // Tuples-emitted progress over the running set. The value folds in the
  // running query ids so it moves whenever the *set* changes; it pins only
  // when the same queries sit there emitting nothing — the stall.
  watchdog_.AddProgressProbe("wlm.query_progress", [this]() -> int64_t {
    int64_t value = 0;
    bool any_running = false;
    for (const QueryInfo& q : service_->ListQueries()) {
      if (q.state != QueryState::kRunning) continue;
      any_running = true;
      value += q.tuples_emitted + 31 * static_cast<int64_t>(q.id);
    }
    return any_running ? value : StallWatchdog::kInactive;
  });

  // Scheduler-tick progress per node, active only while the node has a
  // segment registered: a node's control loop parks whenever it has nothing
  // to schedule (SP/ME queries never register), and a parked loop's frozen
  // tick count is idleness, not a stall.
  Cluster* cluster = service_->cluster();
  for (int node = 0; node < cluster->num_nodes(); ++node) {
    DynamicScheduler* sched = cluster->scheduler(node);
    watchdog_.AddProgressProbe(
        StrFormat("scheduler.node%d.ticks", node), [sched]() -> int64_t {
          return sched->has_segments() ? sched->tick_count()
                                       : StallWatchdog::kInactive;
        });
  }

  // Deadline breach: a query still RUNNING a full stall-window past its
  // absolute deadline means cooperative cancellation wedged somewhere.
  const int64_t grace_ns = options_.watchdog.stall_window_ns;
  watchdog_.AddConditionProbe("wlm.deadline_breach", [this, grace_ns]() {
    const int64_t now = SteadyClock::Default()->NowNanos();
    for (const QueryInfo& q : service_->ListQueries()) {
      if ((q.state != QueryState::kRunning &&
           q.state != QueryState::kRetrying) ||
          q.deadline_ns <= 0) {
        continue;
      }
      if (now - q.deadline_ns > grace_ns) {
        return StrFormat(
            "query %llu (%s) is %.2f s past its deadline and still running",
            static_cast<unsigned long long>(q.id), q.label.c_str(),
            (now - q.deadline_ns) / 1e9);
      }
    }
    return std::string();
  });

  // Incident context: when a stall fires under chaos, the report should say
  // which faults were in force — a wedged pipeline under an armed injector
  // is usually the injector doing its job, not a product bug.
  watchdog_.AddContextProvider("fault.active", [this]() {
    FaultInjector* injector = injector_.load(std::memory_order_acquire);
    if (injector == nullptr) return std::string();
    return injector->DescribeActiveFaults();
  });

  // Incident context: the recorder's open spans say what every wedged
  // segment was blocked on at the moment the stall fired — starved on which
  // exchange, backpressured into which buffer. Empty when recording is off
  // or nothing is mid-wait.
  watchdog_.AddContextProvider("recorder.open_spans", []() {
    return EventRecorder::Global()->OpenSpansText();
  });

  // Incident context: the last two minutes of every metric series, so ANY
  // incident — stall or anomaly — ships with the trajectory that led to it,
  // not just the instantaneous snapshot.
  watchdog_.AddContextProvider("timeseries.window", [this]() {
    if (sampler_.sample_count() == 0) return std::string();
    return sampler_.ToText("", 120'000'000'000);
  });

  // A sustained metric deviation (throughput collapse, p99 spike, queue
  // growth) becomes a first-class incident: flight-recorder dump + every
  // context provider above + the deviant series' own window, under the
  // watchdog's per-source cooldown. Runs on the sampler thread with no
  // sampler lock held (ToText re-locks safely).
  sampler_.SetIncidentCallback([this](const AnomalyIncident& incident) {
    std::string detail = incident.description;
    detail += "\n\n--- deviant series window ---\n";
    detail += sampler_.ToText(incident.series, 0);
    watchdog_.ReportIncident("timeseries." + incident.series, detail);
  });
}

std::string IntrospectionPlane::QueriesJson() const {
  const int64_t now = SteadyClock::Default()->NowNanos();
  AdmissionController* adm = service_->admission();
  std::string out = StrFormat(
      "{\"now_ns\":%lld,\"queue_depth\":%zu,"
      "\"admission\":{\"running\":%d,\"cores_in_flight\":%d,"
      "\"memory_in_flight\":%lld,\"max_concurrent\":%d},"
      "\"queries\":[",
      static_cast<long long>(now), service_->queue_depth(), adm->running(),
      adm->cores_in_flight(), static_cast<long long>(adm->memory_in_flight()),
      adm->options().max_concurrent);
  bool first = true;
  for (const QueryInfo& q : service_->ListQueries()) {
    if (!first) out.push_back(',');
    first = false;
    out += StrFormat("{\"id\":%llu,\"label\":",
                     static_cast<unsigned long long>(q.id));
    AppendJsonString(&out, q.label);
    out += StrFormat(
        ",\"state\":\"%s\",\"priority\":%d,\"submit_ns\":%lld,"
        "\"queue_wait_ns\":%lld,\"run_ns\":%lld,\"deadline_ns\":%lld,"
        "\"tuples_emitted\":%lld,\"tuples_consumed\":%lld,"
        "\"live_segments\":%d,\"mem_charged_bytes\":%lld,"
        "\"mem_budget_bytes\":%lld,\"mem_spilled_bytes\":%lld,\"status\":",
        QueryStateName(q.state), q.priority,
        static_cast<long long>(q.submit_ns),
        static_cast<long long>(q.queue_wait_ns),
        static_cast<long long>(q.run_ns),
        static_cast<long long>(q.deadline_ns),
        static_cast<long long>(q.tuples_emitted),
        static_cast<long long>(q.tuples_consumed), q.live_segments,
        static_cast<long long>(q.mem_charged_bytes),
        static_cast<long long>(q.mem_budget_bytes),
        static_cast<long long>(q.mem_spilled_bytes));
    AppendJsonString(&out, q.status);
    out.push_back('}');
  }
  out += "]}";
  return out;
}

std::string IntrospectionPlane::SchedulerJson() const {
  Cluster* cluster = service_->cluster();
  std::string out = "{\"nodes\":[";
  double global_lambda = -1.0;
  for (int node = 0; node < cluster->num_nodes(); ++node) {
    DynamicScheduler* sched = cluster->scheduler(node);
    // The live view is the node's latest decision audit.
    std::shared_ptr<const SchedTickAudit> last = sched->LastAudit();
    const SchedTickAudit audit = last != nullptr ? *last : SchedTickAudit{};
    if (audit.lambda_global >= 0) global_lambda = audit.lambda_global;
    if (node > 0) out.push_back(',');
    out += StrFormat(
        "{\"node\":%d,\"num_cores\":%d,\"cores_in_use\":%d,\"ticks\":%lld,"
        "\"last_tick_ns\":%lld,\"lambda_local\":%s,\"segments\":[",
        node, sched->options().num_cores, sched->cores_in_use(),
        static_cast<long long>(sched->tick_count()),
        static_cast<long long>(audit.ts_ns),
        JsonNumber(audit.lambda_local).c_str());
    bool first = true;
    for (const SchedTickAudit::Segment& seg : audit.segments) {
      if (!first) out.push_back(',');
      first = false;
      out += "{\"name\":";
      AppendJsonString(&out, seg.name);
      out += StrFormat(
          ",\"query_id\":%llu,\"parallelism\":%d,\"normalized_rate\":%s,"
          "\"rate\":%s,\"blocked_in\":%s,\"blocked_out\":%s,\"action\":\"%s\"}",
          static_cast<unsigned long long>(seg.query_id), seg.parallelism,
          JsonNumber(seg.normalized_rate).c_str(),
          JsonNumber(seg.rate).c_str(), JsonNumber(seg.blocked_in).c_str(),
          JsonNumber(seg.blocked_out).c_str(), seg.action);
    }
    out += "]}";
  }
  out += StrFormat("],\"global_lambda\":%s}", JsonNumber(global_lambda).c_str());
  return out;
}

std::string IntrospectionPlane::FaultsJson() const {
  FaultInjector* injector = injector_.load(std::memory_order_acquire);
  if (injector == nullptr) return "{\"attached\":false}";
  std::string out = StrFormat(
      "{\"attached\":true,\"seed\":%llu,\"elapsed_ns\":%lld,\"plan\":",
      static_cast<unsigned long long>(injector->plan().seed),
      static_cast<long long>(injector->ElapsedNanos()));
  AppendJsonString(&out, injector->plan().ToString());
  out += ",\"active\":";
  AppendJsonString(&out, injector->DescribeActiveFaults());
  out += ",\"events\":";
  AppendJsonString(&out, injector->EventLogText());
  out.push_back('}');
  return out;
}

}  // namespace claims
