// The layered benchmark program: one closed-loop workload per run, against an
// in-process 2-node x 2-core cluster.
//
//   perfbench --workload <session-short|service-mix|sse-netbound>
//             [--seed N] [--seconds S] [--trace 0|1] [--trace-out PATH]
//
// Every run sets up kSetups times, each over its own data drawn from the
// seed, and its timing windows split their S seconds evenly across those
// set-ups. --trace 0 reports the end-to-end metrics of one window (setup_s is
// the median set-up). --trace 1 runs an untraced and a traced window of S/2
// seconds each, then the layer probes, writes the spans as Chrome-trace JSON
// to PATH and reports the per-layer metrics. Human-readable tables go to
// stdout first; the last stdout line is the JSON result. See README.md.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "mem/block_pool.h"
#include "src/probes.h"
#include "src/spans.h"
#include "src/stats.h"
#include "src/workloads.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20;
  int trace = 0;
  std::string trace_out;
};

/// Set-ups per run, each over its own data; setup_s is their median.
constexpr int kSetups = 5;

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value);
    } else if (flag == "--trace") {
      args->trace = std::atoi(value);
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return FindWorkload(args->workload) != nullptr && args->seconds > 0 &&
         (args->trace == 0 || args->trace == 1);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB
    }
  }
  return 0;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) v = v > 0 ? 1e308 : -1e308;
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           JsonNumber(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

int64_t CountFailed(const WorkloadSpec& spec,
                    const std::vector<Sample>& samples) {
  int64_t failed = 0;
  for (const Sample& s : samples) {
    if (!s.ok) {
      ++failed;
      std::printf("FAILED %s on dataset %d: %s\n",
                  spec.mix[s.type].label.c_str(), s.dataset, s.error.c_str());
    }
  }
  return failed;
}

/// Client-visible latency per query type; a failed query misses every
/// latency bound, so it counts as infinitely slow.
std::map<std::string, std::vector<double>> LatencyByType(
    const WorkloadSpec& spec, const std::vector<Sample>& samples) {
  std::map<std::string, std::vector<double>> by_type;
  for (const Sample& s : samples) {
    by_type[spec.mix[s.type].label].push_back(s.ok ? s.latency_ms()
                                                   : INFINITY);
  }
  return by_type;
}

std::map<std::string, std::vector<double>> ExecByType(
    const WorkloadSpec& spec, const std::vector<Sample>& samples) {
  std::map<std::string, std::vector<double>> by_type;
  for (const Sample& s : samples) {
    if (s.ok) by_type[spec.mix[s.type].label].push_back(s.exec_ns / 1e6);
  }
  return by_type;
}

void PrintWindow(const WorkloadSpec& spec, const Window& w) {
  auto latency = LatencyByType(spec, w.samples);
  auto exec = ExecByType(spec, w.samples);
  std::map<std::string, std::vector<double>> queue;
  double exec_s = 0;
  for (const Sample& s : w.samples) {
    queue[spec.mix[s.type].label].push_back(s.queue_wait_ns / 1e6);
    exec_s += s.exec_ns / 1e9;
  }
  std::printf("%-10s %5s %12s %12s %12s\n", "query", "n", "latency_p50",
              "execute_p50", "queue_p50");
  for (const auto& [label, ms] : latency) {
    std::printf("%-10s %5zu %9.2f ms %9.2f ms %9.2f ms\n", label.c_str(),
                ms.size(), Median(ms), Median(exec[label]),
                Median(queue[label]));
  }
  std::printf("window: %zu queries in %.3f s, %.3f s executing\n",
              w.samples.size(), w.seconds(), exec_s);
}

/// One line of every set-up's reference digests, keyed "<query>#<set-up>";
/// run.py checks it against golden.json.
void PrintReference(const std::vector<std::unique_ptr<Env>>& envs) {
  std::string line = "reference_digests {";
  for (size_t e = 0; e < envs.size(); ++e) {
    for (size_t i = 0; i < envs[e]->reference.size(); ++i) {
      if (e + i > 0) line += ", ";
      line += "\"" + envs[e]->spec->mix[i].label + "#" + std::to_string(e) +
              "\": \"" + envs[e]->reference[i] + "\"";
    }
  }
  std::printf("%s}\n", line.c_str());
}

double Throughput(const Window& w) {
  int64_t ok = 0;
  for (const Sample& s : w.samples) ok += s.ok ? 1 : 0;
  return w.seconds() > 0 ? ok / w.seconds() : 0;
}

/// kSetups set-ups, each over its own data drawn from the run's seed; all of
/// them stay loaded, since the timing windows pool them. Empty on failure.
std::vector<std::unique_ptr<Env>> SetUpAll(const Args& args,
                                           const WorkloadSpec& spec,
                                           int64_t process_start,
                                           std::vector<double>* setup_s) {
  std::vector<std::unique_ptr<Env>> envs;
  for (int i = 0; i < kSetups; ++i) {
    const int64_t t0 = i == 0 ? process_start : NowNs();
    auto env = std::make_unique<Env>();
    claims::Status s =
        SetUp(spec, DeriveSeed(args.seed, static_cast<uint64_t>(i) + 1),
              env.get());
    if (!s.ok()) {
      std::fprintf(stderr, "set-up %d failed: %s\n", i + 1,
                   s.ToString().c_str());
      return {};
    }
    setup_s->push_back((NowNs() - t0) / 1e9);
    std::printf("set-up %d: %.3f s, peak RSS %.1f MB\n", i + 1,
                setup_s->back(), PeakRssMb());
    envs.push_back(std::move(env));
  }
  return envs;
}

int RunMeasured(const Args& args, const WorkloadSpec& spec,
                int64_t process_start) {
  std::vector<double> setup_s;
  const auto envs = SetUpAll(args, spec, process_start, &setup_s);
  if (envs.empty()) return 1;

  const Window w = RunWindow(envs, args.seed, args.seconds, nullptr);
  const int64_t failed = CountFailed(spec, w.samples);
  auto by_type = LatencyByType(spec, w.samples);
  std::vector<double> all;
  for (const auto& [type, ms] : by_type) {
    all.insert(all.end(), ms.begin(), ms.end());
  }
  const std::optional<double> p95 = GuardedPercentile(all, 95);
  PrintWindow(spec, w);
  PrintReference(envs);
  const claims::BlockPool::Stats pool = claims::BlockPool::Global()->GetStats();
  std::printf("block pool: %.1f MB live, %.1f MB idle in central tier, "
              "%lld fresh allocations\n",
              pool.live_bytes / 1e6, pool.central_bytes / 1e6,
              static_cast<long long>(pool.misses));
  if (!p95.has_value()) {
    std::fprintf(stderr,
                 "only %zu completions: fewer than 10 lie beyond p95; "
                 "lengthen --seconds\n",
                 all.size());
    return 1;
  }
  const std::vector<Metric> metrics = {
      {"setup_s", Median(setup_s), "s"},
      {"throughput_qps", Throughput(w), "1/s"},
      {"latency_geomean_ms", GeomeanOfMedians(by_type), "ms"},
      {"latency_p95_ms", *p95, "ms"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
  PrintResult(failed == 0, static_cast<int64_t>(w.samples.size()), failed,
              metrics);
  return 0;
}

/// wlm.* from service samples: queue wait, execute time over the span they
/// ran in, and what remains of client latency.
void WlmMetrics(const std::vector<Sample>& samples, int64_t span_ns,
                std::vector<Metric>* metrics) {
  std::vector<double> queue_ms;
  std::vector<double> overhead_ms;
  double exec_ns = 0;
  for (const Sample& s : samples) {
    queue_ms.push_back(s.queue_wait_ns / 1e6);
    overhead_ms.push_back(
        (s.end_ns - s.start_ns - s.queue_wait_ns - s.exec_ns) / 1e6);
    exec_ns += static_cast<double>(s.exec_ns);
  }
  metrics->push_back({"wlm.queue_wait_ms", Median(queue_ms), "ms"});
  metrics->push_back(
      {"wlm.concurrency", span_ns > 0 ? exec_ns / span_ns : 0, "ratio"});
  metrics->push_back({"wlm.overhead_ms", Median(overhead_ms), "ms"});
}

int RunTraced(const Args& args, const WorkloadSpec& spec,
              int64_t process_start) {
  std::vector<double> setup_s;
  const auto envs = SetUpAll(args, spec, process_start, &setup_s);
  if (envs.empty()) return 1;
  // Half the time each, so a traced run executes as many queries as a
  // measured one: the engine keeps some memory per query it has run.
  const Window plain = RunWindow(envs, args.seed, args.seconds / 2, nullptr);
  SpanRecorder spans;
  const Window traced = RunWindow(envs, args.seed, args.seconds / 2, &spans);
  int64_t attempted =
      static_cast<int64_t>(plain.samples.size() + traced.samples.size());
  int64_t failed =
      CountFailed(spec, plain.samples) + CountFailed(spec, traced.samples);
  PrintWindow(spec, traced);
  PrintReference(envs);

  // Probes run over the first set-up's tables.
  Env* env = envs.front().get();
  std::vector<Metric> metrics;
  if (spec.use_service) {
    WlmMetrics(traced.samples, traced.span_ns, &metrics);
  } else {
    // Database::Query bypasses the workload manager, so its layer is probed
    // apart: every query of the mix, twice, through a QueryService.
    StartService(env);
    const int64_t start = NowNs();
    std::vector<Sample> probe;
    for (int round = 0; round < 2; ++round) {
      for (int type = 0; type < static_cast<int>(spec.mix.size()); ++type) {
        probe.push_back(RunQuery(env, type, 0));
      }
    }
    const int64_t end = NowNs();
    attempted += static_cast<int64_t>(probe.size());
    failed += CountFailed(spec, probe);
    WlmMetrics(probe, end - start, &metrics);
    Span span;
    span.name = "wlm.probe";
    span.start_ns = start;
    span.end_ns = end;
    span.tid = 100;
    span.args = {{"count", std::to_string(probe.size())},
                 {"unit", "queries"}};
    spans.Add(span);
    env->service.reset();  // the probes below want an idle cluster
  }

  auto exec = ExecByType(spec, traced.samples);
  double slowest = 0;
  for (const auto& [label, ms] : exec) {
    const double p50 = Median(ms);
    slowest = std::max(slowest, p50);
    std::printf("cluster.execute_ms.%s = %.3f\n", label.c_str(), p50);
  }
  double remote = 0;
  for (const Sample& q : traced.samples) remote += q.remote_bytes / 1e6;
  metrics.push_back({"cluster.execute_ms.geomean", GeomeanOfMedians(exec),
                     "ms"});
  metrics.push_back({"cluster.execute_ms.slowest", slowest, "ms"});
  metrics.push_back(
      {"cluster.remote_mb",
       traced.samples.empty() ? 0 : remote / traced.samples.size(), "MB"});

  std::vector<ProbeWork> work;
  claims::Status s = RunLayerProbes(env, args.seed, &spans, &metrics, &work);
  if (!s.ok()) {
    std::fprintf(stderr, "layer probes failed: %s\n", s.ToString().c_str());
    return 1;
  }
  const double plain_qps = Throughput(plain);
  metrics.push_back({"obs.trace_overhead_pct",
                     plain_qps > 0
                         ? 100.0 * (plain_qps - Throughput(traced)) / plain_qps
                         : 0,
                     "%"});

  std::printf("%-22s %14s %-12s %10s\n", "probe", "count", "unit", "busy_ms");
  for (const ProbeWork& w : work) {
    std::printf("%-22s %14lld %-12s %10.2f\n", w.probe.c_str(),
                static_cast<long long>(w.count), w.what.c_str(),
                w.busy_ns / 1e6);
  }
  const std::vector<Span> all = spans.spans();
  int64_t total = 0;
  const auto self = SelfTimeByLayer(all);
  for (const auto& [layer, ns] : self) total += ns;
  std::printf("%-10s %12s %7s\n", "layer", "self_ms", "share");
  for (const auto& [layer, ns] : self) {
    std::printf("%-10s %12.2f %6.1f%%\n", layer.c_str(), ns / 1e6,
                total > 0 ? 100.0 * ns / total : 0);
  }
  if (!args.trace_out.empty()) {
    std::ofstream out(args.trace_out);
    out << ToChromeJson(all);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
      return 1;
    }
    std::printf("trace: %zu spans -> %s\n", all.size(),
                args.trace_out.c_str());
  }
  PrintResult(failed == 0, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const int64_t process_start = NowNs();
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::string names;
    for (const std::string& n : WorkloadNames()) names += " " + n;
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> [--seed N] [--seconds S] "
                 "[--trace 0|1] [--trace-out PATH]\n"
                 "workloads:%s\n",
                 names.c_str());
    return 2;
  }
  const WorkloadSpec& spec = *FindWorkload(args.workload);
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
              spec.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace);
  return args.trace == 0 ? RunMeasured(args, spec, process_start)
                         : RunTraced(args, spec, process_start);
}
