#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

// The three closed-loop workloads: their parameters, one set-up of the
// in-process cluster, and the client loop that drives the mix through the
// workload's public entry point (Database::Query or QueryService).

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "engine/database.h"
#include "src/spans.h"
#include "wlm/query_service.h"

namespace perfbench {

struct QueryDef {
  std::string label;  ///< "tpch_q5", "sse_q7"
  std::string sql;
  int weight = 1;  ///< slots in each client's shuffled deck of the mix
};

/// Every workload runs on 2 nodes x 2 cores; the service workloads admit at
/// most 2 queries (MPL) holding at most 4 initial cores between them.
inline constexpr int kNumNodes = 2;
inline constexpr int kCoresPerNode = 2;
inline constexpr int kServiceMpl = 2;
inline constexpr int kServiceCoreBudget = kNumNodes * kCoresPerNode;

struct WorkloadSpec {
  std::string name;
  bool use_service = false;  ///< QueryService; else Database::Query
  int clients = 1;
  int64_t nic_bytes_per_sec = 0;  ///< 0 = unthrottled fabric
  bool tpch = true;
  double scale_factor = 0;  ///< TPC-H
  int64_t trades_rows = 0;  ///< SSE
  int64_t securities_rows = 0;
  std::vector<QueryDef> mix;
};

/// Looks a workload up by name; nullptr when unknown.
const WorkloadSpec* FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

/// splitmix64 step: derives independent streams from the run seed.
uint64_t DeriveSeed(uint64_t seed, uint64_t stream);

int64_t NowNs();

/// One set-up: generated data, the cluster and the reference digest of every
/// query in the mix.
struct Env {
  const WorkloadSpec* spec = nullptr;
  std::unique_ptr<claims::Database> db;
  /// The workload manager, live only while this set-up is being measured:
  /// an idle QueryService keeps its cluster's scheduler threads ticking
  /// beside the set-up that is. Declared after db so it is destroyed (and
  /// shut down) first.
  std::unique_ptr<claims::QueryService> service;
  std::vector<std::string> reference;  ///< digest per mix index
  std::mutex plan_mu;  ///< Database::Plan is not advertised thread-safe
};

/// Starts env->service with the workload's admission settings.
void StartService(Env* env);

/// Generates the data from `data_seed`, takes reference digests from a
/// static-parallelism-1 run of every query, then warms every query up once
/// through the workload's path and checks it. Errors (including a warm-up
/// mismatch) fail the run. Leaves no service running.
claims::Status SetUp(const WorkloadSpec& spec, uint64_t data_seed, Env* env);

/// What the client saw of one query.
struct Sample {
  int type = 0;  ///< index into the mix
  int client = 0;
  int dataset = 0;  ///< which set-up's data and cluster ran it
  int64_t start_ns = 0;  ///< client begins (before planning)
  int64_t end_ns = 0;    ///< result in the client's hand
  int64_t plan_end_ns = 0;  ///< service path: Database::Plan returned
  int64_t submit_ns = 0;    ///< service path: QueryHandle::submit_ns()
  int64_t queue_wait_ns = 0;
  int64_t exec_ns = 0;  ///< ExecutionReport::elapsed_ns
  int64_t remote_bytes = 0;
  bool ok = false;
  std::string error;  ///< status text or digest mismatch

  double latency_ms() const { return (end_ns - start_ns) / 1e6; }
};

/// Runs one query of the mix through env->service when one is running, else
/// through Database::Query, and verifies its digest against the reference.
Sample RunQuery(Env* env, int type, int client);

struct Window {
  int64_t span_ns = 0;  ///< Σ over datasets of start → last completion
  std::vector<Sample> samples;

  double seconds() const { return span_ns / 1e9; }
};

/// Closed loop over each set-up in turn, for an equal share of `seconds`:
/// `spec.clients` threads, each walking its own seeded shuffles of the mix,
/// send queries until the share has passed, then finish the one in flight.
/// Pooling several datasets keeps one dataset's cost (Q5's join blow-up
/// varies twofold between TPC-H seeds) from deciding a run. With `spans`
/// set, each query also records its span tree.
Window RunWindow(const std::vector<std::unique_ptr<Env>>& envs, uint64_t seed,
                 double seconds, SpanRecorder* spans);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
