#ifndef CLAIMS_SIM_SIM_ENGINE_H_
#define CLAIMS_SIM_SIM_ENGINE_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/exchange.h"
#include "core/scheduler.h"
#include "fault/fault_plan.h"
#include "sim/cost_model.h"
#include "sim/event_queue.h"

namespace claims {

/// Per-stage workload profile of a simulated segment (virtual-time cluster
/// simulator; see DESIGN.md §1/§5 for why the figures run on this substrate).
struct SimStageProfile {
  double cpu_ns_per_tuple = 10.0;
  /// Memory traffic; the node's bandwidth cap throttles data-bound stages.
  double mem_bytes_per_tuple = 0.0;
  double selectivity = 1.0;
  int in_row_bytes = 16;
  int out_row_bytes = 16;
  /// Shared-state hot-entry count; >0 enables the lock-contention model
  /// (shared aggregation, Fig. 8b). 0 = contention-free.
  int64_t contention_groups = 0;
  /// Cap on the iterator state a build stage accumulates (aggregation states
  /// stop growing once every group exists); 0 = unbounded (join tables).
  int64_t max_state_bytes = 0;
  /// Optional position-dependent selectivity (Fig. 11): maps the fraction of
  /// the node's stage input already consumed to the selectivity there.
  std::function<double(double)> selectivity_at;
};

/// One stage of a segment (paper §2.1: a segment runs one active stage at a
/// time; a hash join contributes a build stage and a probe stage).
struct SimStageSpec {
  /// Input: exchange id (fed by upstream segments), or a local source of
  /// `source_tuples_per_node` tuples when negative.
  int input_exchange = -1;
  int64_t source_tuples_per_node = 0;
  SimStageProfile profile;
  /// Build stages fold into iterator state and emit nothing.
  bool emits = true;
};

struct SimSegmentSpec {
  std::string name;
  std::vector<int> nodes;
  std::vector<SimStageSpec> stages;
  int out_exchange = 0;
  Partitioning partitioning = Partitioning::kToOne;
  std::vector<int> consumer_nodes;
};

struct SimQuerySpec {
  std::vector<SimSegmentSpec> segments;  ///< topological order
  int result_exchange = 0;
};

/// Execution/scheduling frameworks of the paper's evaluation (§5.3–5.4).
enum class SimPolicy {
  kElastic,       ///< EP: this paper (DynamicScheduler, Algorithm 1)
  kStatic,        ///< SP: fixed compile-time parallelism
  kMaterialized,  ///< ME: group-at-a-time with full materialization
  kImplicit,      ///< IS [24]: c·m threads, OS time-sharing
  kMorsel,        ///< MDP [19]: worker pool, random unit pickup
  kMorselPlus,    ///< MDP+: pool with this paper's bottleneck-aware pickup
};

const char* SimPolicyName(SimPolicy policy);

struct SimOptions {
  int num_nodes = 10;
  SimHardware hardware;
  SimCostParams costs;
  SimPolicy policy = SimPolicy::kElastic;
  /// EP: initial parallelism; SP/ME: the fixed parallelism.
  int parallelism = 1;
  /// IS/MDP/MDP+: worker threads per node = concurrency_level × logical
  /// cores (the paper's c).
  double concurrency_level = 1.0;
  /// MDP executable-unit size (64 KB default; Table 5 also tests 8 KB).
  int64_t unit_bytes = 64 * 1024;
  int channel_capacity_blocks = 64;
  int64_t scheduler_period_ns = 50'000'000;
  /// Time-varying node capacity multiplier (Fig. 12's interfering program).
  std::function<double(int64_t)> node_capacity_at;
  /// Watchdog: abort the simulation past this virtual time.
  int64_t max_sim_ns = 7'200'000'000'000LL;
  /// Static pipelines (SP/ME/IS) pre-partition each scan's dataflow
  /// exclusively across their fixed workers (paper Fig. 2a); partition sizes
  /// vary with this coefficient of variation, so the slowest partition's
  /// tail dominates — one of the two inefficiencies EP removes. Elastic and
  /// morsel policies share a cursor and are immune.
  double partition_skew_cv = 0.35;
  /// Utilization accounting window (Table 6's time slices).
  int64_t utilization_window_ns = 1'000'000'000;
  /// High-utilization threshold θ_u (§5.4).
  double high_utilization_threshold = 0.95;
  uint64_t seed = 7;
  /// Query id of this run's records: with the EventRecorder on, the
  /// simulator stores segment, query and wire-batch records at virtual time
  /// (pid 1000+node) with the same {exchange, from, to, wire_seq} link keys
  /// as the real fabric, so profiles assemble identically from either
  /// substrate.
  uint64_t profile_query_id = 0;
  /// Chaos schedule rendered in virtual time. The simulator's lossless
  /// fabric has no retransmission model, so only the capacity faults apply:
  /// kStraggleNode scales the node's worker speed by 1/slowdown_factor and
  /// kDegradeNic caps the node's NIC rate for the window. Loss faults
  /// (drop/delay/dup/disconnect) and kCrashNode are real-engine-only
  /// (docs/FAULTS.md); the plan's per-send probabilities are ignored here.
  FaultPlan fault_plan;
};

/// Parallelism trace sample (Figs. 10–12).
struct SimTracePoint {
  int64_t t_ns;
  std::vector<int> parallelism;  ///< per segment spec, on the traced node
};

struct SimMetrics {
  int64_t response_ns = 0;
  double avg_cpu_utilization = 0;      ///< busy cores / logical cores
  double high_utilization_rate = 0;    ///< fraction of windows ≥ θ_u (cpu|net)
  double context_switches_per_sec = 0;
  double scheduling_overhead = 0;      ///< sched CPU time / response time
  double cache_miss_ratio = 0;         ///< modelled proxy (DESIGN.md §1)
  int64_t peak_memory_bytes = 0;       ///< channels + iterator state
  int64_t network_bytes = 0;
  std::vector<SimTracePoint> trace;    ///< on node 0
  /// Virtual time each traced segment entered its final stage (probe start;
  /// Fig. 13 build/probe split) — per segment spec index, -1 if single-stage.
  std::vector<int64_t> stage_switch_ns;
  /// First virtual time after which node-0 parallelism stayed within ±1 of
  /// its final per-phase value (Fig. 13 convergence delay, approximated).
  int64_t convergence_ns = 0;
  /// Virtual-time fault transitions (FormatFaultEventLog); byte-identical
  /// across runs of the same spec + options — the determinism artifact the
  /// chaos tests diff. Empty when fault_plan has no applicable faults.
  std::string fault_log;
};

/// Runs one simulated query. Single-shot object; deterministic given the
/// spec, options, and seed.
class SimRun {
 public:
  SimRun(SimQuerySpec spec, SimOptions options);
  ~SimRun();

  CLAIMS_DISALLOW_COPY_AND_ASSIGN(SimRun);

  Result<SimMetrics> Run();

 private:
  class Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace claims

#endif  // CLAIMS_SIM_SIM_ENGINE_H_
