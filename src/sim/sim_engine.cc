#include "sim/sim_engine.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <tuple>

#include "common/random.h"
#include "common/string_util.h"
#include "obs/recorder.h"

namespace claims {

const char* SimPolicyName(SimPolicy policy) {
  switch (policy) {
    case SimPolicy::kElastic: return "EP";
    case SimPolicy::kStatic: return "SP";
    case SimPolicy::kMaterialized: return "ME";
    case SimPolicy::kImplicit: return "IS";
    case SimPolicy::kMorsel: return "MDP";
    case SimPolicy::kMorselPlus: return "MDP+";
  }
  return "?";
}

namespace {

constexpr int64_t kBlockBytes = 64 * 1024;

}  // namespace

class SimRun::Impl {
 public:
  Impl(SimQuerySpec spec, SimOptions options)
      : spec_(std::move(spec)), opt_(std::move(options)) {}

  // --- entity declarations ---------------------------------------------------

  struct SimBlock {
    int64_t tuples = 0;
    int row_bytes = 16;
    double visit_tail = 1.0;
    int from_instance = -1;
    int64_t bytes() const { return tuples * row_bytes; }
  };

  struct Worker;
  struct Instance;

  struct Channel {
    int exchange = 0;
    int node = 0;
    std::deque<SimBlock> queue;
    int capacity_blocks = 64;  // <=0: unbounded
    int open_producers = 0;
    bool auto_drain = false;  // result collector
    /// Materialized execution: partitions stay resident after consumption
    /// (Shark-style producer-side materialization, paper §2.2).
    bool materialized = false;
    std::vector<Worker*> recv_waiters;
    bool closed() const { return open_producers <= 0; }
    bool full() const {
      return capacity_blocks > 0 &&
             static_cast<int>(queue.size()) >= capacity_blocks;
    }
  };

  struct NodeState {
    int id = 0;
    int busy_workers = 0;
    double mem_demand_bytes_per_ns = 0;
    int64_t busy_last_change = 0;
    double busy_core_integral_ns = 0;  // effective-busy-cores × ns
    // NIC serialization points.
    int64_t egress_free = 0;
    int64_t ingress_free = 0;
    double context_switches = 0;
    int64_t sched_overhead_ns = 0;
    std::unique_ptr<DynamicScheduler> scheduler;  // EP only
    std::vector<Worker*> idle_pool;               // MDP/MDP+ pool workers
    std::vector<double> window_busy_core_ns;
    std::vector<double> window_net_ns;
  };

  /// One segment instance on one node; the scheduler-visible entity.
  struct Instance : SchedulableSegment {
    Impl* impl = nullptr;
    const SimSegmentSpec* spec = nullptr;
    int spec_index = 0;
    int node_id = 0;
    NodeState* node = nullptr;

    int stage = 0;
    int64_t start_vns = -1;  ///< virtual time the instance started
    int64_t source_remaining = 0;
    int64_t stage_input_total = 0;
    int64_t stage_input_consumed = 0;
    double out_accum = 0;        // fractional output tuples
    int64_t blocks_emitted = 0;  // round-robin hash destination
    int64_t state_bytes = 0;
    int in_flight = 0;  // busy workers on this instance's current stage
    bool finished_flag = false;
    bool started = false;
    int64_t first_stage_switch_ns = -1;

    std::vector<Worker*> workers;        // bound (non-pool) workers
    /// Workers waiting for the stage transition, by id: waking them in id
    /// order keeps the run independent of where the allocator put them.
    std::map<int, Worker*> parked;
    /// Static policies: per-worker exclusive share of the local source.
    std::map<Worker*, int64_t> static_share;
    /// Sender-side buffer (models the paper's sender thread + elastic
    /// buffer): workers deposit output blocks here and keep computing; a
    /// virtual sender drains it through the NIC. Workers block only when the
    /// outbox is full — the real engine's backpressure signal.
    std::deque<std::pair<Channel*, SimBlock>> outbox;
    bool outbox_sending = false;
    bool finish_when_drained = false;
    std::vector<Worker*> outbox_waiters;
    SegmentStats seg_stats;
    ScalabilityVector scal{64};
    VisitRateAggregator visits{&seg_stats};

    // --- SchedulableSegment --------------------------------------------------
    const std::string& name() const override { return spec->name; }
    bool active() const override { return started && !finished_flag; }
    int parallelism() const override {
      int live = 0;
      for (Worker* w : workers) {
        if (!w->exited && !w->terminate) ++live;
      }
      return live;
    }
    uint64_t query_id() const override { return seg_stats.owner.query_id; }
    SegmentStats* stats() override { return &seg_stats; }
    ScalabilityVector* scalability() override { return &scal; }
    bool Expand(int core_id) override { return impl->ExpandInstance(this, core_id); }
    bool Shrink() override { return impl->ShrinkInstance(this); }
  };

  struct Worker {
    int id = 0;
    Instance* instance = nullptr;  // bound instance (null for pool workers)
    NodeState* node = nullptr;
    bool pool = false;
    bool terminate = false;
    bool exited = false;
    Instance* last_unit = nullptr;  // previous unit's segment (locality)
    enum class State { kIdle, kBusy, kWaitInput, kWaitOutput } state =
        State::kIdle;
    Instance* working_on = nullptr;  // pool: instance of the in-flight unit
    std::deque<std::pair<Channel*, SimBlock>> to_send;
  };

  // --- top-level --------------------------------------------------------------

  Result<SimMetrics> Run();

  bool ExpandInstance(Instance* inst, int core_id);
  bool ShrinkInstance(Instance* inst);

 private:
  int64_t Now() const { return events_.now(); }

  /// Simulated nodes record under pid 1000+node so one capture can hold
  /// both the real engine (pids = node ids) and the simulator.
  static int SimPid(int node) { return 1000 + node; }

  Channel* GetChannel(int exchange, int node) {
    auto it = channels_.find({exchange, node});
    return it == channels_.end() ? nullptr : it->second.get();
  }

  // --- memory accounting -------------------------------------------------------
  void MemAdd(int64_t bytes) {
    mem_current_ += bytes;
    mem_peak_ = std::max(mem_peak_, mem_current_);
  }
  void MemSub(int64_t bytes) { mem_current_ -= bytes; }

  // --- node utilization integral -----------------------------------------------
  void TouchNodeBusy(NodeState* node) {
    int64_t now = Now();
    int64_t dt = now - node->busy_last_change;
    if (dt > 0 && node->busy_workers > 0) {
      // Occupancy, not throughput: a hyper-thread-paired or time-shared core
      // still counts as utilized (that is what the paper's CPU utilization
      // rate measures).
      double occupied = std::min(node->busy_workers,
                                 opt_.hardware.logical_cores);
      node->busy_core_integral_ns += occupied * dt;
      AddToWindows(&node->window_busy_core_ns, node->busy_last_change, now,
                   occupied);
    }
    node->busy_last_change = now;
  }

  void AddToWindows(std::vector<double>* windows, int64_t t0, int64_t t1,
                    double weight) {
    const int64_t win = opt_.utilization_window_ns;
    while (t0 < t1) {
      int64_t idx = t0 / win;
      int64_t end = std::min(t1, (idx + 1) * win);
      if (static_cast<int64_t>(windows->size()) <= idx) {
        windows->resize(static_cast<size_t>(idx) + 1, 0);
      }
      (*windows)[static_cast<size_t>(idx)] += weight * (end - t0);
      t0 = end;
    }
  }

  // --- worker lifecycle ---------------------------------------------------------
  void ScheduleTryStart(Worker* w) {
    events_.ScheduleAfter(0, [this, w] { WorkerTryStart(w); });
  }
  void WorkerTryStart(Worker* w);
  void OnBlockDone(Worker* w, Instance* inst, int64_t take, int stage_index);
  void TrySendAll(Worker* w);
  void PumpOutbox(Instance* inst);
  void ReleaseOutboxWaiter(Instance* inst);
  void CompleteFinish(Instance* inst);
  void WorkerExit(Worker* w);
  void ParkForStageEnd(Worker* w, Instance* inst);
  void MaybeAdvanceStage(Instance* inst);
  void AdvanceStage(Instance* inst);
  void FinishInstance(Instance* inst);
  void EmitTuples(Instance* inst, Worker* w, double tuples, bool flush);
  void PushBlock(Channel* ch, SimBlock block);
  void WakeIdlePool(NodeState* node);

  // --- worker time (SegmentStats::worker_time) -------------------------------
  /// A pool worker takes up a unit of `inst` (nullptr: none). Its live time
  /// goes to the instance of the unit it holds; a bound worker is live in
  /// its instance from ExpandInstance to WorkerExit.
  void HoldUnit(Worker* w, Instance* inst);
  /// Puts `w` in `wait` (kWaitInput / kWaitOutput) and opens the matching
  /// blocked interval; a worker already in that state keeps its interval.
  void BeginWait(Worker* w, Worker::State wait);
  /// Closes `w`'s blocked interval; `w` is idle afterwards.
  void EndWait(Worker* w);
  static WorkerTimeMeter::Kind WaitKind(Worker::State wait) {
    return wait == Worker::State::kWaitInput ? WorkerTimeMeter::kBlockedInput
                                             : WorkerTimeMeter::kBlockedOutput;
  }
  /// MDP liveness: true when at most one pool worker on `node` is not
  /// blocked on a full sender buffer. That worker must not block too, or
  /// every node could wedge behind not-yet-consumable exchanges.
  bool LastFreePoolWorker(const NodeState* node) const;

  Instance* PickPoolUnit(Worker* w);
  bool InstanceHasInput(Instance* inst);
  /// Stats sink for a worker: bound instance, or the pool unit in flight.
  static Instance* StatsTarget(Worker* w) {
    return w->instance != nullptr ? w->instance : w->working_on;
  }
  /// Splits a local-source stage's tuples into skewed exclusive per-worker
  /// partitions (static pipelines, paper Fig. 2a).
  void AssignStaticShares(Instance* inst);

  double WorkerSpeed(NodeState* node, const SimStageProfile& profile,
                     bool* time_shared);
  int64_t BlockDurationNs(Instance* inst, const SimStageProfile& profile,
                          int64_t tuples, NodeState* node);

  // --- fault rendering (capacity faults only; see SimOptions::fault_plan) ----
  void ScheduleFaults();
  void ApplySimFault(const FaultSpec& spec, bool activate);
  int64_t EffectiveNicRate(int node) const;

  // --- EP scheduling -------------------------------------------------------------
  void ScheduleTick();

  SimQuerySpec spec_;
  SimOptions opt_;
  EventQueue events_;
  Rng rng_{7};

  std::vector<std::unique_ptr<NodeState>> nodes_;
  std::vector<std::unique_ptr<Instance>> instances_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::map<std::pair<int, int>, std::unique_ptr<Channel>> channels_;
  GlobalThroughputBoard board_;

  /// Per-node multiplier from active kStraggleNode windows (1 = healthy).
  std::vector<double> node_speed_factor_;
  /// Per-node kDegradeNic override; <= 0 = the configured hardware rate.
  std::vector<int64_t> node_nic_override_;
  std::vector<FaultEvent> fault_events_;

  int64_t mem_current_ = 0;
  int64_t mem_peak_ = 0;
  int64_t network_bytes_ = 0;
  /// Next 1-based span wire_seq per (exchange, from, to) — the simulator's
  /// analogue of BlockChannel's per-producer sequencing (single-threaded
  /// event loop, so a plain map suffices).
  std::map<std::tuple<int, int, int>, uint64_t> wire_seq_;
  int finished_instances_ = 0;
  bool done_ = false;
  int64_t done_at_ = 0;

  std::vector<SimTracePoint> trace_;
  int next_worker_id_ = 0;
};

namespace {

bool IsStaticPolicy(SimPolicy policy) {
  return policy == SimPolicy::kStatic || policy == SimPolicy::kMaterialized ||
         policy == SimPolicy::kImplicit;
}

}  // namespace

// --- speed / duration ---------------------------------------------------------------

double SimRun::Impl::WorkerSpeed(NodeState* node,
                                 const SimStageProfile& profile,
                                 bool* time_shared) {
  const SimHardware& hw = opt_.hardware;
  int active = std::max(1, node->busy_workers);
  double capacity =
      hw.EffectiveCapacity(std::min(active, hw.logical_cores));
  double speed = capacity / active;
  *time_shared = active > hw.logical_cores;
  if (*time_shared) {
    // OS time-slicing: direct switch cost plus cold-cache refills.
    double overhead = static_cast<double>(hw.context_switch_ns) /
                      static_cast<double>(hw.os_quantum_ns);
    speed *= (1.0 - overhead) / (1.0 + hw.switch_cache_penalty);
  }
  if (opt_.node_capacity_at) {
    speed *= std::max(0.01, opt_.node_capacity_at(Now()));
  }
  if (!node_speed_factor_.empty()) {
    speed *= node_speed_factor_[static_cast<size_t>(node->id)];
  }
  // Aggregate memory-bandwidth throttle.
  if (profile.mem_bytes_per_tuple > 0 && profile.cpu_ns_per_tuple > 0) {
    double demand = node->mem_demand_bytes_per_ns;
    double bw = hw.mem_bandwidth_bytes_per_sec / 1e9;  // bytes per ns
    if (demand > bw) speed *= bw / demand;
  }
  return std::max(speed, 1e-6);
}

int64_t SimRun::Impl::BlockDurationNs(Instance* inst,
                                      const SimStageProfile& profile,
                                      int64_t tuples, NodeState* node) {
  double per_tuple =
      profile.cpu_ns_per_tuple +
      SharedUpdatePenaltyNs(opt_.costs, inst->parallelism(),
                            profile.contention_groups);
  bool time_shared = false;
  double speed = WorkerSpeed(node, profile, &time_shared);
  double duration = static_cast<double>(tuples) * per_tuple / speed;
  if (time_shared) {
    // Context switches incurred while this unit runs.
    node->context_switches +=
        duration / static_cast<double>(opt_.hardware.os_quantum_ns);
  }
  return std::max<int64_t>(1, static_cast<int64_t>(duration));
}

// --- fault rendering -----------------------------------------------------------------

int64_t SimRun::Impl::EffectiveNicRate(int node) const {
  const int64_t configured = opt_.hardware.nic_bytes_per_sec;
  if (node_nic_override_.empty()) return configured;
  const int64_t override_bps = node_nic_override_[static_cast<size_t>(node)];
  if (override_bps <= 0) return configured;
  return std::min(override_bps, configured);
}

void SimRun::Impl::ScheduleFaults() {
  node_speed_factor_.assign(static_cast<size_t>(opt_.num_nodes), 1.0);
  node_nic_override_.assign(static_cast<size_t>(opt_.num_nodes), 0);
  for (const FaultSpec& fault : opt_.fault_plan.faults) {
    if (fault.kind != FaultKind::kStraggleNode &&
        fault.kind != FaultKind::kDegradeNic) {
      continue;  // loss faults and crashes are real-engine-only
    }
    FaultSpec spec = fault;
    events_.Schedule(spec.at_ns, [this, spec] { ApplySimFault(spec, true); });
    if (spec.duration_ns > 0) {
      events_.Schedule(spec.at_ns + spec.duration_ns,
                       [this, spec] { ApplySimFault(spec, false); });
    }
  }
}

void SimRun::Impl::ApplySimFault(const FaultSpec& spec, bool activate) {
  FaultEvent event;
  event.at_ns = activate ? spec.at_ns : spec.at_ns + spec.duration_ns;
  event.activated = activate;
  event.description = spec.ToString();
  fault_events_.push_back(std::move(event));
  const int first = spec.node < 0 ? 0 : spec.node;
  const int last = spec.node < 0 ? opt_.num_nodes - 1 : spec.node;
  for (int n = first; n <= last && n < opt_.num_nodes; ++n) {
    if (spec.kind == FaultKind::kStraggleNode) {
      node_speed_factor_[static_cast<size_t>(n)] =
          activate ? 1.0 / std::max(1.0, spec.slowdown_factor) : 1.0;
    } else {
      node_nic_override_[static_cast<size_t>(n)] =
          activate ? spec.bandwidth_bytes_per_sec : 0;
    }
  }
}

// --- worker main ---------------------------------------------------------------------

bool SimRun::Impl::InstanceHasInput(Instance* inst) {
  if (!inst->started || inst->finished_flag) return false;
  const SimStageSpec& stage = inst->spec->stages[inst->stage];
  if (stage.input_exchange < 0) return inst->source_remaining > 0;
  Channel* ch = GetChannel(stage.input_exchange, inst->node_id);
  return ch != nullptr && !ch->queue.empty();
}

SimRun::Impl::Instance* SimRun::Impl::PickPoolUnit(Worker* w) {
  // Plain MDP picks blindly and its workers block behind saturated exchanges
  // ("a thread blocked by the network cannot switch units", §5.3) — only the
  // last free worker on a node refuses such units, which keeps utilization
  // low without a full deadlock. MDP+ (this paper's strategy) always avoids
  // units whose sender buffer is full.
  const bool must_avoid_full = opt_.policy == SimPolicy::kMorselPlus ||
                               LastFreePoolWorker(w->node);
  std::vector<Instance*> candidates;
  for (auto& inst : instances_) {
    if (inst->node_id == w->node->id && InstanceHasInput(inst.get()) &&
        (!must_avoid_full ||
         static_cast<int>(inst->outbox.size()) <
             opt_.channel_capacity_blocks)) {
      candidates.push_back(inst.get());
    }
  }
  if (candidates.empty()) return nullptr;
  if (opt_.policy == SimPolicy::kMorsel) {
    return candidates[rng_.Uniform(candidates.size())];
  }
  // MDP+: this paper's strategy — feed the bottleneck. The segment with the
  // largest input backlog is throttling the pipeline; draining it first also
  // keeps producers from wedging on full downstream channels.
  Instance* best = nullptr;
  double best_score = -1;
  for (Instance* inst : candidates) {
    const SimStageSpec& stage = inst->spec->stages[inst->stage];
    double score;
    if (stage.input_exchange >= 0) {
      Channel* ch = GetChannel(stage.input_exchange, inst->node_id);
      score = 1.0 + static_cast<double>(ch->queue.size());
    } else {
      score = 0.5;  // local source: never starves, lowest urgency
    }
    if (score > best_score) {
      best = inst;
      best_score = score;
    }
  }
  return best;
}

void SimRun::Impl::AssignStaticShares(Instance* inst) {
  inst->static_share.clear();
  if (!IsStaticPolicy(opt_.policy)) return;
  const SimStageSpec& stage = inst->spec->stages[inst->stage];
  if (stage.input_exchange >= 0 || inst->source_remaining <= 0) return;
  std::vector<Worker*> live;
  for (Worker* w : inst->workers) {
    if (!w->exited) live.push_back(w);
  }
  if (live.empty()) return;
  // Deterministic skewed weights around 1 with the configured CV.
  std::vector<double> weights;
  double total = 0;
  for (size_t i = 0; i < live.size(); ++i) {
    double u = rng_.NextDouble();
    double wgt = std::max(0.05, 1.0 + opt_.partition_skew_cv * (2 * u - 1));
    weights.push_back(wgt);
    total += wgt;
  }
  int64_t assigned = 0;
  for (size_t i = 0; i < live.size(); ++i) {
    int64_t share =
        i + 1 == live.size()
            ? inst->source_remaining - assigned
            : static_cast<int64_t>(inst->source_remaining * weights[i] / total);
    inst->static_share[live[i]] = share;
    assigned += share;
  }
}

void SimRun::Impl::WorkerTryStart(Worker* w) {
  if (w->exited) return;
  if (!w->to_send.empty()) {  // resume a blocked send first
    TrySendAll(w);
    return;
  }
  Instance* inst = w->instance;
  if (w->pool) {
    inst = PickPoolUnit(w);
    HoldUnit(w, inst);
    if (inst == nullptr) {
      if (done_) {
        WorkerExit(w);
        return;
      }
      w->state = Worker::State::kIdle;
      w->node->idle_pool.push_back(w);
      return;
    }
  } else {
    if (w->terminate || inst == nullptr || inst->finished_flag) {
      WorkerExit(w);
      return;
    }
  }

  const SimStageSpec& stage = inst->spec->stages[inst->stage];
  // Block size in tuples (MDP uses the configured unit size).
  int64_t unit_bytes =
      (opt_.policy == SimPolicy::kMorsel ||
       opt_.policy == SimPolicy::kMorselPlus)
          ? opt_.unit_bytes
          : kBlockBytes;
  int64_t block_tuples =
      std::max<int64_t>(1, unit_bytes / std::max(1, stage.profile.in_row_bytes));

  int64_t take = 0;
  if (stage.input_exchange < 0) {
    if (inst->source_remaining <= 0) {
      ParkForStageEnd(w, inst);
      return;
    }
    if (!inst->static_share.empty()) {
      // Exclusive pre-partitioned dataflow: the worker only consumes its own
      // (skewed) share; early finishers idle while the slowest drags on.
      auto it = inst->static_share.find(w);
      int64_t own = it == inst->static_share.end() ? 0 : it->second;
      if (own <= 0) {
        ParkForStageEnd(w, inst);
        return;
      }
      take = std::min(block_tuples, own);
      it->second -= take;
    } else {
      take = std::min(block_tuples, inst->source_remaining);
    }
    inst->source_remaining -= take;
  } else {
    Channel* ch = GetChannel(stage.input_exchange, inst->node_id);
    if (ch == nullptr || (ch->queue.empty() && ch->closed())) {
      ParkForStageEnd(w, inst);
      return;
    }
    if (ch->queue.empty()) {
      if (w->pool) {
        // Pool workers re-pick instead of camping on one channel.
        HoldUnit(w, nullptr);
        w->state = Worker::State::kIdle;
        w->node->idle_pool.push_back(w);
        return;
      }
      BeginWait(w, Worker::State::kWaitInput);
      ch->recv_waiters.push_back(w);
      return;
    }
    SimBlock block = ch->queue.front();
    ch->queue.pop_front();
    if (!ch->materialized) MemSub(block.bytes());
    take = block.tuples;
    inst->visits.Observe(block.from_instance, block.visit_tail);
  }

  // Start processing.
  TouchNodeBusy(w->node);
  ++w->node->busy_workers;
  w->node->mem_demand_bytes_per_ns +=
      stage.profile.cpu_ns_per_tuple > 0
          ? stage.profile.mem_bytes_per_tuple / stage.profile.cpu_ns_per_tuple
          : 0;
  w->state = Worker::State::kBusy;
  ++inst->in_flight;
  int64_t duration = BlockDurationNs(inst, stage.profile, take, w->node);
  if (w->pool) {
    // Unit-pickup decision cost (Table 5's scheduling overhead).
    double pickup = opt_.policy == SimPolicy::kMorsel
                        ? opt_.costs.mdp_pickup_ns
                        : opt_.costs.mdp_plus_pickup_ns;
    duration += static_cast<int64_t>(pickup);
    w->node->sched_overhead_ns += static_cast<int64_t>(pickup);
  }
  if (w->pool) {
    // Unit-hopping across segments costs cache refills; EP workers stay put.
    if (w->last_unit != nullptr && w->last_unit != inst) {
      duration = static_cast<int64_t>(
          duration * (1.0 + opt_.costs.pool_switch_penalty));
    }
    w->last_unit = inst;
  }
  int stage_index = inst->stage;
  events_.ScheduleAfter(duration, [this, w, inst, take, stage_index] {
    OnBlockDone(w, inst, take, stage_index);
  });
}

void SimRun::Impl::OnBlockDone(Worker* w, Instance* inst, int64_t take,
                               int stage_index) {
  TouchNodeBusy(w->node);
  --w->node->busy_workers;
  const SimStageSpec& stage = inst->spec->stages[stage_index];
  w->node->mem_demand_bytes_per_ns -=
      stage.profile.cpu_ns_per_tuple > 0
          ? stage.profile.mem_bytes_per_tuple / stage.profile.cpu_ns_per_tuple
          : 0;
  --inst->in_flight;
  w->state = Worker::State::kIdle;

  inst->stage_input_consumed += take;
  inst->seg_stats.input_tuples.fetch_add(take, std::memory_order_relaxed);
  double progress =
      inst->stage_input_total > 0
          ? static_cast<double>(inst->stage_input_consumed) /
                static_cast<double>(inst->stage_input_total)
          : 1.0;
  double sel = stage.profile.selectivity_at
                   ? stage.profile.selectivity_at(progress)
                   : stage.profile.selectivity;
  double out = static_cast<double>(take) * sel;

  if (stage.emits) {
    inst->seg_stats.output_tuples.fetch_add(
        static_cast<int64_t>(out), std::memory_order_relaxed);
    EmitTuples(inst, w, out, /*flush=*/false);
    if (!w->to_send.empty()) {
      TrySendAll(w);
      return;
    }
  } else {
    // Build stage: fold into shared iterator state. Aggregation states stop
    // growing once all groups exist (max_state_bytes cap).
    int64_t grow = static_cast<int64_t>(out) * stage.profile.in_row_bytes;
    if (stage.profile.max_state_bytes > 0) {
      grow = std::min(grow,
                      std::max<int64_t>(0, stage.profile.max_state_bytes -
                                               inst->state_bytes));
    }
    inst->state_bytes += grow;
    MemAdd(grow);
  }
  // Pool workers drift to other instances after a unit; make sure a drained
  // stage still advances even if nobody re-visits this instance.
  MaybeAdvanceStage(inst);
  ScheduleTryStart(w);
}

void SimRun::Impl::EmitTuples(Instance* inst, Worker* w, double tuples,
                              bool flush) {
  const SimStageSpec& stage = inst->spec->stages[inst->stage];
  inst->out_accum += tuples;
  int64_t out_block =
      std::max<int64_t>(1, kBlockBytes / std::max(1, stage.profile.out_row_bytes));
  const auto& consumers = inst->spec->consumer_nodes;
  int ncons = std::max<size_t>(1, consumers.size());
  while (inst->out_accum >= static_cast<double>(out_block) ||
         (flush && inst->out_accum >= 1.0)) {
    int64_t emit = std::min<int64_t>(
        out_block, static_cast<int64_t>(inst->out_accum));
    inst->out_accum -= static_cast<double>(emit);
    double v = inst->seg_stats.visit_rate.load(std::memory_order_relaxed);
    double delta = inst->seg_stats.selectivity();
    SimBlock block;
    block.tuples = emit;
    block.row_bytes = stage.profile.out_row_bytes;
    block.from_instance =
        inst->spec_index * 1000 + inst->node_id;  // unique producer id
    switch (inst->spec->partitioning) {
      case Partitioning::kToOne: {
        block.visit_tail = v * delta;
        Channel* ch = GetChannel(inst->spec->out_exchange, consumers[0]);
        w->to_send.emplace_back(ch, block);
        break;
      }
      case Partitioning::kBroadcast: {
        block.visit_tail = v * delta;
        for (int c : consumers) {
          w->to_send.emplace_back(GetChannel(inst->spec->out_exchange, c),
                                  block);
        }
        break;
      }
      case Partitioning::kHash: {
        // Round-robin block routing models a uniform hash split.
        block.visit_tail = v * delta / ncons;
        int dest = static_cast<int>(inst->blocks_emitted %
                                    static_cast<int64_t>(ncons));
        ++inst->blocks_emitted;
        w->to_send.emplace_back(
            GetChannel(inst->spec->out_exchange,
                       consumers[static_cast<size_t>(dest)]),
            block);
        break;
      }
    }
  }
}

void SimRun::Impl::TrySendAll(Worker* w) {
  Instance* inst = StatsTarget(w);
  while (!w->to_send.empty()) {
    auto& [ch, block] = w->to_send.front();
    if (ch == nullptr) {
      w->to_send.pop_front();
      continue;
    }
    if (inst == nullptr) {  // no owning instance: direct push (flush paths)
      PushBlock(ch, block);
      w->to_send.pop_front();
      continue;
    }
    if (static_cast<int>(inst->outbox.size()) >=
        opt_.channel_capacity_blocks) {
      // Liveness guard: the last unblocked pool worker on a node may
      // overshoot the sender buffer instead of blocking (all-blocked MDP
      // deadlock). Utilization still collapses — the paper's observation —
      // but progress is guaranteed.
      if (!w->pool || !LastFreePoolWorker(w->node)) {
        // Sender buffer full: genuine backpressure onto the worker.
        BeginWait(w, Worker::State::kWaitOutput);
        inst->outbox_waiters.push_back(w);
        PumpOutbox(inst);
        return;
      }
    }
    MemAdd(block.bytes());
    inst->outbox.emplace_back(ch, block);
    w->to_send.pop_front();
  }
  if (inst != nullptr) PumpOutbox(inst);
  // Plain MDP binds the thread to its unit through the network send (§5.3:
  // "a thread blocked by the network cannot switch to another unit"), so the
  // worker stays blocked until the sender buffer drains. MDP+ and the other
  // policies hand the blocks to the sender and move on.
  if (opt_.policy == SimPolicy::kMorsel && w->pool && inst != nullptr &&
      (!inst->outbox.empty() || inst->outbox_sending) &&
      !LastFreePoolWorker(w->node)) {
    BeginWait(w, Worker::State::kWaitOutput);
    inst->outbox_waiters.push_back(w);
    return;
  }
  if (w->state == Worker::State::kWaitOutput) EndWait(w);
  ScheduleTryStart(w);
}

void SimRun::Impl::ReleaseOutboxWaiter(Instance* inst) {
  WakeIdlePool(inst->node);
  if (inst->outbox_waiters.empty()) return;
  Worker* w = inst->outbox_waiters.back();
  inst->outbox_waiters.pop_back();
  events_.ScheduleAfter(0, [this, w] { TrySendAll(w); });
}

void SimRun::Impl::PumpOutbox(Instance* inst) {
  if (inst->outbox_sending) return;
  if (inst->outbox.empty()) {
    if (inst->finish_when_drained) {
      inst->finish_when_drained = false;
      CompleteFinish(inst);
    }
    return;
  }
  // Per-destination independence (the real sender keeps one pending block
  // per destination): skip past blocked consumers instead of head-of-line
  // blocking the whole outbox.
  auto it = inst->outbox.begin();
  while (it != inst->outbox.end() && it->first->full()) ++it;
  if (it == inst->outbox.end()) {
    // Every destination backed up: retry shortly (backpressure propagates to
    // the workers once the outbox fills too).
    inst->outbox_sending = true;
    events_.ScheduleAfter(500'000, [this, inst] {
      inst->outbox_sending = false;
      PumpOutbox(inst);
    });
    return;
  }
  auto [ch, block] = *it;
  inst->outbox.erase(it);
  NodeState* from = inst->node;
  if (ch->node != from->id && opt_.hardware.nic_bytes_per_sec > 0) {
    int64_t bytes = block.bytes();
    int64_t depart = std::max(Now(), from->egress_free);
    // A degraded NIC on either endpoint bounds the transfer (the slower of
    // the sender's egress and the receiver's ingress budgets).
    int64_t rate = std::min(EffectiveNicRate(from->id),
                            EffectiveNicRate(ch->node));
    int64_t dt = static_cast<int64_t>(
        static_cast<double>(bytes) / static_cast<double>(rate) * 1e9);
    from->egress_free = depart + dt;
    AddToWindows(&from->window_net_ns, depart, depart + dt, 1.0);
    NodeState* to = nodes_[static_cast<size_t>(ch->node)].get();
    int64_t arrive = std::max(from->egress_free, to->ingress_free);
    to->ingress_free = arrive + dt;
    network_bytes_ += bytes;
    EventRecorder* rec = EventRecorder::Global();
    uint64_t seq = 0;
    if (rec->enabled()) {
      // Same 1-based link key the real fabric's records use, so profiles and
      // flow arrows stitch virtual-time runs identically.
      seq = ++wire_seq_[{ch->exchange, from->id, ch->node}];
      EventRecord xfer(EventKind::kNetSend, inst->seg_stats.owner, depart,
                       depart + dt);
      xfer.name = "xfer";
      xfer.tuples = block.tuples;
      xfer.bytes = bytes;
      xfer.link = LinkKey{ch->exchange, from->id, ch->node, seq};
      rec->Record(std::move(xfer));
    }
    inst->outbox_sending = true;
    MemSub(block.bytes());
    Channel* target = ch;
    SimBlock b = block;
    const int from_id = from->id;
    events_.Schedule(depart + dt, [this, inst, target, b, seq, from_id] {
      if (seq != 0) {
        EventRecord recv(EventKind::kNetRecv,
                         RecordOwner{inst->seg_stats.owner.query_id, "",
                                     SimPid(target->node)},
                         Now(), Now());
        recv.name = "recv";
        recv.tuples = b.tuples;
        recv.bytes = b.bytes();
        recv.link = LinkKey{target->exchange, from_id, target->node, seq};
        EventRecorder::Global()->Record(std::move(recv));
      }
      PushBlock(target, b);
      inst->outbox_sending = false;
      ReleaseOutboxWaiter(inst);
      WakeIdlePool(inst->node);
      PumpOutbox(inst);
    });
    return;
  }
  // Local delivery is instant.
  MemSub(block.bytes());
  PushBlock(ch, block);
  ReleaseOutboxWaiter(inst);
  WakeIdlePool(inst->node);
  PumpOutbox(inst);
}

void SimRun::Impl::PushBlock(Channel* ch, SimBlock block) {
  if (ch->auto_drain) return;  // collector consumes instantly
  ch->queue.push_back(block);
  MemAdd(block.bytes());
  // Wake one receiver.
  if (!ch->recv_waiters.empty()) {
    Worker* w = ch->recv_waiters.back();
    ch->recv_waiters.pop_back();
    EndWait(w);
    ScheduleTryStart(w);
  }
  WakeIdlePool(nodes_[static_cast<size_t>(ch->node)].get());
}

void SimRun::Impl::WakeIdlePool(NodeState* node) {
  if (node->idle_pool.empty()) return;
  std::vector<Worker*> idle = std::move(node->idle_pool);
  node->idle_pool.clear();
  for (Worker* w : idle) ScheduleTryStart(w);
}

void SimRun::Impl::ParkForStageEnd(Worker* w, Instance* inst) {
  if (w->pool) {
    HoldUnit(w, nullptr);
    MaybeAdvanceStage(inst);
    // Try other instances immediately.
    w->state = Worker::State::kIdle;
    ScheduleTryStart(w);
    return;
  }
  if (w->terminate) {
    WorkerExit(w);
    MaybeAdvanceStage(inst);
    return;
  }
  inst->parked.emplace(w->id, w);
  w->state = Worker::State::kIdle;
  MaybeAdvanceStage(inst);
}

void SimRun::Impl::MaybeAdvanceStage(Instance* inst) {
  if (inst->finished_flag || inst->finish_when_drained || !inst->started) {
    return;
  }
  // Every live bound worker parked, nothing in flight, input exhausted.
  if (inst->in_flight > 0) return;
  const SimStageSpec& stage = inst->spec->stages[inst->stage];
  if (stage.input_exchange < 0) {
    if (inst->source_remaining > 0) return;
  } else {
    Channel* ch = GetChannel(stage.input_exchange, inst->node_id);
    if (ch == nullptr || !ch->closed() || !ch->queue.empty()) return;
  }
  int live = 0;
  for (Worker* w : inst->workers) {
    if (!w->exited) ++live;
  }
  if (static_cast<int>(inst->parked.size()) < live) return;
  AdvanceStage(inst);
}

void SimRun::Impl::AdvanceStage(Instance* inst) {
  const SimStageSpec& stage = inst->spec->stages[inst->stage];
  // Flush the partial output block through a scratch worker so no live
  // worker's pending (capacity-gated) sends are disturbed. Flush pushes may
  // overshoot channel capacity by one block — harmless.
  if (stage.emits && inst->out_accum >= 1.0) {
    Worker scratch;
    scratch.node = inst->node;
    EmitTuples(inst, &scratch, 0, /*flush=*/true);
    for (auto& [ch, block] : scratch.to_send) {
      if (ch == nullptr) continue;
      MemAdd(block.bytes());
      inst->outbox.emplace_back(ch, block);  // may overshoot capacity by one
    }
    PumpOutbox(inst);
  }

  if (inst->stage + 1 >= static_cast<int>(inst->spec->stages.size())) {
    FinishInstance(inst);
    return;
  }
  ++inst->stage;
  if (inst->first_stage_switch_ns < 0) inst->first_stage_switch_ns = Now();
  EventRecorder* rec = EventRecorder::Global();
  if (rec->enabled()) {
    EventRecord stage(EventKind::kInstant, inst->seg_stats.owner, Now(),
                      Now());
    stage.name = "stage";
    stage.AddArg("stage", inst->stage);
    rec->Record(std::move(stage));
  }
  // New stage, new scalability profile (paper §4.4).
  inst->scal.Invalidate();
  const SimStageSpec& next = inst->spec->stages[inst->stage];
  inst->source_remaining =
      next.input_exchange < 0 ? next.source_tuples_per_node : 0;
  inst->stage_input_total =
      next.input_exchange < 0 ? next.source_tuples_per_node : 0;
  inst->stage_input_consumed = 0;
  AssignStaticShares(inst);
  auto parked = std::move(inst->parked);
  inst->parked.clear();
  for (const auto& [id, w] : parked) ScheduleTryStart(w);
  WakeIdlePool(inst->node);
}

void SimRun::Impl::FinishInstance(Instance* inst) {
  if (!inst->outbox.empty() || inst->outbox_sending) {
    // Let the sender drain the remaining buffered blocks first.
    inst->finish_when_drained = true;
    return;
  }
  CompleteFinish(inst);
}

void SimRun::Impl::CompleteFinish(Instance* inst) {
  inst->finished_flag = true;
  EventRecorder* rec = EventRecorder::Global();
  if (rec->enabled()) {
    EventRecord span(EventKind::kSegment, inst->seg_stats.owner,
                     inst->start_vns >= 0 ? inst->start_vns : 0, Now());
    span.tuples =
        inst->seg_stats.output_tuples.load(std::memory_order_relaxed);
    rec->Record(std::move(span));
  }
  // Release the iterator state.
  MemSub(inst->state_bytes);
  inst->state_bytes = 0;
  // Close this producer on every consumer channel.
  for (int c : inst->spec->consumer_nodes) {
    Channel* ch = GetChannel(inst->spec->out_exchange, c);
    if (ch == nullptr) continue;
    --ch->open_producers;
    if (ch->closed()) {
      // Wake receivers so they can observe end-of-stream.
      std::vector<Worker*> waiters = std::move(ch->recv_waiters);
      ch->recv_waiters.clear();
      for (Worker* w : waiters) {
        EndWait(w);
        ScheduleTryStart(w);
      }
      WakeIdlePool(nodes_[static_cast<size_t>(ch->node)].get());
    }
  }
  // Bound workers exit.
  auto parked = std::move(inst->parked);
  inst->parked.clear();
  for (const auto& [id, w] : parked) WorkerExit(w);
  for (Worker* w : inst->workers) {
    if (!w->exited) w->terminate = true;
  }
  ++finished_instances_;
  if (finished_instances_ == static_cast<int>(instances_.size())) {
    done_ = true;
    done_at_ = Now();
    if (rec->enabled()) {
      EventRecord query(EventKind::kQuery,
                        RecordOwner{opt_.profile_query_id, "", SimPid(0)}, 0,
                        done_at_);
      query.name = StrFormat("sim (%s)", SimPolicyName(opt_.policy));
      query.bytes = network_bytes_;
      rec->Record(std::move(query));
    }
    for (auto& node : nodes_) WakeIdlePool(node.get());
  }
}

void SimRun::Impl::WorkerExit(Worker* w) {
  if (w->exited) return;
  w->exited = true;
  if (w->instance != nullptr) w->instance->parked.erase(w->id);
  if (Instance* sink = StatsTarget(w)) {
    sink->seg_stats.worker_time.Close(WorkerTimeMeter::kLive, *events_.clock());
  }
}

void SimRun::Impl::HoldUnit(Worker* w, Instance* inst) {
  if (w->working_on == inst) return;
  const Clock& clock = *events_.clock();
  if (w->working_on != nullptr) {
    w->working_on->seg_stats.worker_time.Close(WorkerTimeMeter::kLive, clock);
  }
  w->working_on = inst;
  if (inst != nullptr) {
    inst->seg_stats.worker_time.Open(WorkerTimeMeter::kLive, clock);
  }
}

void SimRun::Impl::BeginWait(Worker* w, Worker::State wait) {
  if (w->state == wait) return;
  w->state = wait;
  if (Instance* sink = StatsTarget(w)) {
    sink->seg_stats.worker_time.Open(WaitKind(wait), *events_.clock());
  }
}

void SimRun::Impl::EndWait(Worker* w) {
  if (Instance* sink = StatsTarget(w)) {
    sink->seg_stats.worker_time.Close(WaitKind(w->state), *events_.clock());
  }
  w->state = Worker::State::kIdle;
}

bool SimRun::Impl::LastFreePoolWorker(const NodeState* node) const {
  size_t blocked = 0;
  for (const auto& inst : instances_) {
    if (inst->node == node) blocked += inst->outbox_waiters.size();
  }
  size_t pool = 0;
  for (const auto& w : workers_) {
    if (w->pool && !w->exited && w->node == node) ++pool;
  }
  return blocked + 1 >= pool;
}

bool SimRun::Impl::ExpandInstance(Instance* inst, int /*core_id*/) {
  if (!inst->active()) return false;
  auto worker = std::make_unique<Worker>();
  worker->id = next_worker_id_++;
  worker->instance = inst;
  worker->node = inst->node;
  inst->seg_stats.worker_time.Open(WorkerTimeMeter::kLive, *events_.clock());
  Worker* w = worker.get();
  inst->workers.push_back(w);
  workers_.push_back(std::move(worker));
  ScheduleTryStart(w);
  return true;
}

bool SimRun::Impl::ShrinkInstance(Instance* inst) {
  Worker* victim = nullptr;
  int live = 0;
  for (auto it = inst->workers.rbegin(); it != inst->workers.rend(); ++it) {
    if (!(*it)->exited && !(*it)->terminate) {
      ++live;
      if (victim == nullptr) victim = *it;
    }
  }
  if (victim == nullptr || live <= 1) return false;
  victim->terminate = true;
  // An idle/parked/waiting victim can unwind immediately.
  if (inst->parked.count(victim->id)) {
    WorkerExit(victim);
    MaybeAdvanceStage(inst);
  } else if (victim->state == Worker::State::kWaitInput) {
    const SimStageSpec& stage = inst->spec->stages[inst->stage];
    Channel* ch = GetChannel(stage.input_exchange, inst->node_id);
    if (ch != nullptr) {
      auto& ws = ch->recv_waiters;
      ws.erase(std::remove(ws.begin(), ws.end(), victim), ws.end());
    }
    EndWait(victim);
    WorkerExit(victim);
  }
  return true;
}

// --- EP scheduler ticks ----------------------------------------------------------

void SimRun::Impl::ScheduleTick() {
  events_.ScheduleAfter(opt_.scheduler_period_ns, [this] {
    if (done_) return;
    // Liveness sweep: stage transitions that no worker event will trigger
    // (e.g. an upstream close observed by nobody).
    for (auto& inst : instances_) MaybeAdvanceStage(inst.get());
    if (opt_.policy == SimPolicy::kElastic) {
      for (auto& node : nodes_) {
        int segments = 0;
        for (auto& inst : instances_) {
          if (inst->node_id == node->id && inst->active()) ++segments;
        }
        node->scheduler->Tick();
        node->sched_overhead_ns += static_cast<int64_t>(
            opt_.costs.ep_tick_ns_per_segment * segments);
      }
    }
    // Trace node-0 parallelism (Figs. 10–12).
    SimTracePoint point;
    point.t_ns = Now();
    for (size_t s = 0; s < spec_.segments.size(); ++s) {
      int p = 0;
      for (auto& inst : instances_) {
        if (inst->spec_index == static_cast<int>(s) && inst->node_id == 0 &&
            !inst->finished_flag) {
          p = inst->parallelism();
        }
      }
      point.parallelism.push_back(p);
    }
    trace_.push_back(std::move(point));
    ScheduleTick();
  });
}

// --- Run --------------------------------------------------------------------------

Result<SimMetrics> SimRun::Impl::Run() {
  const SimHardware& hw = opt_.hardware;
  for (int n = 0; n < opt_.num_nodes; ++n) {
    auto node = std::make_unique<NodeState>();
    node->id = n;
    if (opt_.policy == SimPolicy::kElastic) {
      node->scheduler = std::make_unique<DynamicScheduler>(
          n, SchedulerOptions{hw.logical_cores, SimPid(n)}, events_.clock(),
          &board_);
    }
    nodes_.push_back(std::move(node));
  }
  ScheduleFaults();

  // Channels.
  bool unbounded = opt_.policy == SimPolicy::kMaterialized;
  for (const SimSegmentSpec& seg : spec_.segments) {
    for (int c : seg.consumer_nodes) {
      auto key = std::make_pair(seg.out_exchange, c);
      if (channels_.count(key) == 0) {
        auto ch = std::make_unique<Channel>();
        ch->exchange = seg.out_exchange;
        ch->node = c;
        ch->capacity_blocks = unbounded ? 0 : opt_.channel_capacity_blocks;
        ch->materialized = unbounded;
        ch->auto_drain = seg.out_exchange == spec_.result_exchange;
        channels_.emplace(key, std::move(ch));
      }
      channels_[key]->open_producers +=
          static_cast<int>(seg.nodes.size());
    }
  }

  // Instances.
  for (size_t s = 0; s < spec_.segments.size(); ++s) {
    const SimSegmentSpec& seg = spec_.segments[s];
    if (seg.stages.empty()) return Status::InvalidArgument("empty segment");
    for (int n : seg.nodes) {
      auto inst = std::make_unique<Instance>();
      inst->impl = this;
      inst->spec = &seg;
      inst->spec_index = static_cast<int>(s);
      inst->node_id = n;
      inst->node = nodes_[static_cast<size_t>(n)].get();
      inst->seg_stats.owner =
          RecordOwner{opt_.profile_query_id,
                      StrFormat("%s@n%d", seg.name.c_str(), n), SimPid(n)};
      const SimStageSpec& first = seg.stages[0];
      inst->source_remaining =
          first.input_exchange < 0 ? first.source_tuples_per_node : 0;
      inst->stage_input_total = inst->source_remaining;
      instances_.push_back(std::move(inst));
    }
  }

  // Workers.
  const bool pool_policy = opt_.policy == SimPolicy::kMorsel ||
                           opt_.policy == SimPolicy::kMorselPlus;
  auto start_instance = [&](Instance* inst) {
    inst->started = true;
    inst->start_vns = Now();
    if (pool_policy) return;
    int threads = opt_.parallelism;
    if (opt_.policy == SimPolicy::kImplicit) {
      // c·m threads per node split across this node's segments.
      int segs = 0;
      for (auto& other : instances_) {
        if (other->node_id == inst->node_id) ++segs;
      }
      threads = std::max<int>(
          1, static_cast<int>(opt_.concurrency_level * hw.logical_cores) /
                 std::max(1, segs));
    }
    for (int t = 0; t < threads; ++t) {
      ExpandInstance(inst, t);
    }
    AssignStaticShares(inst);
    if (opt_.policy == SimPolicy::kElastic) {
      inst->node->scheduler->AddSegment(inst);
    }
  };

  rng_ = Rng(opt_.seed);

  // Declared at function scope so it outlives the event loop below;
  // scheduled copies hold only a weak_ptr, so the polling closure neither
  // leaks (no shared_ptr cycle) nor dies while the simulation still runs.
  std::shared_ptr<std::function<void()>> try_activate;
  if (opt_.policy == SimPolicy::kMaterialized) {
    // Group-at-a-time: a segment starts once every input exchange it reads
    // has been fully materialized (all producers finished).
    try_activate = std::make_shared<std::function<void()>>();
    std::weak_ptr<std::function<void()>> weak_activate = try_activate;
    *try_activate = [this, start_instance, weak_activate] {
      for (auto& inst : instances_) {
        if (inst->started) continue;
        bool ready = true;
        for (const SimStageSpec& st : inst->spec->stages) {
          if (st.input_exchange < 0) continue;
          Channel* ch = GetChannel(st.input_exchange, inst->node_id);
          if (ch == nullptr || !ch->closed()) ready = false;
        }
        if (ready) start_instance(inst.get());
      }
      if (done_) return;
      if (auto self = weak_activate.lock()) {
        events_.ScheduleAfter(1'000'000, *self);
      }
    };
    (*try_activate)();
  } else {
    for (auto& inst : instances_) start_instance(inst.get());
    if (pool_policy) {
      for (auto& node : nodes_) {
        int threads = std::max<int>(
            1, static_cast<int>(opt_.concurrency_level * hw.logical_cores));
        for (int t = 0; t < threads; ++t) {
          auto worker = std::make_unique<Worker>();
          worker->id = next_worker_id_++;
          worker->node = node.get();
          worker->pool = true;
          Worker* w = worker.get();
          workers_.push_back(std::move(worker));
          ScheduleTryStart(w);
        }
      }
    }
  }
  ScheduleTick();

  // Drive the simulation.
  while (!done_) {
    if (!events_.RunNext()) break;
    if (Now() > opt_.max_sim_ns) {
      std::string detail = "simulation exceeded max_sim_ns (livelock?):";
      for (auto& inst : instances_) {
        if (inst->node_id != 0) continue;
        const SimStageSpec& st = inst->spec->stages[inst->stage];
        Channel* in = st.input_exchange >= 0
                          ? GetChannel(st.input_exchange, 0)
                          : nullptr;
        detail += StrFormat(
            " %s[fin=%d stage=%d src=%lld inq=%zd inflight=%d parked=%zu "
            "outbox=%zu waiters=%zu fwd=%d]",
            inst->spec->name.c_str(), inst->finished_flag ? 1 : 0,
            inst->stage, static_cast<long long>(inst->source_remaining),
            in != nullptr ? static_cast<ssize_t>(in->queue.size()) : -1,
            inst->in_flight, inst->parked.size(), inst->outbox.size(),
            inst->outbox_waiters.size(), inst->finish_when_drained ? 1 : 0);
      }
      int idle = 0, busy = 0, win = 0, wout = 0;
      for (auto& w : workers_) {
        if (w->exited) continue;
        switch (w->state) {
          case Worker::State::kIdle: ++idle; break;
          case Worker::State::kBusy: ++busy; break;
          case Worker::State::kWaitInput: ++win; break;
          case Worker::State::kWaitOutput: ++wout; break;
        }
      }
      detail += StrFormat(" workers idle=%d busy=%d win=%d wout=%d", idle,
                          busy, win, wout);
      return Status::Internal(detail);
    }
  }
  if (!done_) {
    return Status::Internal("simulation stalled: no events but query unfinished");
  }

  // --- metrics -------------------------------------------------------------------
  SimMetrics m;
  m.response_ns = done_at_;
  double busy_integral = 0;
  double switches = 0;
  int64_t sched_ns = 0;
  for (auto& node : nodes_) {
    TouchNodeBusy(node.get());
    busy_integral += node->busy_core_integral_ns;
    switches += node->context_switches;
    sched_ns += node->sched_overhead_ns;
  }
  double denom = static_cast<double>(done_at_) * opt_.num_nodes *
                 hw.logical_cores;
  m.avg_cpu_utilization = denom > 0 ? busy_integral / denom : 0;
  m.context_switches_per_sec =
      done_at_ > 0 ? switches * 1e9 / static_cast<double>(done_at_) /
                         opt_.num_nodes
                   : 0;
  m.scheduling_overhead =
      done_at_ > 0 ? static_cast<double>(sched_ns) /
                         static_cast<double>(done_at_) / opt_.num_nodes
                   : 0;
  m.peak_memory_bytes = mem_peak_;
  m.network_bytes = network_bytes_;
  m.fault_log = FormatFaultEventLog(fault_events_);

  // High-utilization windows: avg CPU across nodes, or any saturated NIC.
  int64_t nwin = done_at_ / opt_.utilization_window_ns + 1;
  int high = 0;
  for (int64_t wdx = 0; wdx < nwin; ++wdx) {
    double cpu = 0;
    double net = 0;
    for (auto& node : nodes_) {
      if (wdx < static_cast<int64_t>(node->window_busy_core_ns.size())) {
        cpu += node->window_busy_core_ns[static_cast<size_t>(wdx)];
      }
      if (wdx < static_cast<int64_t>(node->window_net_ns.size())) {
        net = std::max(net, node->window_net_ns[static_cast<size_t>(wdx)]);
      }
    }
    double cpu_util = cpu / (static_cast<double>(opt_.utilization_window_ns) *
                             opt_.num_nodes * hw.logical_cores);
    double net_util = net / static_cast<double>(opt_.utilization_window_ns);
    if (cpu_util >= opt_.high_utilization_threshold ||
        net_util >= opt_.high_utilization_threshold) {
      ++high;
    }
  }
  m.high_utilization_rate = nwin > 0 ? static_cast<double>(high) / nwin : 0;

  // Modelled cache-miss proxy (documented substitution, DESIGN.md §1): base
  // locality plus time-sharing thrash, minus a small-unit bonus.
  double threads_per_core =
      pool_policy || opt_.policy == SimPolicy::kImplicit
          ? opt_.concurrency_level
          : 1.0;
  double thrash = std::min(1.0, std::max(0.0, (threads_per_core - 1.0) / 4.0));
  double unit_bonus = 0;
  if (pool_policy && opt_.unit_bytes < kBlockBytes && threads_per_core <= 1.0) {
    unit_bonus = 0.20 * (1.0 - static_cast<double>(opt_.unit_bytes) /
                                   kBlockBytes);
  }
  m.cache_miss_ratio = std::clamp(0.41 + 0.34 * thrash - unit_bonus, 0.0, 1.0);

  m.trace = std::move(trace_);
  for (size_t s = 0; s < spec_.segments.size(); ++s) {
    int64_t t = -1;
    for (auto& inst : instances_) {
      if (inst->spec_index == static_cast<int>(s) && inst->node_id == 0) {
        t = inst->first_stage_switch_ns;
      }
    }
    m.stage_switch_ns.push_back(t);
  }
  // Convergence: last virtual time the node-0 core assignment moved by > 1.
  m.convergence_ns = 0;
  for (size_t i = 1; i < m.trace.size(); ++i) {
    int delta = 0;
    for (size_t s = 0; s < m.trace[i].parallelism.size(); ++s) {
      delta += std::abs(m.trace[i].parallelism[s] -
                        m.trace[i - 1].parallelism[s]);
    }
    if (delta > 1) m.convergence_ns = m.trace[i].t_ns;
  }
  return m;
}

SimRun::SimRun(SimQuerySpec spec, SimOptions options)
    : impl_(std::make_unique<Impl>(std::move(spec), std::move(options))) {}

SimRun::~SimRun() = default;

Result<SimMetrics> SimRun::Run() { return impl_->Run(); }

}  // namespace claims
