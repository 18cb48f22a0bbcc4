#include "cluster/executor.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>

#include "common/string_util.h"
#include "core/pooled_thread.h"
#include "exec/ops/filter.h"
#include "exec/ops/hash_join.h"
#include "exec/ops/profiling_iterator.h"
#include "exec/ops/scan.h"
#include "mem/block_pool.h"
#include "obs/profile/assembler.h"

namespace claims {

namespace {

/// Short operator label for profile attribution.
std::string POpName(const POp& op) {
  switch (op.kind) {
    case POp::Kind::kScan: return "scan(" + op.table_name + ")";
    case POp::Kind::kMerger: return "merger";
    case POp::Kind::kFilter: return "filter";
    case POp::Kind::kProject: return "project";
    case POp::Kind::kHashJoin: return "hash-join";
    case POp::Kind::kHashAgg: return "hash-agg";
    case POp::Kind::kSort: return "sort";
  }
  return "op";
}

/// Process-unique query ids for callers that did not bring one (benches,
/// single-query tools). Starts high so workload-manager handle ids (small
/// integers) never collide.
uint64_t NextAutoQueryId() {
  static std::atomic<uint64_t> next{1u << 30};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

const char* ExecModeName(ExecMode mode) {
  switch (mode) {
    case ExecMode::kElastic: return "EP";
    case ExecMode::kStatic: return "SP";
    case ExecMode::kMaterialized: return "ME";
  }
  return "?";
}

Executor::Executor(Cluster* cluster) : cluster_(cluster) {}

Result<std::unique_ptr<Iterator>> Executor::BuildIterator(
    const POp& op, int node, SegmentStats* stats, const ExecOptions& opts,
    int* op_ids, int parent_op) {
  // Pre-order id: assigned before the children recurse, so parents number
  // lower than their whole subtree.
  const int my_op = op_ids != nullptr ? (*op_ids)++ : -1;
  CLAIMS_ASSIGN_OR_RETURN(
      std::unique_ptr<Iterator> it,
      BuildIteratorInner(op, node, stats, opts, op_ids, my_op));
  if (op_ids == nullptr) return std::move(it);
  ProfilingIterator::Identity ident;
  ident.owner = stats->owner;
  ident.op_name = POpName(op);
  ident.op_id = my_op;
  ident.parent_op = parent_op;
  ident.est_rows = op.est_rows;
  return std::unique_ptr<Iterator>(
      std::make_unique<ProfilingIterator>(std::move(it), std::move(ident)));
}

Result<std::unique_ptr<Iterator>> Executor::BuildIteratorInner(
    const POp& op, int node, SegmentStats* stats, const ExecOptions& opts,
    int* op_ids, int my_op) {
  switch (op.kind) {
    case POp::Kind::kScan: {
      CLAIMS_ASSIGN_OR_RETURN(TablePtr table,
                              cluster_->catalog()->GetTable(op.table_name));
      if (node >= table->num_partitions()) {
        return Status::PlanError(
            StrFormat("scan of '%s' placed on node %d but table has %d "
                      "partitions",
                      op.table_name.c_str(), node, table->num_partitions()));
      }
      ScanIterator::Options so;
      so.predicate = op.predicate;  // fused filter (predicate pushdown)
      // The iterator must reference storage that outlives it: the table's
      // own schema (the plan and catalog outlive the execution).
      return std::unique_ptr<Iterator>(std::make_unique<ScanIterator>(
          &table->partition(node), &table->schema(), so));
    }
    case POp::Kind::kMerger: {
      BlockChannel* channel = cluster_->network()->GetChannel(
          op.exchange_id + opts.exchange_id_base, node);
      if (channel == nullptr) {
        return Status::Internal(
            StrFormat("no channel for exchange %d at node %d", op.exchange_id,
                      node));
      }
      return std::unique_ptr<Iterator>(std::make_unique<MergerIterator>(
          channel, stats, SteadyClock::Default()));
    }
    case POp::Kind::kFilter: {
      CLAIMS_ASSIGN_OR_RETURN(
          std::unique_ptr<Iterator> child,
          BuildIterator(*op.children[0], node, stats, opts, op_ids, my_op));
      return std::unique_ptr<Iterator>(std::make_unique<FilterIterator>(
          std::move(child), &op.children[0]->output_schema, op.predicate));
    }
    case POp::Kind::kProject: {
      CLAIMS_ASSIGN_OR_RETURN(
          std::unique_ptr<Iterator> child,
          BuildIterator(*op.children[0], node, stats, opts, op_ids, my_op));
      return std::unique_ptr<Iterator>(std::make_unique<ProjectIterator>(
          std::move(child), &op.children[0]->output_schema, op.output_schema,
          op.project_exprs));
    }
    case POp::Kind::kHashJoin: {
      CLAIMS_ASSIGN_OR_RETURN(
          std::unique_ptr<Iterator> build,
          BuildIterator(*op.children[0], node, stats, opts, op_ids, my_op));
      CLAIMS_ASSIGN_OR_RETURN(
          std::unique_ptr<Iterator> probe,
          BuildIterator(*op.children[1], node, stats, opts, op_ids, my_op));
      HashJoinIterator::Spec spec;
      spec.build_schema = &op.children[0]->output_schema;
      spec.probe_schema = &op.children[1]->output_schema;
      spec.build_keys = op.build_keys;
      spec.probe_keys = op.probe_keys;
      // Every node's table is sized for the whole build: exact for a
      // broadcast, about n times a partitioned build's share.
      if (op.build_rows >= 0) {
        spec.expected_build_rows = static_cast<size_t>(op.build_rows);
      }
      spec.pool = BlockPool::Global();
      spec.budget = budget_.get();
      return std::unique_ptr<Iterator>(std::make_unique<HashJoinIterator>(
          std::move(build), std::move(probe), spec));
    }
    case POp::Kind::kHashAgg: {
      CLAIMS_ASSIGN_OR_RETURN(
          std::unique_ptr<Iterator> child,
          BuildIterator(*op.children[0], node, stats, opts, op_ids, my_op));
      HashAggIterator::Spec spec;
      spec.input_schema = &op.children[0]->output_schema;
      spec.group_exprs = op.group_exprs;
      spec.group_names = op.group_names;
      spec.aggregates = op.aggregates;
      spec.mode = op.agg_mode;
      spec.scalar_final = op.agg_scalar_final;
      spec.pool = BlockPool::Global();
      spec.budget = budget_.get();
      return std::unique_ptr<Iterator>(
          std::make_unique<HashAggIterator>(std::move(child), spec));
    }
    case POp::Kind::kSort: {
      CLAIMS_ASSIGN_OR_RETURN(
          std::unique_ptr<Iterator> child,
          BuildIterator(*op.children[0], node, stats, opts, op_ids, my_op));
      return std::unique_ptr<Iterator>(std::make_unique<SortIterator>(
          std::move(child), &op.output_schema, op.sort_keys, budget_.get()));
    }
  }
  return Status::Internal("unknown operator kind");
}

void Executor::Cancel() { TriggerCancel(/*deadline=*/false); }

ExecProgress Executor::Progress() const {
  std::lock_guard<std::mutex> lock(live_mu_);
  if (live_segments_.empty()) return latched_progress_;
  ExecProgress p;
  p.executing = true;
  p.live_segments = static_cast<int>(live_segments_.size());
  for (Segment* s : live_segments_) {
    const SegmentStats* st = s->stats();
    p.tuples_consumed += st->input_tuples.load(std::memory_order_relaxed);
    p.tuples_emitted += st->output_tuples.load(std::memory_order_relaxed);
  }
  // budget_ only changes between runs, and live_segments_ is non-empty here,
  // so the ledger is stable for the duration of this sample.
  p.mem_charged_bytes = budget_->charged_bytes();
  p.mem_budget_bytes = budget_->budget_bytes();
  p.mem_spilled_bytes = budget_->spilled_bytes();
  return p;
}

void Executor::TriggerCancel(bool deadline) {
  // Order matters: latch the reason before the request flag so any thread
  // that observes cancel_requested_ also sees why.
  if (deadline) deadline_hit_.store(true, std::memory_order_release);
  cancel_requested_.store(true, std::memory_order_release);
  std::lock_guard<std::mutex> lock(live_mu_);
  for (Segment* s : live_segments_) s->Cancel();
}

void Executor::CancelAfterFailure() {
  std::lock_guard<std::mutex> lock(live_mu_);
  for (Segment* s : live_segments_) {
    if (!s->failed()) s->Cancel();
  }
}

namespace {
/// Runs a cleanup functor on scope exit (early error returns included).
template <typename F>
class ScopeGuard {
 public:
  explicit ScopeGuard(F f) : f_(std::move(f)) {}
  ~ScopeGuard() { f_(); }
  CLAIMS_DISALLOW_COPY_AND_ASSIGN(ScopeGuard);

 private:
  F f_;
};
}  // namespace

Result<ResultSet> Executor::Execute(const PhysicalPlan& plan,
                                    const ExecOptions& opts) {
  Clock* clock = SteadyClock::Default();
  int64_t t0 = clock->NowNanos();
  // Free the previous query's segments before replacing the ledger they
  // refund into.
  segments_.clear();
  stats_own_.clear();
  budget_ = std::make_unique<QueryBudget>(opts.memory_budget_bytes);
  report_ = ExecutionReport{};
  // Every exit path, failures included, reports this run's ledger peak and
  // run time. A successful run timed itself before assembling its report.
  ScopeGuard record_exit([this, clock, t0] {
    report_.peak_memory_bytes = budget_->peak_charged_bytes();
    if (report_.elapsed_ns == 0) report_.elapsed_ns = clock->NowNanos() - t0;
  });
  if (cancel_requested_.load(std::memory_order_acquire)) {
    return Status::Cancelled("query cancelled before execution started");
  }

  // Placement: plans address *logical* nodes (which partition to scan, which
  // channel to consume); this execution maps each logical node onto a live
  // *physical* host. With every node healthy the map is the identity; after
  // a crash, dead nodes' segments re-dispatch deterministically onto
  // survivors (alive[logical % alive.size()]), reading the dead node's
  // partition from shared memory — the in-process analogue of a replica.
  const std::vector<int> alive = cluster_->AliveNodes();
  if (alive.empty()) {
    return Status::Unavailable("no cluster nodes alive");
  }
  auto place = [&alive, this](int logical) {
    return cluster_->NodeAlive(logical)
               ? logical
               : alive[logical % static_cast<int>(alive.size())];
  };

  // Every execution has an id, so the scheduler audit can be sliced per
  // query whether or not the recorder is on. The recorder gate is read once:
  // a run that starts recorded inserts operator wrappers and assembles a
  // profile at the end.
  const uint64_t qid = opts.query_id != 0 ? opts.query_id : NextAutoQueryId();
  EventRecorder* recorder = EventRecorder::Global();
  const bool recording = recorder->enabled();

  // 1. Declare exchanges (ME materializes: unbounded channels). Ids are
  // namespaced per execution so overlapping queries never share a channel.
  const int xbase = opts.exchange_id_base;
  for (const auto& f : plan.fragments) {
    cluster_->network()->CreateExchange(
        f->out_exchange_id + xbase, static_cast<int>(f->nodes.size()),
        f->consumer_nodes,
        opts.mode == ExecMode::kMaterialized ? -1 : 0, budget_.get());
  }
  ScopeGuard destroy_exchanges([&] {
    // All producers/consumers are joined (or were never started) on every
    // path that reaches here, so tearing the channels down is safe.
    for (const auto& f : plan.fragments) {
      cluster_->network()->DestroyExchange(f->out_exchange_id + xbase);
    }
  });

  // 2. Build segment instances.
  // fragment index -> its segments (for ME's group-at-a-time execution).
  std::vector<std::vector<Segment*>> by_fragment(plan.fragments.size());
  for (size_t fi = 0; fi < plan.fragments.size(); ++fi) {
    const Fragment& f = *plan.fragments[fi];
    for (int node : f.nodes) {
      const int host = place(node);
      auto stats = std::make_unique<SegmentStats>();
      const std::string seg_name =
          host == node ? StrFormat("S%d@n%d", f.id, node)
                       : StrFormat("S%d@n%d->n%d", f.id, node, host);
      stats->owner = RecordOwner{qid, seg_name, host};
      // Operator wrapping only exists on recorded runs; otherwise the tree
      // is exactly the bare one.
      int op_ids = 0;
      // The iterator tree is built for the *logical* node: scans read the
      // logical partition, mergers consume the logical channel. Only the
      // hosting (scheduler, NIC) side moves on re-dispatch.
      CLAIMS_ASSIGN_OR_RETURN(
          std::unique_ptr<Iterator> ops,
          BuildIterator(*f.root, node, stats.get(), opts,
                        recording ? &op_ids : nullptr, /*parent_op=*/-1));
      Segment::Config config;
      config.stats = stats.get();
      config.clock = clock;
      config.on_failure = [this] { CancelAfterFailure(); };
      config.max_parallelism = cluster_->options().cores_per_node;
      config.sender.exchange_id = f.out_exchange_id + xbase;
      config.sender.from_node = node;
      config.sender.from_node_physical = host;
      config.sender.partitioning = f.partitioning;
      config.sender.hash_cols = f.hash_cols;
      config.sender.consumer_nodes = f.consumer_nodes;
      config.sender.consumer_placement.reserve(f.consumer_nodes.size());
      for (int consumer : f.consumer_nodes) {
        config.sender.consumer_placement.push_back(place(consumer));
      }
      config.sender.schema = &f.root->output_schema;
      config.sender.network = cluster_->network();
      config.elastic.initial_parallelism = std::max(1, opts.parallelism);
      config.elastic.order_preserving = f.order_preserving;
      config.elastic.buffer_capacity_blocks = opts.buffer_capacity_blocks;
      config.elastic.budget = budget_.get();
      if (opts.mode != ExecMode::kElastic) {
        // SP/ME: parallelism fixed at compile time.
        config.elastic.min_parallelism = config.elastic.initial_parallelism;
        config.max_parallelism = config.elastic.initial_parallelism;
      }
      auto segment = std::make_unique<Segment>(std::move(ops),
                                               std::move(config));
      by_fragment[fi].push_back(segment.get());
      stats_own_.push_back(std::move(stats));
      segments_.push_back(std::move(segment));
    }
  }

  // Register the built segments for cross-thread cancellation, then re-check
  // the flag: a Cancel() that fired before registration saw an empty list,
  // so it is honored here before anything starts.
  {
    std::lock_guard<std::mutex> lock(live_mu_);
    live_segments_.clear();
    for (auto& s : segments_) live_segments_.push_back(s.get());
  }
  ScopeGuard clear_live([&] {
    std::lock_guard<std::mutex> lock(live_mu_);
    // Latch the final totals so post-run Progress() still reports them.
    ExecProgress final_p;
    for (Segment* s : live_segments_) {
      const SegmentStats* st = s->stats();
      final_p.tuples_consumed +=
          st->input_tuples.load(std::memory_order_relaxed);
      final_p.tuples_emitted +=
          st->output_tuples.load(std::memory_order_relaxed);
    }
    final_p.mem_charged_bytes = budget_->peak_charged_bytes();
    final_p.mem_budget_bytes = budget_->budget_bytes();
    final_p.mem_spilled_bytes = budget_->spilled_bytes();
    latched_progress_ = final_p;
    live_segments_.clear();
  });
  if (cancel_requested_.load(std::memory_order_acquire)) {
    return deadline_hit_.load(std::memory_order_acquire)
               ? Status::DeadlineExceeded("deadline expired before start")
               : Status::Cancelled("query cancelled before execution started");
  }

  // Watch for node loss on any host this execution landed on: cancel the
  // run and surface kUnavailable so the workload manager re-dispatches (a
  // fresh attempt re-snapshots AliveNodes and places around the dead node).
  std::vector<bool> used_hosts(cluster_->num_nodes(), false);
  for (auto& s : segments_) used_hosts[s->node_id()] = true;
  const int death_token =
      cluster_->AddNodeDeathListener([this, used_hosts](int node) {
        if (node >= 0 && node < static_cast<int>(used_hosts.size()) &&
            used_hosts[node]) {
          node_loss_.store(true, std::memory_order_release);
          TriggerCancel(/*deadline=*/false);
        }
      });
  ScopeGuard remove_death_listener(
      [&] { cluster_->RemoveNodeDeathListener(death_token); });
  // Close the race with a crash that landed between the placement snapshot
  // and the listener registration.
  for (int n = 0; n < cluster_->num_nodes(); ++n) {
    if (used_hosts[n] && !cluster_->NodeAlive(n)) {
      node_loss_.store(true, std::memory_order_release);
      return Status::Unavailable(
          StrFormat("node %d died before execution started", n));
    }
  }

  // Deadline watchdog: one parked thread per deadline-bearing query.
  // Uniform across EP/SP/ME — it cancels the registered segments directly,
  // so even a blocking ME stage obeys the deadline at its next block.
  PooledThread watchdog;
  std::mutex wd_mu;
  std::condition_variable wd_cv;
  bool wd_done = false;
  ScopeGuard stop_watchdog([&] {
    {
      std::lock_guard<std::mutex> lock(wd_mu);
      wd_done = true;
    }
    wd_cv.notify_all();
    if (watchdog.joinable()) watchdog.join();
  });
  if (opts.deadline_ns > 0) {
    watchdog = PooledThread([&] {
      std::unique_lock<std::mutex> lock(wd_mu);
      while (!wd_done && clock->NowNanos() < opts.deadline_ns) {
        int64_t remaining = opts.deadline_ns - clock->NowNanos();
        wd_cv.wait_for(lock, std::chrono::nanoseconds(
                                 std::min<int64_t>(remaining, 10'000'000)));
      }
      if (!wd_done) TriggerCancel(/*deadline=*/true);
    });
  }

  // 3. Run.
  ResultSet result(plan.result_schema);
  BlockChannel* result_channel =
      cluster_->network()->GetChannel(plan.result_exchange_id + xbase,
                                      /*master node*/ 0);
  if (result_channel == nullptr) {
    return Status::Internal("result exchange missing");
  }

  auto drain_result = [&]() {
    while (true) {
      NetBlock nb;
      ChannelStatus s = result_channel->Receive(&nb, 5'000'000);
      if (s == ChannelStatus::kOk) {
        if (opts.collect_result) result.AppendBlock(std::move(nb.block));
      } else if (s == ChannelStatus::kClosed) {
        break;
      }
    }
  };

  if (opts.mode == ExecMode::kMaterialized) {
    // Fragment-group-at-a-time: every exchange is fully materialized before
    // its consumer group starts (classic distributed staging).
    for (size_t fi = 0; fi < plan.fragments.size(); ++fi) {
      for (Segment* s : by_fragment[fi]) s->Start();
      for (Segment* s : by_fragment[fi]) s->Join();
    }
    drain_result();
  } else {
    if (opts.mode == ExecMode::kElastic) {
      for (auto& segment : segments_) {
        cluster_->scheduler(segment->node_id())->AddSegment(segment.get());
      }
    }
    for (auto& segment : segments_) segment->Start();
    drain_result();
    for (auto& segment : segments_) segment->Join();
    if (opts.mode == ExecMode::kElastic) {
      for (auto& segment : segments_) {
        cluster_->scheduler(segment->node_id())->RemoveSegment(segment.get());
      }
    }
  }

  // A cancelled or deadline-expired run drained and joined cleanly above
  // (producers close their exchanges even when aborting), but its blocks are
  // partial: surface the reason instead of the data.
  if (cancel_requested_.load(std::memory_order_acquire)) {
    if (deadline_hit_.load(std::memory_order_acquire)) {
      return Status::DeadlineExceeded("query deadline exceeded mid-stream");
    }
    if (node_loss_.load(std::memory_order_acquire)) {
      return Status::Unavailable(
          "cluster node died mid-stream; re-dispatch onto survivors");
    }
    return Status::Cancelled("query cancelled mid-stream");
  }

  // Fail the query if any segment's stream broke mid-pump (child operator
  // error / aborted send): the blocks drained above are incomplete and must
  // not be returned as a clean result. Producers close their exchanges even
  // on failure, so downstream segments drained normally above, and the
  // first failure cancelled every other segment (CancelAfterFailure), so
  // upstream producers blocked on the broken consumer joined too.
  // Infrastructure failures (dead endpoint, fault storm outlasting retries)
  // surface as kUnavailable — retryable; logic errors stay kInternal.
  for (auto& segment : segments_) {
    if (segment->failed()) {
      if (segment->failed_unavailable()) {
        return Status::Unavailable(
            StrFormat("segment %s lost its stream to infrastructure failure",
                      segment->name().c_str()));
      }
      // Budget rejection outranks kInternal: the ledger latches rejected()
      // only when a refused charge could not be spilled away, and the
      // segment error is that refusal surfacing.
      if (budget_->rejected()) {
        return Status::ResourceExhausted(StrFormat(
            "query exceeded its memory budget (%lld bytes charged peak of "
            "%lld budget, %lld spilled) after spill degradation",
            static_cast<long long>(budget_->peak_charged_bytes()),
            static_cast<long long>(budget_->budget_bytes()),
            static_cast<long long>(budget_->spilled_bytes())));
      }
      return Status::Internal(
          StrFormat("segment %s failed mid-stream; result discarded",
                    segment->name().c_str()));
    }
  }

  int64_t t1 = clock->NowNanos();

  // EXPLAIN-ANALYZE report: segment rows copied from the very SegmentStats
  // the scheduler sampled, so report totals reconcile with the counters;
  // parallelism timelines come from the schedulers' audit of this query.
  std::vector<SchedTickAudit> audit;
  if (opts.mode == ExecMode::kElastic) {
    for (int n = 0; n < cluster_->num_nodes(); ++n) {
      std::vector<SchedTickAudit> ticks =
          cluster_->scheduler(n)->AuditLogForQuery(qid);
      audit.insert(audit.end(), std::make_move_iterator(ticks.begin()),
                   std::make_move_iterator(ticks.end()));
    }
  }
  report_.mode = ExecModeName(opts.mode);
  report_.elapsed_ns = t1 - t0;
  report_.queue_wait_ns = opts.queue_wait_ns;
  report_.result_tuples = result.num_rows();
  for (size_t i = 0; i < segments_.size(); ++i) {
    const Segment& seg = *segments_[i];
    const SegmentStats& st = *stats_own_[i];
    report_.remote_bytes += st.remote_bytes.load(std::memory_order_relaxed);
    SegmentReport sr;
    sr.name = seg.name();
    sr.node_id = seg.node_id();
    sr.input_tuples = st.input_tuples.load(std::memory_order_relaxed);
    sr.output_tuples = st.output_tuples.load(std::memory_order_relaxed);
    sr.selectivity = st.selectivity();
    sr.visit_rate = st.visit_rate.load(std::memory_order_relaxed);
    // Every worker has exited, so no interval is open.
    const WorkerTimeMeter::Reading time = st.worker_time.Read(*clock);
    sr.worker_ns = time.live_ns;
    sr.blocked_input_ns = time.blocked_input_ns;
    sr.blocked_output_ns = time.blocked_output_ns;
    sr.lifetime_ns = seg.lifetime_ns();
    sr.final_parallelism = seg.final_parallelism();
    sr.peak_parallelism = segments_[i]->elastic()->peak_parallelism();
    sr.parallelism_timeline = ParallelismTimeline(
        audit, seg.name(), seg.start_ns(), seg.launch_width(), t0, t1);
    report_.segments.push_back(std::move(sr));
  }

  // Causal profile: this run's records plus the schedulers' decision audit,
  // stitched into one DAG, stored in the profile ring (GET /profile/<id>),
  // and digested into EXPLAIN ANALYZE.
  if (recording) {
    const std::string label = StrFormat("query (%s)", ExecModeName(opts.mode));
    EventRecord query(EventKind::kQuery, RecordOwner{qid, "", 0}, t0, t1);
    query.name = label;
    query.tuples = result.num_rows();
    query.bytes = report_.remote_bytes;
    recorder->Record(std::move(query));
    if (opts.queue_wait_ns > 0) {
      EventRecord wait(EventKind::kSchedulerWait, RecordOwner{qid, "", 0},
                       t0 - opts.queue_wait_ns, t0);
      wait.name = "admission-queue";
      recorder->Record(std::move(wait));
    }
    AssembleInput in;
    in.query_id = qid;
    in.label = label;
    in.start_ns = t0;
    in.end_ns = t1;
    in.records = recorder->SelectQuery(qid, &in.overwritten_records);
    in.audit = std::move(audit);
    std::shared_ptr<const QueryProfile> profile =
        AssembleQueryProfile(std::move(in));
    recorder->StoreProfile(profile);
    report_.profile_summary = profile->Summary();
    report_.profile_query_id = qid;
  }
  return result;
}

}  // namespace claims
