#include "core/scheduler.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/logging.h"

namespace claims {
namespace {

/// U-set width: segments with R_i ≤ λ·(1+kUnderEpsilon) count as close to
/// the bottleneck (under-performing).
constexpr double kUnderEpsilon = 0.25;
/// O-set threshold: segments with R_i ≥ λ·kOverFactor are over-performing
/// donors.
constexpr double kOverFactor = 1.6;
/// Algorithm 1's penalty factor Δ, as a fraction of λ: a core move must
/// leave both sides' normalized rates ≥ λ·(1+kDeltaFraction).
constexpr double kDeltaFraction = 0.05;
/// θ: scalability-vector entries older than this are stale (§4.4).
constexpr int64_t kFreshnessNs = 2'000'000'000;
/// A segment whose workers spent more than this fraction of their live time
/// since the last tick blocked on input is starved; blocked on output,
/// over-producing. Either way its measured rate is "under-estimated" and not
/// recorded (§4.4).
constexpr double kBlockedFractionThreshold = 0.25;
/// Most cores a starved segment keeps while it has nothing to process.
constexpr int kStarvedParallelism = 1;

}  // namespace

void GlobalThroughputBoard::PublishLocal(int node_id, double lambda_local) {
  std::lock_guard<std::mutex> lock(mu_);
  local_lambda_[node_id] = lambda_local;
}

void GlobalThroughputBoard::ClearNode(int node_id) {
  std::lock_guard<std::mutex> lock(mu_);
  local_lambda_.erase(node_id);
}

double GlobalThroughputBoard::GlobalLambda() const {
  std::lock_guard<std::mutex> lock(mu_);
  double lambda = std::numeric_limits<double>::infinity();
  for (const auto& [node, v] : local_lambda_) lambda = std::min(lambda, v);
  return lambda;
}

DynamicScheduler::DynamicScheduler(int node_id, SchedulerOptions options,
                                   Clock* clock, GlobalThroughputBoard* board)
    : node_id_(node_id),
      options_(options),
      clock_(clock),
      board_(board),
      trace_pid_(options.trace_pid >= 0 ? options.trace_pid : node_id),
      ticks_metric_(MetricsRegistry::Global()->counter("scheduler.ticks")),
      expand_metric_(
          MetricsRegistry::Global()->counter("scheduler.expansions")),
      shrink_metric_(MetricsRegistry::Global()->counter("scheduler.shrinks")),
      move_metric_(
          MetricsRegistry::Global()->counter("scheduler.pair_moves")),
      cores_gauge_(MetricsRegistry::Global()->gauge(
          "scheduler.node" + std::to_string(node_id) + ".cores_in_use")) {}

void DynamicScheduler::AddSegment(SchedulableSegment* segment) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto rec = std::make_unique<SegmentRecord>();
    rec->segment = segment;
    records_.push_back(std::move(rec));
  }
  loop_cv_.notify_one();
}

void DynamicScheduler::RemoveSegment(SchedulableSegment* segment) {
  std::lock_guard<std::mutex> lock(mu_);
  records_.erase(std::remove_if(records_.begin(), records_.end(),
                                [segment](const auto& r) {
                                  return r->segment == segment;
                                }),
                 records_.end());
  if (records_.empty()) board_->ClearNode(node_id_);
}

bool DynamicScheduler::has_segments() const {
  std::lock_guard<std::mutex> lock(mu_);
  return !records_.empty();
}

int DynamicScheduler::cores_in_use() const {
  std::lock_guard<std::mutex> lock(mu_);
  int used = 0;
  for (const auto& r : records_) {
    if (r->segment->active()) used += r->segment->parallelism();
  }
  return used;
}

std::shared_ptr<const SchedTickAudit> DynamicScheduler::LastAudit() const {
  std::lock_guard<std::mutex> lock(mu_);
  return audit_.empty() ? nullptr : audit_.back();
}

std::vector<SchedTickAudit> DynamicScheduler::AuditLogForQuery(
    uint64_t query_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SchedTickAudit> out;
  for (const auto& tick : audit_) {
    SchedTickAudit filtered;
    for (const SchedTickAudit::Segment& s : tick->segments) {
      if (s.query_id == query_id) filtered.segments.push_back(s);
    }
    if (filtered.segments.empty()) continue;
    filtered.tick = tick->tick;
    filtered.ts_ns = tick->ts_ns;
    filtered.node = tick->node;
    filtered.lambda_local = tick->lambda_local;
    filtered.lambda_global = tick->lambda_global;
    out.push_back(std::move(filtered));
  }
  return out;
}

void DynamicScheduler::SetEnabled(bool enabled) {
  bool was = enabled_.exchange(enabled, std::memory_order_acq_rel);
  if (was && !enabled) {
    // Withdraw this node's λ so the surviving nodes' global minimum no
    // longer includes a dead node's last (stale, possibly bottleneck) rate.
    board_->ClearNode(node_id_);
  }
}

void DynamicScheduler::RunLoop(std::chrono::nanoseconds period) {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    loop_cv_.wait(lock, [this] {
      return shutdown_ || (!halted_ && !records_.empty());
    });
    if (shutdown_) return;
    TickLocked();
    loop_cv_.wait_for(lock, period, [this] { return shutdown_; });
  }
}

void DynamicScheduler::SetHalted(bool halted) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    halted_ = halted;
  }
  loop_cv_.notify_one();
}

void DynamicScheduler::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  loop_cv_.notify_one();
}

void DynamicScheduler::Tick() {
  std::lock_guard<std::mutex> lock(mu_);
  TickLocked();
}

void DynamicScheduler::TickLocked() {
  if (!enabled_.load(std::memory_order_acquire)) return;
  const int64_t now = clock_->NowNanos();
  ticks_metric_->Add();
  tick_count_.fetch_add(1, std::memory_order_relaxed);

  // ---- 1. Sample metrics -----------------------------------------------------
  struct Classified {
    SegmentRecord* rec;
    double visit_rate;
    bool starved;
    bool out_blocked;
  };
  std::vector<Classified> live;
  int cores_used = 0;
  for (auto& r : records_) {
    if (!r->segment->active()) continue;
    cores_used += r->segment->parallelism();
    SegmentStats* stats = r->segment->stats();
    const int64_t tuples = stats->input_tuples.load(std::memory_order_relaxed);
    const int64_t new_tuples =
        tuples - std::exchange(r->last_input_tuples, tuples);
    const WorkerTimeMeter::Reading time = stats->worker_time.Read(*clock_);
    const WorkerTimeMeter::Reading prev = std::exchange(r->last_time, time);
    if (!r->has_sample) {
      // First tick only primes the baselines.
      r->has_sample = true;
      continue;
    }
    const double dt = static_cast<double>(time.at_ns - prev.at_ns);
    const double rate = dt > 0 ? new_tuples * 1e9 / dt : 0.0;
    double v = std::max(1e-9, stats->visit_rate.load(std::memory_order_relaxed));
    r->last_rate = rate;
    r->last_normalized = rate / v;
    // Shares of the workers' live time since the last tick spent blocked;
    // in [0, 1] because a worker waits only while live.
    const double lived = static_cast<double>(time.live_ns - prev.live_ns);
    r->blocked_in_fraction =
        lived > 0 ? (time.blocked_input_ns - prev.blocked_input_ns) / lived : 0;
    r->blocked_out_fraction =
        lived > 0 ? (time.blocked_output_ns - prev.blocked_output_ns) / lived
                  : 0;
    bool starved = r->blocked_in_fraction > kBlockedFractionThreshold;
    bool out_blocked = r->blocked_out_fraction > kBlockedFractionThreshold;
    // §4.4: only record the rate when it is not under-estimated.
    if (!starved && !out_blocked && rate > 0) {
      r->segment->scalability()->Update(r->segment->parallelism(), rate, now);
    }
    live.push_back(Classified{r.get(), v, starved, out_blocked});
  }

  // With several queries sharing the node (src/wlm), this gauge is the
  // observable cross-query occupancy the admission budgets are sized
  // against.
  cores_gauge_->Set(cores_used);

  // ---- 2. Publish local λ, read global λ -------------------------------------
  // Segments whose measured rate is under-estimated (§4.4) — starved of
  // input or throttled by a full output/network — must not define the
  // pipeline throughput, or λ collapses to their bogus rates.
  double lambda_local = std::numeric_limits<double>::infinity();
  for (const Classified& c : live) {
    if (!c.starved && !c.out_blocked) {
      lambda_local = std::min(lambda_local, c.rec->last_normalized);
    }
  }
  board_->PublishLocal(node_id_, lambda_local);
  const double lambda = board_->GlobalLambda();
  auto estimate_rate = [&](SegmentRecord* rec, int p) -> double {
    auto est = rec->segment->scalability()->Estimate(p, now, kFreshnessNs);
    if (est.has_value()) return *est;
    // No data yet: assume linear scaling from the live sample.
    int cur = std::max(1, rec->segment->parallelism());
    return rec->last_rate * static_cast<double>(p) / cur;
  };

  // Decision audit, kept on every tick: this tick's measurements and
  // actions, paired with the prediction the previous tick left behind so
  // estimated vs. realized rates show per decision. With the recorder on,
  // the same entry becomes a tick record — the trace's tick/Expand/Shrink
  // instants and parallelism/R counters are rendered from it.
  std::map<SegmentRecord*, const char*> action_of;
  auto record_audit = [&]() {
    auto audit = std::make_shared<SchedTickAudit>();
    audit->tick = tick_count_.load(std::memory_order_relaxed);
    audit->ts_ns = now;
    audit->node = node_id_;
    // Infinity (no trustworthy sample yet) does not survive JSON.
    audit->lambda_local = std::isinf(lambda_local) ? -1.0 : lambda_local;
    audit->lambda_global = std::isinf(lambda) ? -1.0 : lambda;
    audit->segments.reserve(live.size());
    for (const Classified& c : live) {
      SchedTickAudit::Segment s;
      s.name = c.rec->segment->name();
      s.query_id = c.rec->segment->query_id();
      s.parallelism = c.rec->segment->parallelism();
      s.rate = c.rec->last_rate;
      s.normalized_rate = c.rec->last_normalized;
      s.predicted_rate = c.rec->pending_prediction;
      s.blocked_in = c.rec->blocked_in_fraction;
      s.blocked_out = c.rec->blocked_out_fraction;
      auto it = action_of.find(c.rec);
      if (it != action_of.end()) {
        s.action = it->second;
      } else {
        s.action = c.starved ? "hold(starved)"
                             : c.out_blocked ? "hold(out-blocked)" : "hold";
      }
      audit->segments.push_back(std::move(s));
      // Predict next tick's realized rate at the post-action parallelism.
      c.rec->pending_prediction = estimate_rate(
          c.rec, std::max(1, c.rec->segment->parallelism()));
    }
    audit_.push_back(audit);
    while (audit_.size() > kAuditCap) audit_.pop_front();
    EventRecorder* rec = EventRecorder::Global();
    if (rec->enabled()) {
      EventRecord ev;
      ev.kind = EventKind::kTick;
      ev.node = trace_pid_;
      ev.start_ns = ev.end_ns = now;
      ev.tick = std::move(audit);
      rec->Record(std::move(ev));
    }
  };

  if (live.empty() || std::isinf(lambda)) {
    record_audit();
    return;
  }
  const double delta = std::max(lambda * kDeltaFraction, 1e-9);

  // ---- 3. U / O classification (Algorithm 1 lines 1-2) -----------------------
  std::vector<Classified*> under;
  std::vector<Classified*> over;
  for (Classified& c : live) {
    if (c.starved || c.out_blocked) continue;
    if (c.rec->last_normalized <= lambda * (1.0 + kUnderEpsilon)) {
      under.push_back(&c);
    } else if (c.rec->last_normalized >= lambda * kOverFactor &&
               c.rec->segment->parallelism() > 1) {
      over.push_back(&c);
    }
  }

  // ---- 4. Hand out free cores first ------------------------------------------
  int free_cores = options_.num_cores - cores_used;
  if (free_cores > 0 && !under.empty()) {
    for (int round = 0;
         round < std::min(free_cores, kMaxFreeExpansions); ++round) {
      Classified* best = nullptr;
      double best_gain = -1;
      for (Classified* c : under) {
        int p = c->rec->segment->parallelism();
        double gain = estimate_rate(c->rec, p + 1) - c->rec->last_rate;
        if (gain > best_gain) {
          best_gain = gain;
          best = c;
        }
      }
      if (best == nullptr || !best->rec->segment->Expand(cores_used)) break;
      ++cores_used;
      expand_metric_->Add();
      // The segment was in the U set (R_i ≤ λ(1+ε)) and a free core existed.
      action_of[best->rec] = "expand+1(free)";
    }
  } else if (!under.empty() && !over.empty()) {
    // ---- 5. Algorithm 1 pair evaluation (lines 5-11) -------------------------
    Classified* best_u = nullptr;
    Classified* best_o = nullptr;
    double best_score = -1;
    for (Classified* u : under) {
      for (Classified* o : over) {
        if (u == o) continue;
        int pu = u->rec->segment->parallelism();
        int po = o->rec->segment->parallelism();
        if (po <= 1) continue;
        double ru = estimate_rate(u->rec, pu + 1) / u->visit_rate;
        double ro = estimate_rate(o->rec, po - 1) / o->visit_rate;
        if (ru >= lambda + delta && ro >= lambda + delta) {
          double score = std::min(ru, ro);
          if (score > best_score) {
            best_score = score;
            best_u = u;
            best_o = o;
          }
        }
      }
    }
    if (best_u != nullptr && best_o->rec->segment->Shrink()) {
      if (!best_u->rec->segment->Expand(cores_used)) {
        // The receiver refused the core (finished or hit its own max since
        // classification). The donor already gave one worker up — without
        // compensation the core vanishes from every segment until some later
        // tick notices the free-pool surplus. Give it straight back: no
        // shrink, no expansion, no pair move happened.
        action_of[best_u->rec] = "hold(pair-aborted)";
        if (!best_o->rec->segment->Expand(cores_used)) {
          // Donor finished too; the core genuinely returns to the free pool.
          CLAIMS_LOG(Warning)
              << "pair move aborted: receiver "
              << best_u->rec->segment->name() << " and donor "
              << best_o->rec->segment->name()
              << " both refused the core; returning it to the free pool";
        }
      } else {
        move_metric_->Add();
        expand_metric_->Add();
        shrink_metric_->Add();
        // Algorithm-1 pair move: donor from the O set (R_i ≥ λ·over), the
        // receiver from the U set (R_i ≤ λ(1+ε)); both what-if rates
        // cleared λ+Δ.
        action_of[best_u->rec] = "expand+1(pair)";
        action_of[best_o->rec] = "shrink-1(pair)";
      }
    }
  }

  // ---- 6. Reclaim cores from starved / over-producing segments ---------------
  for (Classified& c : live) {
    int p = c.rec->segment->parallelism();
    if (c.starved && p > kStarvedParallelism) {
      if (c.rec->segment->Shrink()) {
        shrink_metric_->Add();
        action_of[c.rec] = "shrink-1(starved)";
      }
    } else if (c.out_blocked && p > 1 &&
               c.rec->blocked_out_fraction > 1.4 * kBlockedFractionThreshold) {
      // Over-producing: the consumer/network cannot absorb the output; keep
      // the producing rate matched by dropping one core (hysteresis margin
      // avoids oscillation around the matched parallelism).
      if (c.rec->segment->Shrink()) {
        shrink_metric_->Add();
        action_of[c.rec] = "shrink-1(over-producing)";
      }
    }
  }
  record_audit();
}

}  // namespace claims
