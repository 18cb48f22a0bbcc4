#include "fault/injector.h"

#include <algorithm>

#include "common/logging.h"
#include "common/string_util.h"
#include "mem/query_budget.h"
#include "obs/timeseries/timeseries.h"
#include "obs/recorder.h"

namespace claims {
namespace {

/// Marks a fault transition on the metric time axis, so a chaos run's
/// /timeseries (and /dash) shows cause next to effect. No-op when no sampler
/// is published. Called under the injector mutex; the sampler never calls
/// back into the injector, so injector_mu → sampler_mu is a safe order.
void AnnotateTimeline(const FaultSpec& spec, bool begin) {
  MetricSampler* sampler = MetricSampler::Default();
  if (sampler == nullptr) return;
  std::string label = StrFormat("fault.%s", FaultKindName(spec.kind));
  if (spec.node >= 0) label += StrFormat(" node=%d", spec.node);
  sampler->Annotate(std::move(label), begin);
}

}  // namespace

FaultInjector::FaultInjector(FaultPlan plan, Clock* clock)
    : plan_(std::move(plan)),
      clock_(clock != nullptr ? clock : SteadyClock::Default()),
      rng_(plan_.seed) {
  MetricsRegistry* reg = MetricsRegistry::Global();
  drops_metric_ = reg->counter("fault.drops");
  delays_metric_ = reg->counter("fault.delays");
  duplicates_metric_ = reg->counter("fault.duplicates");
  crashes_metric_ = reg->counter("fault.crashes");
  nic_rewrites_metric_ = reg->counter("fault.nic_rewrites");
  mem_pressure_metric_ = reg->counter("fault.mem_pressure");
  activations_metric_ = reg->counter("fault.activations");
  // Out-of-the-box actuator: cap what the bounded ledgers may charge in
  // total. cap < 0 is the restore signal (window closed): uncapped.
  mem_pressure_handler_ = QueryBudget::SetProcessCapBytes;
  windows_.reserve(plan_.faults.size());
  for (const FaultSpec& spec : plan_.faults) windows_.push_back(Window{spec});
  // Transition times sorted so PollOnce applies them in plan order and the
  // event log ordering never depends on poll timing.
  std::stable_sort(windows_.begin(), windows_.end(),
                   [](const Window& a, const Window& b) {
                     return a.spec.at_ns < b.spec.at_ns;
                   });
}

FaultInjector::~FaultInjector() { Disarm(); }

void FaultInjector::SetNicRewriter(
    std::function<void(int, int64_t)> rewriter) {
  std::lock_guard<std::mutex> lock(mu_);
  nic_rewriter_ = std::move(rewriter);
}

void FaultInjector::SetCrashHandler(std::function<void(int)> handler) {
  std::lock_guard<std::mutex> lock(mu_);
  crash_handler_ = std::move(handler);
}

void FaultInjector::SetMemPressureHandler(
    std::function<void(int64_t)> handler) {
  std::lock_guard<std::mutex> lock(mu_);
  mem_pressure_handler_ = std::move(handler);
}

void FaultInjector::ArmManual() {
  bool expected = false;
  if (!armed_.compare_exchange_strong(expected, true)) return;
  std::lock_guard<std::mutex> lock(mu_);
  arm_time_ns_ = clock_->NowNanos();
}

void FaultInjector::Arm() {
  bool was_armed = armed_.load(std::memory_order_acquire);
  ArmManual();
  if (was_armed || poll_thread_.joinable()) return;
  // Windows due at t=0 take effect before Arm returns, not whenever the poll
  // thread first runs: a query started right after Arm is covered.
  PollOnce();
  stop_.store(false, std::memory_order_release);
  poll_thread_ = std::thread([this] { PollLoop(); });
}

void FaultInjector::Disarm() {
  stop_.store(true, std::memory_order_release);
  if (poll_thread_.joinable()) poll_thread_.join();
}

void FaultInjector::PollLoop() {
  while (!stop_.load(std::memory_order_acquire)) {
    PollOnce();
    clock_->SleepNanos(1'000'000);
  }
}

int FaultInjector::PollOnce() {
  if (!armed_.load(std::memory_order_acquire)) return 0;
  std::vector<std::function<void()>> actuations;
  int applied = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    applied = ApplyTransitionsLocked(clock_->NowNanos() - arm_time_ns_,
                                     &actuations);
  }
  // Actuators (NIC rewrite, node kill) reach back into cluster locks; never
  // call them while holding mu_ — the hot path takes mu_ under fabric locks.
  for (auto& fn : actuations) fn();
  return applied;
}

int FaultInjector::ApplyTransitionsLocked(
    int64_t t, std::vector<std::function<void()>>* actuations) {
  EventRecorder* rec = EventRecorder::Global();
  int applied = 0;
  for (Window& w : windows_) {
    const FaultSpec& spec = w.spec;
    if (!w.activated && t >= spec.at_ns) {
      w.activated = true;
      ++applied;
      activations_metric_->Add();
      // Event time is the *planned* activation, not `t`: wall-clock poll
      // jitter must not leak into the byte-compared log.
      events_.push_back(FaultEvent{spec.at_ns, true, spec.ToString()});
      switch (spec.kind) {
        case FaultKind::kDegradeNic:
          nic_rewrites_metric_->Add();
          if (nic_rewriter_) {
            actuations->push_back([fn = nic_rewriter_, node = spec.node,
                                   bps = spec.bandwidth_bytes_per_sec] {
              fn(node, bps);
            });
          }
          w.deactivated = spec.duration_ns <= 0;  // no window to close
          break;
        case FaultKind::kMemPressure:
          mem_pressure_metric_->Add();
          if (mem_pressure_handler_) {
            actuations->push_back([fn = mem_pressure_handler_,
                                   cap = spec.mem_cap_bytes] { fn(cap); });
          }
          w.deactivated = spec.duration_ns <= 0;  // no window to close
          break;
        case FaultKind::kCrashNode:
          crashes_metric_->Add();
          if (spec.node >= 0 && spec.node < 64) {
            dead_nodes_mask_.fetch_or(uint64_t{1} << spec.node,
                                      std::memory_order_release);
          }
          if (crash_handler_) {
            actuations->push_back(
                [fn = crash_handler_, node = spec.node] { fn(node); });
          }
          w.deactivated = true;  // one-shot, permanent
          break;
        default:
          // Send-path windows (drop/delay/dup/disconnect/straggle) act
          // through OnSend while active; nothing to actuate here.
          active_windows_.fetch_add(1, std::memory_order_release);
          break;
      }
      rec->Instant(clock_->NowNanos(), std::max(0, spec.node), "fault-activate",
                   {{"kind", 0, FaultKindName(spec.kind)},
                    {"at_ns", static_cast<double>(spec.at_ns)}});
      AnnotateTimeline(spec, /*begin=*/true);
      if ((spec.kind == FaultKind::kDegradeNic ||
           spec.kind == FaultKind::kMemPressure) &&
          w.deactivated) {
        continue;
      }
    }
    if (w.activated && !w.deactivated && spec.duration_ns > 0 &&
        t >= spec.at_ns + spec.duration_ns) {
      w.deactivated = true;
      ++applied;
      events_.push_back(FaultEvent{spec.at_ns + spec.duration_ns, false,
                                   spec.ToString()});
      if (spec.kind == FaultKind::kDegradeNic) {
        if (nic_rewriter_) {
          actuations->push_back(
              [fn = nic_rewriter_, node = spec.node] { fn(node, -1); });
        }
      } else if (spec.kind == FaultKind::kMemPressure) {
        if (mem_pressure_handler_) {
          actuations->push_back(
              [fn = mem_pressure_handler_] { fn(-1); });  // restore: uncap
        }
      } else {
        active_windows_.fetch_sub(1, std::memory_order_release);
      }
      rec->Instant(
          clock_->NowNanos(), std::max(0, spec.node), "fault-restore",
          {{"kind", 0, FaultKindName(spec.kind)},
           {"at_ns", static_cast<double>(spec.at_ns + spec.duration_ns)}});
      AnnotateTimeline(spec, /*begin=*/false);
    }
  }
  return applied;
}

bool FaultInjector::MatchesLocked(const Window& w, int exchange_id, int from,
                                  int to) const {
  if (!w.activated || w.deactivated) return false;
  const FaultSpec& spec = w.spec;
  if (spec.exchange_id >= 0 && spec.exchange_id != exchange_id) return false;
  if (spec.kind == FaultKind::kStraggleNode) {
    // A straggler slows what *it* sends; its inbound links are healthy.
    return spec.node < 0 || spec.node == from;
  }
  if (spec.node >= 0 && spec.node != from && spec.node != to) return false;
  return true;
}

SendDecision FaultInjector::OnSend(int exchange_id, int from, int to) {
  SendDecision decision;
  if (active_windows_.load(std::memory_order_acquire) == 0) return decision;
  std::lock_guard<std::mutex> lock(mu_);
  for (const Window& w : windows_) {
    if (!MatchesLocked(w, exchange_id, from, to)) continue;
    const FaultSpec& spec = w.spec;
    switch (spec.kind) {
      case FaultKind::kDisconnect:
        // Severed link: every send fails until the window closes.
        drops_metric_->Add();
        decision.fate = SendDecision::Fate::kDrop;
        return decision;
      case FaultKind::kDropBlock:
        if (rng_.Bernoulli(spec.probability)) {
          drops_metric_->Add();
          decision.fate = SendDecision::Fate::kDrop;
          return decision;
        }
        break;
      case FaultKind::kDelayBlock:
        if (rng_.Bernoulli(spec.probability)) {
          delays_metric_->Add();
          decision.delay_ns += spec.delay_ns;
        }
        break;
      case FaultKind::kDuplicateBlock:
        if (decision.fate == SendDecision::Fate::kDeliver &&
            rng_.Bernoulli(spec.probability)) {
          duplicates_metric_->Add();
          decision.fate = SendDecision::Fate::kDuplicate;
        }
        break;
      case FaultKind::kStraggleNode:
        // The real engine renders a compute straggler as stalled egress:
        // 1 ms of extra send latency per slowdown unit. (The simulator
        // models it properly by scaling worker speed; see sim_engine.cc.)
        delays_metric_->Add();
        decision.delay_ns += static_cast<int64_t>(
            (spec.slowdown_factor - 1.0) * 1'000'000.0);
        break;
      default:
        break;
    }
  }
  return decision;
}

bool FaultInjector::NodeDead(int node) const {
  if (node < 0 || node >= 64) return false;
  return (dead_nodes_mask_.load(std::memory_order_acquire) >>
          node) & 1;
}

double FaultInjector::NextDouble() {
  std::lock_guard<std::mutex> lock(mu_);
  return rng_.NextDouble();
}

int64_t FaultInjector::ElapsedNanos() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (arm_time_ns_ < 0) return 0;
  return clock_->NowNanos() - arm_time_ns_;
}

std::vector<FaultEvent> FaultInjector::Events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

std::string FaultInjector::EventLogText() const {
  // Canonical order: a slow poller applies several due transitions in one
  // pass (window order), a fast one applies them as they come due (time
  // order). Sorting by planned time — activations before restores on a tie,
  // then by description — makes the rendered log a pure function of the
  // plan, whatever the poll cadence was.
  std::vector<FaultEvent> events = Events();
  std::stable_sort(events.begin(), events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     if (a.at_ns != b.at_ns) return a.at_ns < b.at_ns;
                     if (a.activated != b.activated) return a.activated;
                     return a.description < b.description;
                   });
  return FormatFaultEventLog(events);
}

std::string FaultInjector::DescribeActiveFaults() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const Window& w : windows_) {
    if (w.activated && !w.deactivated) {
      out += w.spec.ToString();
      out += "\n";
    }
  }
  return out;
}

}  // namespace claims
