#include "wlm/query_service.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/clock.h"
#include "common/string_util.h"

namespace claims {
namespace {

// Workers poll at most this often so queued-query cancellation and deadline
// expiry are noticed even when no dispatch/completion event fires. Handles
// deliberately hold no back-pointer to the service (they may outlive it), so
// a reap can only happen on a worker wakeup.
constexpr int64_t kMaxIdleWaitNs = 20'000'000;  // 20 ms

// Priority descending, then submission order. queue_ stays sorted under this
// so dispatch is a linear first-fit scan.
bool QueueBefore(const QueryHandlePtr& a, const QueryHandlePtr& b) {
  if (a->priority() != b->priority()) return a->priority() > b->priority();
  return a->id() < b->id();
}

}  // namespace

const char* QueryStateName(QueryState state) {
  switch (state) {
    case QueryState::kQueued:
      return "QUEUED";
    case QueryState::kRunning:
      return "RUNNING";
    case QueryState::kRetrying:
      return "RETRYING";
    case QueryState::kDone:
      return "DONE";
  }
  return "UNKNOWN";
}

// --- QueryHandle -------------------------------------------------------------

QueryHandle::QueryHandle(uint64_t id, PhysicalPlan plan, SubmitOptions options,
                         int64_t submit_ns)
    : id_(id),
      plan_(std::move(plan)),
      options_(std::move(options)),
      label_(options_.label.empty() ? StrFormat("q%llu",
                                               static_cast<unsigned long long>(
                                                   id))
                                    : options_.label),
      submit_ns_(submit_ns) {}

QueryState QueryHandle::state() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_;
}

void QueryHandle::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this] { return state_ == QueryState::kDone; });
}

bool QueryHandle::WaitFor(int64_t timeout_ns) {
  std::unique_lock<std::mutex> lock(mu_);
  return done_cv_.wait_for(lock, std::chrono::nanoseconds(timeout_ns),
                           [this] { return state_ == QueryState::kDone; });
}

void QueryHandle::Cancel() {
  std::lock_guard<std::mutex> lock(mu_);
  if (state_ == QueryState::kDone) return;
  cancel_requested_ = true;
  // Running: abort the execution directly. Queued: the flag is sticky; a
  // dispatch worker reaps it within its poll interval, and RunQuery re-checks
  // it under mu_ before starting in case admission already happened.
  if (executor_ != nullptr) executor_->Cancel();
}

const Status& QueryHandle::status() const {
  std::lock_guard<std::mutex> lock(mu_);
  return status_;
}

const ResultSet& QueryHandle::result() const {
  std::lock_guard<std::mutex> lock(mu_);
  return result_;
}

const ExecutionReport& QueryHandle::report() const {
  std::lock_guard<std::mutex> lock(mu_);
  return report_;
}

int64_t QueryHandle::queue_wait_ns() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (dispatch_ns_ > 0) return dispatch_ns_ - submit_ns_;
  if (done_ns_ > 0) return done_ns_ - submit_ns_;  // reaped without running
  return 0;                                        // still queued
}

int64_t QueryHandle::latency_ns() const {
  std::lock_guard<std::mutex> lock(mu_);
  return done_ns_ > 0 ? done_ns_ - submit_ns_ : 0;
}

ExecProgress QueryHandle::progress() const {
  Executor* executor = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    executor = executor_.get();
  }
  // executor_ lives from dispatch until the handle dies (see member
  // comment), so the pointer stays valid after mu_ is dropped.
  return executor != nullptr ? executor->Progress() : ExecProgress{};
}

void QueryHandle::Complete(Status status, ResultSet result,
                           ExecutionReport report, int64_t done_ns) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (state_ == QueryState::kDone) return;
    status_ = std::move(status);
    result_ = std::move(result);
    report_ = std::move(report);
    done_ns_ = done_ns;
    state_ = QueryState::kDone;
  }
  done_cv_.notify_all();
}

// --- QueryService ------------------------------------------------------------

QueryService::QueryService(Cluster* cluster, QueryServiceOptions options)
    : cluster_(cluster), options_(options), admission_([&] {
        AdmissionOptions a = options.admission;
        if (a.max_concurrent == 0) {
          a.max_concurrent = cluster->num_nodes() * 2;
        }
        return a;
      }()) {
  MetricsRegistry* reg = MetricsRegistry::Global();
  queue_depth_gauge_ = reg->gauge("wlm.queue_depth");
  submitted_metric_ = reg->counter("wlm.submitted");
  completed_metric_ = reg->counter("wlm.completed");
  failed_metric_ = reg->counter("wlm.failed");
  cancelled_metric_ = reg->counter("wlm.cancelled");
  deadline_metric_ = reg->counter("wlm.deadline_exceeded");
  retries_metric_ = reg->counter("wlm.retries");
  queue_wait_metric_ = reg->histogram("wlm.queue_wait_ns");
  latency_metric_ = reg->histogram("wlm.latency_ns");

  int workers = options_.workers;
  if (workers <= 0) workers = std::max(1, admission_.options().max_concurrent);
  workers_.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerMain(); });
  }
}

QueryService::~QueryService() { Shutdown(/*cancel_pending=*/true); }

QueryHandlePtr QueryService::Submit(PhysicalPlan plan, SubmitOptions options) {
  const int64_t submit_ns = SteadyClock::Default()->NowNanos();
  std::unique_lock<std::mutex> lock(mu_);
  // Backpressure: block the submitter (open-loop driver, client thread)
  // instead of rejecting — the paper's cluster never sheds queries, it
  // delays them.
  backpressure_cv_.wait(lock, [this] {
    return shutdown_ || options_.max_queue_depth == 0 ||
           queue_.size() < options_.max_queue_depth;
  });
  const uint64_t id = next_id_++;
  QueryHandlePtr handle(
      new QueryHandle(id, std::move(plan), std::move(options), submit_ns));
  handle->demand_ = EstimateDemand(handle->plan_, handle->options_.exec);
  submitted_metric_->Add();
  if (shutdown_) {
    lock.unlock();
    CompleteUnrun(handle, Status::Cancelled("query service is shut down"));
    return handle;
  }
  queue_.insert(std::upper_bound(queue_.begin(), queue_.end(), handle,
                                 QueueBefore),
                handle);
  queue_depth_gauge_->Set(static_cast<double>(queue_.size()));
  lock.unlock();
  dispatch_cv_.notify_one();
  return handle;
}

void QueryService::Shutdown(bool cancel_pending) {
  std::vector<QueryHandlePtr> queued;
  std::vector<QueryHandlePtr> running;
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
    if (cancel_pending) {
      cancel_pending_on_shutdown_ = true;
      queued.swap(queue_);
      running = running_;
      queue_depth_gauge_->Set(0);
    }
  }
  dispatch_cv_.notify_all();
  backpressure_cv_.notify_all();
  for (const QueryHandlePtr& h : running) h->Cancel();
  for (const QueryHandlePtr& h : queued) {
    CompleteUnrun(h, Status::Cancelled("query service is shut down"));
  }
  std::vector<std::thread> workers;
  {
    // Exactly one caller joins; Shutdown is idempotent and may race the
    // destructor.
    std::lock_guard<std::mutex> lock(mu_);
    workers.swap(workers_);
  }
  for (std::thread& t : workers) t.join();
}

size_t QueryService::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

std::vector<QueryInfo> QueryService::ListQueries() const {
  const int64_t now = SteadyClock::Default()->NowNanos();
  std::vector<QueryHandlePtr> handles;
  {
    std::lock_guard<std::mutex> lock(mu_);
    handles.reserve(running_.size() + queue_.size() + recent_done_.size());
    handles.insert(handles.end(), running_.begin(), running_.end());
    handles.insert(handles.end(), queue_.begin(), queue_.end());
    // Newest completion first.
    handles.insert(handles.end(), recent_done_.rbegin(), recent_done_.rend());
  }
  std::vector<QueryInfo> out;
  out.reserve(handles.size());
  for (const QueryHandlePtr& h : handles) {
    QueryInfo info;
    info.id = h->id_;
    info.label = h->label_;
    info.priority = h->priority();
    info.submit_ns = h->submit_ns_;
    info.deadline_ns = h->deadline_ns();
    Executor* executor = nullptr;
    {
      std::lock_guard<std::mutex> hl(h->mu_);
      info.state = h->state_;
      if (h->dispatch_ns_ > 0) {
        info.queue_wait_ns = h->dispatch_ns_ - h->submit_ns_;
        info.run_ns =
            (h->done_ns_ > 0 ? h->done_ns_ : now) - h->dispatch_ns_;
      } else {
        // Still queued, or reaped without running.
        info.queue_wait_ns =
            (h->done_ns_ > 0 ? h->done_ns_ : now) - h->submit_ns_;
      }
      if (h->state_ == QueryState::kDone) info.status = h->status_.ToString();
      executor = h->executor_.get();
    }
    if (executor != nullptr) {
      // Safe after dropping handle mu_: executor_ lives until the handle
      // dies, and we hold the shared_ptr.
      ExecProgress p = executor->Progress();
      info.tuples_emitted = p.tuples_emitted;
      info.tuples_consumed = p.tuples_consumed;
      info.live_segments = p.live_segments;
      info.mem_charged_bytes = p.mem_charged_bytes;
      info.mem_budget_bytes = p.mem_budget_bytes;
      info.mem_spilled_bytes = p.mem_spilled_bytes;
    }
    out.push_back(std::move(info));
  }
  return out;
}

void QueryService::WorkerMain() {
  for (;;) {
    QueryHandlePtr next;
    std::vector<std::pair<QueryHandlePtr, Status>> reaped;
    {
      std::unique_lock<std::mutex> lock(mu_);
      for (;;) {
        const int64_t now = SteadyClock::Default()->NowNanos();
        next = PopDispatchableLocked(now, &reaped);
        if (next != nullptr || !reaped.empty()) break;
        if (shutdown_ && queue_.empty()) return;
        // Bounded wait so queued-side cancellation/deadlines are reaped
        // promptly; shorter when a queued deadline lands sooner.
        int64_t wait_ns = kMaxIdleWaitNs;
        for (const QueryHandlePtr& h : queue_) {
          if (h->options_.timeout_ns <= 0) continue;
          const int64_t remaining =
              h->submit_ns_ + h->options_.timeout_ns - now;
          wait_ns = std::max<int64_t>(0, std::min(wait_ns, remaining));
        }
        dispatch_cv_.wait_for(lock, std::chrono::nanoseconds(wait_ns));
      }
      queue_depth_gauge_->Set(static_cast<double>(queue_.size()));
    }
    backpressure_cv_.notify_all();
    for (auto& [handle, status] : reaped) {
      CompleteUnrun(handle, std::move(status));
    }
    if (next != nullptr) RunQuery(next);
  }
}

QueryHandlePtr QueryService::PopDispatchableLocked(
    int64_t now_ns, std::vector<std::pair<QueryHandlePtr, Status>>* reaped) {
  // Reap queued entries that will never run: cancelled, expired, or doomed
  // by a cancelling shutdown. Lock order service mu_ → handle mu_ (the
  // cancel-flag peek) matches QueryHandle::Cancel, which takes only handle
  // mu_.
  for (auto it = queue_.begin(); it != queue_.end();) {
    QueryHandle& h = **it;
    bool cancelled;
    {
      std::lock_guard<std::mutex> hl(h.mu_);
      cancelled = h.cancel_requested_;
    }
    const bool expired = h.options_.timeout_ns > 0 &&
                         now_ns - h.submit_ns_ >= h.options_.timeout_ns;
    if (cancelled || cancel_pending_on_shutdown_) {
      reaped->emplace_back(*it, Status::Cancelled("cancelled while queued"));
      it = queue_.erase(it);
    } else if (expired) {
      reaped->emplace_back(
          *it, Status::DeadlineExceeded("deadline expired while queued"));
      it = queue_.erase(it);
    } else {
      ++it;
    }
  }
  // First fit in (priority, submission) order — see the class comment for
  // the skip-over rationale.
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if (!admission_.TryAdmit((*it)->demand_, &(*it)->reservation_)) continue;
    QueryHandlePtr handle = *it;
    queue_.erase(it);
    running_.push_back(handle);
    return handle;
  }
  return nullptr;
}

void QueryService::RunQuery(const QueryHandlePtr& handle) {
  Clock* clock = SteadyClock::Default();
  const int64_t dispatch_ns = clock->NowNanos();
  const int64_t queue_wait_ns = dispatch_ns - handle->submit_ns_;
  {
    std::lock_guard<std::mutex> lock(handle->mu_);
    handle->dispatch_ns_ = dispatch_ns;
  }

  const int max_attempts =
      std::clamp(handle->options_.retry.max_attempts, 1, 8);
  int64_t backoff_ns =
      std::max<int64_t>(1, handle->options_.retry.initial_backoff_ns);
  const int64_t deadline_ns =
      handle->options_.timeout_ns > 0
          ? handle->submit_ns_ + handle->options_.timeout_ns
          : 0;

  Status status;
  ResultSet result;
  ExecutionReport report;
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    // Fresh Executor per attempt (an executor is one-shot: cancellation and
    // node-loss latches are sticky), installed under handle mu_ so Cancel()
    // always reaches the attempt in flight.
    Executor* executor = nullptr;
    {
      std::lock_guard<std::mutex> lock(handle->mu_);
      if (!handle->cancel_requested_) {
        handle->executor_ = std::make_unique<Executor>(cluster_);
        handle->state_ = QueryState::kRunning;
        executor = handle->executor_.get();
      }
    }
    if (executor == nullptr) {
      // Cancelled between admission and dispatch (or during backoff).
      status = Status::Cancelled("cancelled before dispatch");
      break;
    }
    ExecOptions exec = handle->options_.exec;
    exec.queue_wait_ns = queue_wait_ns;
    // With a cluster memory budget configured, the admitted reservation
    // becomes the query's *binding* ledger: the executor charges actual
    // arena/buffer bytes against it and degrades (spill → reject) instead
    // of silently overshooting the estimate. An explicit per-query budget in
    // the submit options wins; without an admission memory budget nothing
    // changes.
    if (exec.memory_budget_bytes == 0 &&
        admission_.options().memory_budget_bytes > 0) {
      exec.memory_budget_bytes = handle->reservation_.memory_bytes;
    }
    // Record under the handle's id so GET /profile/<id> lines up with
    // /queries; a retry re-stores under the same id (latest attempt wins).
    exec.query_id = handle->id_;
    // Disjoint exchange-id namespace per (query, attempt): a retried query
    // restarts idempotently in fresh channels — nothing a dead attempt left
    // in the fabric can leak into the re-dispatch. Ids recycle after 1M
    // in-flight-distinct attempts, far beyond any overlap window.
    exec.exchange_id_base = static_cast<int>(
        1 + ((handle->id_ * 8 + static_cast<uint64_t>(attempt)) % 1'000'000) *
                1000);
    exec.deadline_ns = deadline_ns;
    Result<ResultSet> r = executor->Execute(handle->plan_, exec);
    if (r.ok()) {
      status = Status::OK();
      result = std::move(r).value();
      // LIMIT applies at the collector (same as Database::Query).
      if (handle->plan_.limit >= 0) result.TruncateRows(handle->plan_.limit);
    } else {
      status = r.status();
    }
    report = executor->report();
    // Only transient infrastructure failure re-dispatches.
    if (status.code() != StatusCode::kUnavailable ||
        attempt + 1 >= max_attempts) {
      break;
    }
    retries_metric_->Add();
    {
      std::lock_guard<std::mutex> lock(handle->mu_);
      if (handle->cancel_requested_) break;
      handle->state_ = QueryState::kRetrying;
    }
    // Backoff in cancellation-responsive chunks; give up re-dispatching if
    // the query's own deadline lands first.
    int64_t remaining = backoff_ns;
    bool aborted = false;
    while (remaining > 0) {
      if (deadline_ns > 0 && clock->NowNanos() >= deadline_ns) {
        status = Status::DeadlineExceeded("deadline expired while retrying");
        aborted = true;
        break;
      }
      {
        std::lock_guard<std::mutex> lock(handle->mu_);
        if (handle->cancel_requested_) {
          status = Status::Cancelled("cancelled while retrying");
          aborted = true;
          break;
        }
      }
      const int64_t chunk = std::min<int64_t>(remaining, 5'000'000);
      clock->SleepNanos(chunk);
      remaining -= chunk;
    }
    if (aborted) break;
    backoff_ns = static_cast<int64_t>(
        backoff_ns * std::max(1.0, handle->options_.retry.backoff_multiplier));
  }

  const int64_t done_ns = clock->NowNanos();
  // Release BEFORE waking waiters: a handle that reports done must imply
  // its admission reservation is already back in the pool, so a caller that
  // Wait()s on the last handle observes running() == 0. Releasing through
  // the receipt returns exactly what admission booked; the actual peak (the
  // query's own ledger peak) feeds the wlm.mem_estimate_error histogram.
  int64_t actual_peak_bytes = -1;
  {
    std::lock_guard<std::mutex> lock(handle->mu_);
    if (handle->executor_ != nullptr) {
      actual_peak_bytes = handle->executor_->report().peak_memory_bytes;
    }
  }
  admission_.ReleaseWithActual(&handle->reservation_, actual_peak_bytes);
  handle->Complete(std::move(status), std::move(result), std::move(report),
                   done_ns);
  RecordCompletion(handle);
  {
    std::lock_guard<std::mutex> lock(mu_);
    running_.erase(std::remove(running_.begin(), running_.end(), handle),
                   running_.end());
  }
  // Budget freed: every waiting worker may now find a dispatchable query.
  dispatch_cv_.notify_all();
}

void QueryService::CompleteUnrun(const QueryHandlePtr& handle, Status status) {
  handle->Complete(std::move(status), ResultSet(), ExecutionReport(),
                   SteadyClock::Default()->NowNanos());
  RecordCompletion(handle);
}

void QueryService::RecordCompletion(const QueryHandlePtr& handle) {
  switch (handle->status().code()) {
    case StatusCode::kOk:
      completed_metric_->Add();
      break;
    case StatusCode::kCancelled:
      cancelled_metric_->Add();
      break;
    case StatusCode::kDeadlineExceeded:
      deadline_metric_->Add();
      break;
    default:
      failed_metric_->Add();
      break;
  }
  queue_wait_metric_->Record(handle->queue_wait_ns());
  latency_metric_->Record(handle->latency_ns());
  std::lock_guard<std::mutex> lock(mu_);
  recent_done_.push_back(handle);
  if (recent_done_.size() > kRecentDoneCap) {
    recent_done_.erase(recent_done_.begin());
  }
}

}  // namespace claims
