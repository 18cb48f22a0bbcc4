#include "obs/recorder.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <tuple>

#include "common/string_util.h"
#include "obs/metrics_registry.h"
#include "obs/profile/assembler.h"

namespace claims {

const char* EventKindName(EventKind kind) {
  switch (kind) {
    case EventKind::kQuery: return "query";
    case EventKind::kSegment: return "segment";
    case EventKind::kWorker: return "worker";
    case EventKind::kOperator: return "operator";
    case EventKind::kBlockedInput: return "blocked-input";
    case EventKind::kBlockedOutput: return "blocked-output";
    case EventKind::kNetSend: return "net-send";
    case EventKind::kNetRecv: return "net-recv";
    case EventKind::kSchedulerWait: return "scheduler-wait";
    case EventKind::kInstant: return "instant";
    case EventKind::kCounter: return "counter";
    case EventKind::kTick: return "sched";
  }
  return "?";
}

EventRecorder::EventRecorder()
    : overwritten_metric_(
          MetricsRegistry::Global()->counter("recorder.overwritten")) {}

EventRecorder* EventRecorder::Global() {
  static EventRecorder* recorder = new EventRecorder;
  return recorder;
}

int64_t EventRecorder::CurrentThreadId() {
  static std::atomic<int64_t> next_tid{1};
  thread_local int64_t tid = next_tid.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

void EventRecorder::ConfigureRing(size_t capacity) {
  // Every shard lock, so in-flight writers finish against the old geometry.
  std::array<std::unique_lock<std::mutex>, kShards> locks;
  for (int i = 0; i < kShards; ++i) {
    locks[i] = std::unique_lock<std::mutex>(shards_[i].mu);
  }
  const size_t per_shard =
      capacity == 0 ? 0 : std::max<size_t>(1, capacity / kShards);
  ring_per_shard_.store(per_shard, std::memory_order_relaxed);
  for (Shard& shard : shards_) {
    shard.records.clear();
    shard.records.shrink_to_fit();
    if (per_shard > 0) shard.records.reserve(per_shard);
    shard.ring_pos = 0;
    shard.overwritten_by_query.clear();
  }
  overwritten_.store(0, std::memory_order_relaxed);
  next_seq_.store(0, std::memory_order_relaxed);
}

void EventRecorder::StoreLocked(Shard* shard, EventRecord ev) {
  // The bound is re-read under the shard lock: ConfigureRing changes it only
  // while holding every shard lock.
  const size_t cap = ring_per_shard_.load(std::memory_order_relaxed);
  if (cap > 0 && shard->records.size() >= cap) {
    EventRecord& slot = shard->records[shard->ring_pos];
    if (slot.query_id != 0) {
      // Queries that never assemble a profile (failed runs) would pin their
      // counts forever; past a bound the oldest tallies are not worth keeping.
      if (shard->overwritten_by_query.size() >= kMaxTalliedQueries) {
        shard->overwritten_by_query.clear();
      }
      ++shard->overwritten_by_query[slot.query_id];
    }
    slot = std::move(ev);
    shard->ring_pos = (shard->ring_pos + 1) % cap;
    overwritten_.fetch_add(1, std::memory_order_relaxed);
    overwritten_metric_->Add();
  } else {
    shard->records.push_back(std::move(ev));
  }
}

void EventRecorder::Record(EventRecord ev) {
  if (!enabled()) return;
  const int64_t self = CurrentThreadId();
  if (ev.tid == 0) ev.tid = self;
  ev.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  Shard& shard = shards_[self % kShards];
  std::lock_guard<std::mutex> lock(shard.mu);
  StoreLocked(&shard, std::move(ev));
}

void EventRecorder::Instant(int64_t ts_ns, int node, const char* name,
                            std::initializer_list<EventArg> args) {
  if (!enabled()) return;
  EventRecord ev;
  ev.name = name;
  ev.node = node;
  ev.start_ns = ev.end_ns = ts_ns;
  for (const EventArg& a : args) ev.AddArg(a.key, a.num, a.str);
  Record(std::move(ev));
}

uint64_t EventRecorder::BeginOpen(EventRecord ev) {
  if (!enabled()) return 0;
  if (ev.tid == 0) ev.tid = CurrentThreadId();
  std::lock_guard<std::mutex> lock(open_mu_);
  if (open_.size() >= kMaxOpenSpans) return 0;
  uint64_t token = next_token_++;
  open_.emplace(token, std::move(ev));
  return token;
}

void EventRecorder::EndOpen(uint64_t token, int64_t end_ns,
                            const LinkKey* resolved) {
  if (token == 0) return;
  EventRecord ev;
  {
    std::lock_guard<std::mutex> lock(open_mu_);
    auto it = open_.find(token);
    if (it == open_.end()) return;
    ev = std::move(it->second);
    open_.erase(it);
  }
  ev.end_ns = end_ns;
  if (resolved != nullptr) ev.link = *resolved;
  // Stored even if recording stopped since BeginOpen, so the span does not
  // vanish mid-flight.
  ev.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  Shard& shard = shards_[CurrentThreadId() % kShards];
  std::lock_guard<std::mutex> lock(shard.mu);
  StoreLocked(&shard, std::move(ev));
}

void EventRecorder::AbortOpen(uint64_t token) {
  if (token == 0) return;
  std::lock_guard<std::mutex> lock(open_mu_);
  open_.erase(token);
}

std::string EventRecorder::OpenSpansText() const {
  std::vector<EventRecord> spans;
  {
    std::lock_guard<std::mutex> lock(open_mu_);
    for (const auto& [token, ev] : open_) spans.push_back(ev);
  }
  if (spans.empty()) return std::string();
  std::sort(spans.begin(), spans.end(),
            [](const EventRecord& a, const EventRecord& b) {
              return a.start_ns < b.start_ns;
            });
  std::string out =
      StrFormat("%zu open span(s) at incident time:\n", spans.size());
  for (const EventRecord& s : spans) {
    out += StrFormat("  q%llu %-14s %-10s %s since t=%.3f ms\n",
                     static_cast<unsigned long long>(s.query_id),
                     EventKindName(s.kind), s.segment.c_str(), s.name.c_str(),
                     s.start_ns / 1e6);
  }
  return out;
}

size_t EventRecorder::open_span_count() const {
  std::lock_guard<std::mutex> lock(open_mu_);
  return open_.size();
}

std::vector<EventRecord> EventRecorder::Snapshot() const {
  std::vector<EventRecord> all;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    all.insert(all.end(), shard.records.begin(), shard.records.end());
  }
  std::sort(all.begin(), all.end(),
            [](const EventRecord& a, const EventRecord& b) {
              return a.start_ns != b.start_ns ? a.start_ns < b.start_ns
                                               : a.seq < b.seq;
            });
  return all;
}

std::vector<EventRecord> EventRecorder::SelectQuery(uint64_t query_id,
                                                    int64_t* overwritten) {
  std::vector<EventRecord> out;
  int64_t lost = 0;
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const EventRecord& ev : shard.records) {
      if (ev.query_id == query_id) out.push_back(ev);
    }
    auto it = shard.overwritten_by_query.find(query_id);
    if (it != shard.overwritten_by_query.end()) {
      lost += it->second;
      shard.overwritten_by_query.erase(it);
    }
  }
  if (overwritten != nullptr) *overwritten = lost;
  return out;
}

size_t EventRecorder::size() const {
  size_t n = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    n += shard.records.size();
  }
  return n;
}

void EventRecorder::Clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.records.clear();
    shard.ring_pos = 0;
    shard.overwritten_by_query.clear();
  }
  // Nothing references the cleared records, so the order may restart.
  next_seq_.store(0, std::memory_order_relaxed);
  overwritten_.store(0, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(open_mu_);
  open_.clear();
}

std::string EventRecorder::ToChromeJson() const {
  return ChromeTraceJson(Snapshot());
}

Status EventRecorder::WriteChromeJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::Internal("cannot open trace output file: " + path);
  }
  std::string json = ToChromeJson();
  size_t written = std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  if (written != json.size()) {
    return Status::Internal("short write to trace output file: " + path);
  }
  return Status::OK();
}

void EventRecorder::StoreProfile(std::shared_ptr<const QueryProfile> profile) {
  if (profile == nullptr) return;
  std::lock_guard<std::mutex> lock(profiles_mu_);
  // Re-runs of the same query id (wlm retry) replace the stale profile.
  for (auto it = profiles_.begin(); it != profiles_.end(); ++it) {
    if ((*it)->query_id == profile->query_id) {
      profiles_.erase(it);
      break;
    }
  }
  profiles_.push_back(std::move(profile));
  while (profiles_.size() > kProfileRingCap) profiles_.pop_front();
}

std::shared_ptr<const QueryProfile> EventRecorder::GetProfile(
    uint64_t query_id) const {
  std::lock_guard<std::mutex> lock(profiles_mu_);
  for (const auto& p : profiles_) {
    if (p->query_id == query_id) return p;
  }
  return nullptr;
}

std::vector<std::shared_ptr<const QueryProfile>> EventRecorder::ListProfiles()
    const {
  std::lock_guard<std::mutex> lock(profiles_mu_);
  return {profiles_.begin(), profiles_.end()};
}

// --- Chrome trace_event writer ------------------------------------------------

namespace {

/// Streams one trace event per line: `{"name":...,...,"args":{...}}`.
class ChromeWriter {
 public:
  ChromeWriter() { out_ = "{\"traceEvents\":[\n"; }

  /// Opens an event named `name` (or "name:suffix"); `fields` are extra
  /// top-level members such as a duration. Finish with Arg()s and End().
  void Begin(std::string_view name, std::string_view suffix, const char* cat,
             char phase, int64_t ts_ns, int pid, int64_t tid,
             std::string_view fields = {}) {
    out_ += first_ ? "{\"name\":\"" : ",\n{\"name\":\"";
    first_ = false;
    AppendJsonEscaped(&out_, name);
    if (!suffix.empty()) {
      out_.push_back(':');
      AppendJsonEscaped(&out_, suffix);
    }
    // trace_event timestamps are microseconds; three fractional digits keep
    // the nanosecond resolution both clocks provide.
    out_ += StrFormat("\",\"cat\":\"%s\",\"ph\":\"%c\",\"ts\":%.3f,\"pid\":%d,"
                      "\"tid\":%lld%s",
                      cat, phase, static_cast<double>(ts_ns) / 1000.0, pid,
                      static_cast<long long>(tid),
                      phase == 'i' ? ",\"s\":\"t\"" : "");
    out_ += fields;
    args_open_ = false;
  }
  void Arg(const char* key, double v) {
    OpenArg(key);
    // Integral values print without a fraction; non-finite ones (an unknown
    // λ) as -1, which JSON can carry.
    if (!std::isfinite(v)) v = -1;
    out_ += StrFormat(v == std::floor(v) && std::abs(v) < 9e15 ? "%.0f" : "%.6g",
                      v);
  }
  void Arg(const char* key, std::string_view v) {
    OpenArg(key);
    out_.push_back('"');
    AppendJsonEscaped(&out_, v);
    out_.push_back('"');
  }
  void End() { out_ += args_open_ ? "}}" : "}"; }
  std::string Finish() { return std::move(out_ += "\n]}\n"); }

 private:
  void OpenArg(const char* key) {
    out_ += args_open_ ? ",\"" : ",\"args\":{\"";
    args_open_ = true;
    out_ += key;
    out_ += "\":";
  }

  std::string out_;
  bool first_ = true;
  bool args_open_ = false;
};

/// A scheduler tick drawn as what Figs. 10–12 plot: one "tick" instant with
/// λ, an Expand/Shrink instant per segment the tick acted on (the audit's
/// action is the reason), and parallelism:/R: counter samples per segment.
void AppendTick(const EventRecord& ev, ChromeWriter* w) {
  const SchedTickAudit& a = *ev.tick;
  int cores_used = 0;
  for (const SchedTickAudit::Segment& s : a.segments) {
    cores_used += s.parallelism;
  }
  w->Begin("tick", "", "sched", 'i', a.ts_ns, ev.node, ev.tid);
  w->Arg("lambda", a.lambda_global);
  w->Arg("lambda_local", a.lambda_local);
  w->Arg("segments", static_cast<double>(a.segments.size()));
  w->Arg("cores_used", cores_used);
  w->End();
  for (const SchedTickAudit::Segment& s : a.segments) {
    w->Begin("parallelism", s.name, "counter", 'C', a.ts_ns, ev.node, ev.tid);
    w->Arg("value", s.parallelism);
    w->End();
    w->Begin("R", s.name, "counter", 'C', a.ts_ns, ev.node, ev.tid);
    w->Arg("value", s.normalized_rate);
    w->End();
    const char* decision = std::strncmp(s.action, "expand", 6) == 0   ? "Expand"
                           : std::strncmp(s.action, "shrink", 6) == 0 ? "Shrink"
                                                                      : nullptr;
    if (decision == nullptr) continue;
    w->Begin(decision, "", "sched", 'i', a.ts_ns, ev.node, ev.tid);
    w->Arg("segment", s.name);
    w->Arg("reason", s.action);
    w->Arg("lambda", a.lambda_global);
    w->Arg("R_i", s.normalized_rate);
    w->Arg("blocked_in", s.blocked_in);
    w->Arg("blocked_out", s.blocked_out);
    w->End();
  }
}

}  // namespace

std::string ChromeTraceJson(const std::vector<EventRecord>& records) {
  // Track layout: pid = node. Spans of one segment instance share a block of
  // 1000 tids — the segment span on the base, each operator on its own
  // sub-track (operators overlap across workers, so same-track nesting
  // would lie), workers and waits beside them. Query-level spans sit on tid
  // 0, wire batches on 999, point events on their recording thread.
  std::map<std::pair<uint64_t, std::string>, int64_t> seg_track;
  auto track_of = [&](const EventRecord& ev) -> int64_t {
    switch (ev.kind) {
      case EventKind::kQuery:
      case EventKind::kSchedulerWait: return 0;
      case EventKind::kNetSend:
      case EventKind::kNetRecv: return 999;
      case EventKind::kInstant:
      case EventKind::kCounter:
      case EventKind::kTick: return ev.tid;
      default: break;
    }
    const int64_t base =
        seg_track
            .try_emplace({ev.query_id, ev.segment},
                         static_cast<int64_t>(seg_track.size() + 1) * 1000)
            .first->second;
    switch (ev.kind) {
      case EventKind::kWorker: return base + 500 + ev.tid % 100;
      case EventKind::kOperator: return base + 1 + std::max(ev.op_id, 0);
      case EventKind::kBlockedInput:
      case EventKind::kBlockedOutput: return base + 200;
      default: return base;
    }
  };
  using FlowKey = std::tuple<uint64_t, int64_t, int, int, uint64_t>;
  std::map<FlowKey, std::pair<const EventRecord*, const EventRecord*>> flows;

  ChromeWriter w;
  for (const EventRecord& ev : records) {
    if (ev.kind == EventKind::kTick) {
      if (ev.tick != nullptr) AppendTick(ev, &w);
      continue;
    }
    const bool span = IsSpan(ev.kind);
    std::string_view name = ev.name;
    std::string_view suffix;
    if (ev.kind == EventKind::kCounter) {
      suffix = ev.segment;  // "buffer" of "S1@n0" renders "buffer:S1@n0"
    } else if (name.empty()) {
      name = ev.kind == EventKind::kSegment ? std::string_view(ev.segment)
                                            : EventKindName(ev.kind);
    }
    w.Begin(name, suffix, EventKindName(ev.kind),
            span ? 'X' : ev.kind == EventKind::kCounter ? 'C' : 'i',
            ev.start_ns, ev.node, track_of(ev),
            span ? StrFormat(",\"dur\":%.3f",
                             std::max<int64_t>(ev.dur_ns(), 1) / 1000.0)
                 : std::string());
    if (ev.kind != EventKind::kCounter) {
      if (ev.query_id != 0) w.Arg("query", static_cast<double>(ev.query_id));
      if (!ev.segment.empty() && ev.kind != EventKind::kSegment) {
        w.Arg("segment", ev.segment);
      }
      if (ev.tuples != 0) w.Arg("tuples", ev.tuples);
      if (ev.bytes != 0) {
        w.Arg(ev.kind == EventKind::kOperator ? "calls" : "bytes", ev.bytes);
      }
      if (ev.busy_ns != 0) w.Arg("busy_ns", ev.busy_ns);
      if (ev.link.wire_seq != 0) {
        w.Arg("exchange", ev.link.exchange_id);
        w.Arg("from", ev.link.from_node);
        w.Arg("to", ev.link.to_node);
        w.Arg("wire_seq", ev.link.wire_seq);
      }
    }
    for (int i = 0; i < ev.num_args; ++i) {
      if (ev.args[i].str != nullptr) {
        w.Arg(ev.args[i].key, ev.args[i].str);
      } else {
        w.Arg(ev.args[i].key, ev.args[i].num);
      }
    }
    w.End();
    if ((ev.kind == EventKind::kNetSend || ev.kind == EventKind::kNetRecv) &&
        ev.link.wire_seq != 0) {
      auto& pair = flows[{ev.query_id, ev.link.exchange_id, ev.link.from_node,
                          ev.link.to_node, ev.link.wire_seq}];
      (ev.kind == EventKind::kNetSend ? pair.first : pair.second) = &ev;
    }
  }
  // Flow arrows for matched send→recv pairs, bound to the enclosing slices.
  int64_t flow_id = 0;
  for (const auto& [key, pair] : flows) {
    const auto& [send, recv] = pair;
    if (send == nullptr || recv == nullptr) continue;
    ++flow_id;
    const std::string id =
        StrFormat(",\"id\":%lld", static_cast<long long>(flow_id));
    w.Begin("xfer", "", "flow", 's', std::max(send->start_ns, send->end_ns - 1),
            send->node, track_of(*send), id);
    w.End();
    w.Begin("xfer", "", "flow", 'f', recv->start_ns, recv->node,
            track_of(*recv), id + ",\"bp\":\"e\"");
    w.End();
  }
  return w.Finish();
}

// --- CLAIMS_TRACE -------------------------------------------------------------

TraceEnvScope::TraceEnvScope() {
  EventRecorder* rec = EventRecorder::Global();
  // CLAIMS_TRACE_RING=<records> bounds the store to a flight-recorder ring;
  // composes with CLAIMS_TRACE and with POST /flight-recorder/dump.
  const char* ring = std::getenv("CLAIMS_TRACE_RING");
  if (ring != nullptr && ring[0] != '\0') {
    rec->ConfigureRing(static_cast<size_t>(std::atoll(ring)));
    rec->Enable();
  }
  const char* path = std::getenv("CLAIMS_TRACE");
  if (path == nullptr || path[0] == '\0') return;
  path_ = path;
  rec->Enable();
}

TraceEnvScope::~TraceEnvScope() {
  if (path_.empty()) return;
  EventRecorder* rec = EventRecorder::Global();
  rec->Disable();
  Status s = rec->WriteChromeJson(path_);
  if (s.ok()) {
    std::fprintf(stderr,
                 "[trace] wrote %zu records to %s (open in ui.perfetto.dev)\n",
                 rec->size(), path_.c_str());
  } else {
    std::fprintf(stderr, "[trace] %s\n", s.ToString().c_str());
  }
}

}  // namespace claims
