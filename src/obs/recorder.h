#ifndef CLAIMS_OBS_RECORDER_H_
#define CLAIMS_OBS_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/macros.h"
#include "common/status.h"

namespace claims {

class MetricCounter;
struct QueryProfile;

/// What an EventRecord describes. The span kinds mirror the paper's
/// time-accounting vocabulary: a segment's wall time splits into operator
/// work, starvation (blocked on input), backpressure (blocked on output) and
/// exchange transfer. The last three kinds are point events.
enum class EventKind : uint8_t {
  kQuery = 0,      ///< whole distributed execution (one per query)
  kSegment,        ///< one segment instance's driver lifetime ("S1@n0")
  kWorker,         ///< one elastic worker's attach→detach inside a segment
  kOperator,       ///< one operator's aggregate time inside a segment
  kBlockedInput,   ///< a consumer starved waiting on an exchange
  kBlockedOutput,  ///< a producer stalled on joint-buffer backpressure
  kNetSend,        ///< one wire batch leaving a sender
  kNetRecv,        ///< the matching batch surfacing at its receiver
  kSchedulerWait,  ///< admission-queue wait before execution began
  kInstant,        ///< named point event
  kCounter,        ///< one sample of the series `name` (value in args[0])
  kTick,           ///< one scheduler tick: the decision audit in `tick`
};

const char* EventKindName(EventKind kind);
inline bool IsSpan(EventKind kind) { return kind <= EventKind::kSchedulerWait; }

/// Causal link of one wire batch: {exchange, from_node, to_node, wire_seq}.
/// Exchange ids are namespaced per in-flight query
/// (ExecOptions::exchange_id_base) and wire sequence numbers are assigned
/// per (producer, channel) on successful enqueue — retries keep their seq
/// and duplicates are suppressed at the receiver — so each key matches at
/// most one send to at most one receive, on the real fabric or in the
/// simulator. `wire_seq` is the channel's sequence + 1, so 0 means "no link".
struct LinkKey {
  int64_t exchange_id = -1;
  int from_node = -1;
  int to_node = -1;
  uint64_t wire_seq = 0;
};

/// Who a record belongs to: the owning query (0 = none), the segment
/// instance ("S1@n0") and the node, which is the Chrome trace pid — node ids
/// in the real engine, 1000 + node in the simulator, so one capture holds
/// both substrates. Set once per segment (SegmentStats::owner) and copied
/// into each record.
struct RecordOwner {
  uint64_t query_id = 0;
  std::string segment;
  int node = 0;
};

/// One numeric or static-string annotation. Keys and string values must be
/// string literals: records store the pointers, never a copy.
struct EventArg {
  const char* key = nullptr;
  double num = 0;
  const char* str = nullptr;
};

/// One scheduler tick's decision audit (paper Algorithm 1, made reviewable)
/// and the only record of what the tick decided: for every segment the tick
/// saw, the realized rate it measured, the normalized R_i it derived, the
/// action it took, and the rate it *predicted* the segment would realize by
/// the next tick. The trace's tick/Expand/Shrink instants and
/// parallelism/R counters, the profile's audit and the report's parallelism
/// timelines are all rendered from it.
struct SchedTickAudit {
  int64_t tick = 0;
  int64_t ts_ns = 0;
  int node = 0;
  double lambda_local = -1;   ///< min R_i this node computed this tick
  double lambda_global = -1;  ///< board value the decisions compared against

  struct Segment {
    std::string name;
    uint64_t query_id = 0;
    int parallelism = 0;          ///< after this tick's action
    double rate = -1;             ///< realized tuples/s over the tick window
    double normalized_rate = -1;  ///< R_i = rate / V_i
    /// Rate the previous tick predicted this segment would realize at its
    /// post-action parallelism (scalability-vector estimate); -1 when the
    /// previous tick made no prediction (first sample, segment just placed).
    double predicted_rate = -1;
    double blocked_in = 0;   ///< fraction of worker time starved
    double blocked_out = 0;  ///< fraction of worker time backpressured
    /// "expand+1(free)", "expand+1(pair)", "shrink-1(pair)",
    /// "shrink-1(starved)", "shrink-1(over-producing)", "hold",
    /// "hold(starved)", "hold(out-blocked)" or "hold(pair-aborted)".
    const char* action = "hold";
  };
  std::vector<Segment> segments;
};

/// The one event record: a span ([start_ns, end_ns)), an instant or a
/// counter sample (start_ns == end_ns), stamped with node, thread and a
/// global sequence number, plus the optional identity, operator attribution,
/// volume and causal link fields the profile assembler reads.
struct EventRecord {
  static constexpr int kMaxArgs = 4;

  EventKind kind = EventKind::kInstant;
  std::string name;  ///< operator label, series name, instant name, ...
  uint64_t query_id = 0;
  std::string segment;  ///< owning segment instance; empty if none
  int node = 0;         ///< trace pid
  int64_t tid = 0;      ///< 0 = the recording thread
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// Global emission order, assigned by the recorder: concurrent emitters
  /// keep a stable total order even when timestamps collide (virtual time
  /// makes collisions routine).
  int64_t seq = 0;
  int64_t tuples = 0;
  /// Payload bytes (net spans); operator spans carry their Next() call count.
  int64_t bytes = 0;
  /// Active time summed across the workers that drove an operator span; it
  /// can exceed the wall extent. 0 means "use the wall extent".
  int64_t busy_ns = 0;
  /// Operator-tree position (pre-order at plan build): exclusive time is
  /// inclusive − Σ inclusive(children).
  int op_id = -1;
  int parent_op = -1;
  /// Net spans; a blocked-input span carries the key of the batch whose
  /// arrival ended the wait.
  LinkKey link;
  EventArg args[kMaxArgs];
  int num_args = 0;
  std::shared_ptr<const SchedTickAudit> tick;  ///< kTick only

  EventRecord() = default;
  EventRecord(EventKind k, const RecordOwner& owner, int64_t start,
              int64_t end)
      : kind(k),
        query_id(owner.query_id),
        segment(owner.segment),
        node(owner.node),
        start_ns(start),
        end_ns(end) {}

  int64_t dur_ns() const { return end_ns - start_ns; }
  void AddArg(const char* key, double value, const char* str = nullptr) {
    if (num_args < kMaxArgs) args[num_args++] = EventArg{key, value, str};
  }
};

/// The process's one event recorder (docs/OBSERVABILITY.md): the trace, the
/// query profiles, the flight recorder and the watchdog's open-span view all
/// read this stream.
///
/// * **Gate.** enabled() is an inlined relaxed load; every hook checks it
///   once and builds nothing while it is off.
/// * **Store.** Writers append under one of kShards mutexes picked by thread
///   id. Unbounded by default (a CLAIMS_TRACE capture); ConfigureRing bounds
///   each shard to a ring that overwrites its oldest record — the flight
///   recorder. Overwrites count per query, so a profile assembled from the
///   ring reports how much of it was lost.
/// * **Retention.** Assembling a profile copies the query's records out
///   (SelectQuery) and removes nothing: an unbounded capture still holds
///   every query after its profile is built, and the ring bounds a long run.
/// * **Open spans.** Waits whose end is unknown live in a small registry so
///   a watchdog incident can say what every wedged segment was blocked on.
/// * **Profiles.** Assembled profiles live in a bounded ring keyed by query
///   id, serving GET /profile/<id>.
class EventRecorder {
 public:
  EventRecorder();
  CLAIMS_DISALLOW_COPY_AND_ASSIGN(EventRecorder);

  static EventRecorder* Global();

  void Enable() { enabled_.store(true, std::memory_order_release); }
  void Disable() { enabled_.store(false, std::memory_order_release); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Bounds the store to about `capacity` records split across the shards
  /// (at least one per shard); 0 restores unbounded capture. Clears the
  /// store and the overwrite counts. Does not toggle enabled().
  void ConfigureRing(size_t capacity);
  size_t ring_capacity() const {
    return ring_per_shard_.load(std::memory_order_relaxed) * kShards;
  }
  /// Records overwritten since the ring was configured or cleared.
  int64_t overwritten() const {
    return overwritten_.load(std::memory_order_relaxed);
  }

  /// Stamps `ev`'s sequence number (and the calling thread's id when tid is
  /// 0) and stores it. No-op while disabled.
  void Record(EventRecord ev);
  /// Convenience point event on `node`.
  void Instant(int64_t ts_ns, int node, const char* name,
               std::initializer_list<EventArg> args = {});

  /// Backpressure waits shorter than this are dropped instead of recorded:
  /// the segment's worker-time meter already holds them. (Starvation
  /// waits are kept: the link key that ends one is a causal edge.)
  static constexpr int64_t kMinBlockedSpanNs = 100'000;  // 100 µs

  /// Registers a span whose end is unknown (start_ns set). Returns a token
  /// for EndOpen/AbortOpen; 0 while disabled or when the registry is full.
  uint64_t BeginOpen(EventRecord ev);
  /// Closes an open span into the store. `resolved`, when given, stamps the
  /// link key of the batch that ended a blocked-input wait. Unknown tokens
  /// are ignored, so a double close records nothing twice.
  void EndOpen(uint64_t token, int64_t end_ns,
               const LinkKey* resolved = nullptr);
  /// Drops an open span without recording it.
  void AbortOpen(uint64_t token);
  /// Open-span inventory, oldest first, for watchdog incidents; empty when
  /// nothing is open.
  std::string OpenSpansText() const;
  size_t open_span_count() const;

  /// Every stored record, sorted by (start_ns, seq). Copies the store: for
  /// dumps and tests, never for a per-query path.
  std::vector<EventRecord> Snapshot() const;
  /// Copies `query_id`'s records out of the store (which keeps them) and
  /// sets `*overwritten` to how many of the query's records the ring lost.
  std::vector<EventRecord> SelectQuery(uint64_t query_id,
                                       int64_t* overwritten);
  size_t size() const;
  /// Empties the store and the open-span registry; the profile ring stays.
  void Clear();

  /// The store as Chrome trace_event JSON (ChromeTraceJson).
  std::string ToChromeJson() const;
  Status WriteChromeJson(const std::string& path) const;

  void StoreProfile(std::shared_ptr<const QueryProfile> profile);
  std::shared_ptr<const QueryProfile> GetProfile(uint64_t query_id) const;
  /// Most recent profiles, oldest first.
  std::vector<std::shared_ptr<const QueryProfile>> ListProfiles() const;

 private:
  static constexpr int kShards = 16;
  static constexpr size_t kMaxOpenSpans = 4096;
  static constexpr size_t kProfileRingCap = 64;
  static constexpr size_t kMaxTalliedQueries = 1024;

  struct Shard {
    mutable std::mutex mu;
    std::vector<EventRecord> records;
    size_t ring_pos = 0;  ///< next overwrite slot once the ring is full
    /// Ring overwrites per owning query, consumed by SelectQuery.
    std::unordered_map<uint64_t, int64_t> overwritten_by_query;
  };

  /// Small dense id of the calling thread, stable for its lifetime.
  static int64_t CurrentThreadId();
  void StoreLocked(Shard* shard, EventRecord ev);

  std::atomic<bool> enabled_{false};
  std::atomic<int64_t> next_seq_{0};
  /// Per-shard ring bound, 0 = unbounded. Written under every shard lock,
  /// read under the target shard's lock on the record path.
  std::atomic<size_t> ring_per_shard_{0};
  std::atomic<int64_t> overwritten_{0};
  MetricCounter* overwritten_metric_;
  Shard shards_[kShards];

  mutable std::mutex open_mu_;
  std::unordered_map<uint64_t, EventRecord> open_;
  uint64_t next_token_ = 1;

  mutable std::mutex profiles_mu_;
  std::deque<std::shared_ptr<const QueryProfile>> profiles_;
};

/// The one Chrome trace_event / Perfetto writer, for whole captures and
/// single-query profiles alike. Records are drawn as complete ("X"), instant
/// and counter events; pid is the record's node. Spans of one segment
/// instance share a track group (operators and waits on sub-tracks, so
/// overlapping spans never mis-nest); tick records expand into a "tick"
/// instant, an Expand/Shrink instant per acting segment and
/// parallelism:/R: counters per segment; matched send→recv link keys become
/// flow arrows ("s"/"f").
std::string ChromeTraceJson(const std::vector<EventRecord>& records);

/// Enables the global recorder when CLAIMS_TRACE names an output path and
/// writes the Chrome JSON there on destruction; CLAIMS_TRACE_RING=<records>
/// bounds it to a ring (and enables it). Examples and benches wrap main()
/// in one, so `CLAIMS_TRACE=trace.json ./adaptive_pipeline` captures a
/// trace with no code changes elsewhere.
class TraceEnvScope {
 public:
  TraceEnvScope();
  ~TraceEnvScope();
  CLAIMS_DISALLOW_COPY_AND_ASSIGN(TraceEnvScope);

  bool active() const { return !path_.empty(); }

 private:
  std::string path_;
};

}  // namespace claims

#endif  // CLAIMS_OBS_RECORDER_H_
