#ifndef CLAIMS_OBS_PROFILE_ASSEMBLER_H_
#define CLAIMS_OBS_PROFILE_ASSEMBLER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/recorder.h"

namespace claims {

/// Per-operator time attribution inside one segment instance. Inclusive time
/// is the operator's accumulated active time across all elastic workers;
/// exclusive subtracts the children's inclusive time, so per segment the
/// exclusive times telescope back to the root operator's inclusive time.
struct ProfOperatorStat {
  std::string name;
  std::string segment;
  int node = 0;
  int op_id = -1;
  int parent_op = -1;
  int64_t inclusive_ns = 0;
  int64_t exclusive_ns = 0;
  int64_t calls = 0;
  int64_t rows = 0;
  /// The planner's estimate of the operator's output rows over all its node
  /// instances (the span's "est_rows" arg); -1 when the planner computed
  /// none.
  int64_t est_rows = -1;
};

/// Cardinality q-error: max(est/act, act/est), each side floored at one
/// row, so an exact estimate reads 1.
double QError(int64_t est_rows, int64_t actual_rows);

/// One step of the critical path: a half-open wall-clock interval attributed
/// to a segment's compute, an exchange transfer, an unresolved input wait,
/// startup, or the final result gather. Steps partition the query's wall
/// time walking backward from completion, so their durations sum to
/// (coverage × wall).
struct ProfPathStep {
  std::string what;     ///< "compute", "exchange", "blocked-input",
                        ///< "startup", "result-gather"
  std::string segment;  ///< attributed segment ("S1@n0"); producer→consumer
                        ///< for exchange steps
  std::string detail;   ///< e.g. "backpressured 43% of interval"
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  double pct = 0;       ///< share of query wall time

  int64_t dur_ns() const { return end_ns - start_ns; }
};

/// The stitched per-query DAG: every record the distributed execution stored
/// under the query's id, reduced to per-operator attribution, a critical
/// path, and the scheduler's decision audit for the segments involved.
/// Immutable once assembled; shared between the /profile endpoint,
/// ExecutionReport, and exports.
struct QueryProfile {
  uint64_t query_id = 0;
  std::string label;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t wall_ns() const { return end_ns - start_ns; }

  std::vector<EventRecord> records;  ///< sorted by (start, end)
  std::vector<ProfOperatorStat> operators;
  std::vector<ProfPathStep> critical_path;
  /// Fraction of wall time the critical path accounts for.
  double critical_path_coverage = 0;
  /// Σ root-operator inclusive time across segment instances.
  int64_t operator_total_ns = 0;
  int64_t operator_exclusive_sum_ns = 0;
  /// Matched kNetSend→kNetRecv pairs / total kNetRecv records.
  int64_t linked_recv_spans = 0;
  int64_t total_recv_spans = 0;
  std::vector<SchedTickAudit> audit;
  /// Records of this query the flight-recorder ring overwrote before the
  /// profile was assembled (0 for an unbounded capture).
  int64_t overwritten_records = 0;

  /// Output rows of `op` summed over its node instances: every operator
  /// with the same op id in a segment instance of the same fragment.
  int64_t ActualRows(const ProfOperatorStat& op) const;

  /// Machine view for GET /profile/<id>.
  std::string ToJson() const;
  /// Human view: critical path, ASCII timeline, operator table (with the
  /// planner's estimated rows, the actual rows and their q-error), audit
  /// tail.
  std::string ToText() const;
  /// The query's records through the one Chrome trace writer
  /// (ChromeTraceJson), flow arrows across exchanges included — drop into
  /// ui.perfetto.dev.
  std::string ToPerfettoJson() const;
  /// Short block appended to ExecutionReport::ToString.
  std::string Summary() const;
};

struct AssembleInput {
  uint64_t query_id = 0;
  std::string label;
  int64_t start_ns = 0;  ///< execution start (recorder clock domain)
  int64_t end_ns = 0;    ///< result drained
  std::vector<EventRecord> records;
  std::vector<SchedTickAudit> audit;
  int64_t overwritten_records = 0;
};

/// Stitches the per-node records of one query into a QueryProfile:
/// computes operator inclusive/exclusive attribution, walks the critical
/// path backward from completion (jumping producer-ward across exchanges via
/// the {exchange, from, to, wire_seq} link keys), and retains the decision
/// audit. Pure function of its input — callers typically feed it
/// EventRecorder::SelectQuery(id) plus the schedulers' audit logs.
std::shared_ptr<const QueryProfile> AssembleQueryProfile(AssembleInput input);

}  // namespace claims

#endif  // CLAIMS_OBS_PROFILE_ASSEMBLER_H_
