#ifndef CLAIMS_OBS_REPORT_H_
#define CLAIMS_OBS_REPORT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/recorder.h"

namespace claims {

/// Per-segment execution summary inside an ExecutionReport. Tuple/time
/// numbers are copied from the segment's SegmentStats after the query
/// completes, so report totals reconcile exactly with the counters the
/// dynamic scheduler sampled during the run.
struct SegmentReport {
  std::string name;        ///< e.g. "S1@n0"
  int node_id = 0;
  int64_t input_tuples = 0;
  int64_t output_tuples = 0;
  double selectivity = 1.0;       ///< δ_i = out / in
  double visit_rate = 1.0;        ///< final V_i
  int64_t worker_ns = 0;          ///< summed worker live time
  int64_t blocked_input_ns = 0;   ///< of it, starved (waiting on input)
  int64_t blocked_output_ns = 0;  ///< of it, backpressured (output full)
  int64_t lifetime_ns = 0;        ///< driver start → drained
  int final_parallelism = 0;
  int peak_parallelism = 0;
  /// (ts_ns, workers) samples: the launch width at segment start, then the
  /// parallelism after each scheduler tick that audited the segment
  /// (ParallelismTimeline).
  std::vector<std::pair<int64_t, int>> parallelism_timeline;
};

/// EXPLAIN-ANALYZE-style summary of one distributed query execution,
/// assembled by cluster/Executor. Rendering is substrate-agnostic: anything
/// that fills the struct (real engine, simulator adapters, tests) gets the
/// same report.
struct ExecutionReport {
  std::string mode;  ///< EP / SP / ME
  /// Admission-queue wait before execution began (workload manager path;
  /// 0 when the query never queued). Total query latency as the client saw
  /// it is queue_wait_ns + elapsed_ns.
  int64_t queue_wait_ns = 0;
  /// Run time: Execute start → result drained.
  int64_t elapsed_ns = 0;
  int64_t peak_memory_bytes = 0;
  /// Payload bytes this query's senders delivered across hosts, counted per
  /// segment, so concurrent queries never see each other's traffic.
  int64_t remote_bytes = 0;
  int64_t result_tuples = 0;
  std::vector<SegmentReport> segments;

  /// Causal-profile digest (critical-path coverage + top contributors) when
  /// the EventRecorder was on during the run; empty otherwise. The full
  /// profile lives in the recorder's profile ring (GET /profile/<query_id>).
  std::string profile_summary;
  /// Query id the profile was stored under (0 = unprofiled run).
  uint64_t profile_query_id = 0;

  /// Pretty table, one row per segment plus query totals:
  ///
  ///   Query (EP): 12.34 ms, 1 result tuples, peak mem 2.1 MB, net 0.5 MB
  ///    segment    node  tuples-in  tuples-out  δ      worker  blocked-in ...
  std::string ToString() const;
};

/// Parallelism timeline of `segment`: `launch_width` at `start_ns`, then
/// the post-action parallelism of every tick in `audit` that saw the
/// segment, restricted to [t0_ns, t1_ns]; consecutive duplicate values are
/// collapsed. `audit` is one query's slice (DynamicScheduler::
/// AuditLogForQuery), so the timeline needs no trace.
std::vector<std::pair<int64_t, int>> ParallelismTimeline(
    const std::vector<SchedTickAudit>& audit, const std::string& segment,
    int64_t start_ns, int launch_width, int64_t t0_ns, int64_t t1_ns);

}  // namespace claims

#endif  // CLAIMS_OBS_REPORT_H_
