#include "obs/report.h"

#include <algorithm>

#include "common/string_util.h"

namespace claims {
namespace {

std::string HumanMs(int64_t ns) {
  return StrFormat("%.2f ms", static_cast<double>(ns) / 1e6);
}

/// "1 ->(2.1ms) 3 ->(4.0ms) 2": parallelism steps with transition offsets.
std::string TimelineString(
    const std::vector<std::pair<int64_t, int>>& timeline) {
  if (timeline.empty()) return "(no samples)";
  std::string out = StrFormat("%d", timeline.front().second);
  int64_t t0 = timeline.front().first;
  for (size_t i = 1; i < timeline.size(); ++i) {
    out += StrFormat(" ->(%.1fms) %d",
                     static_cast<double>(timeline[i].first - t0) / 1e6,
                     timeline[i].second);
  }
  return out;
}

}  // namespace

std::string ExecutionReport::ToString() const {
  // With a recorded admission wait the header splits client-visible latency
  // into its queue and run components (EXPLAIN ANALYZE under the workload
  // manager); unqueued queries keep the familiar single number.
  std::string latency =
      queue_wait_ns > 0
          ? StrFormat("%s (queued %s + ran %s)",
                      HumanMs(queue_wait_ns + elapsed_ns).c_str(),
                      HumanMs(queue_wait_ns).c_str(),
                      HumanMs(elapsed_ns).c_str())
          : HumanMs(elapsed_ns);
  std::string out = StrFormat(
      "Query (%s): %s, %lld result tuples, peak mem %s, network %s\n",
      mode.c_str(), latency.c_str(), static_cast<long long>(result_tuples),
      HumanBytes(peak_memory_bytes).c_str(), HumanBytes(remote_bytes).c_str());
  out += StrFormat(
      "  %-12s %4s %12s %12s %6s %6s %11s %11s %11s %10s %5s  %s\n",
      "segment", "node", "tuples-in", "tuples-out", "delta", "V_i", "worker",
      "blocked-in", "blocked-out", "lifetime", "p/max", "parallelism timeline");
  for (const SegmentReport& s : segments) {
    out += StrFormat(
        "  %-12s %4d %12lld %12lld %6.3f %6.2f %11s %11s %11s %10s %2d/%-2d  "
        "%s\n",
        s.name.c_str(), s.node_id, static_cast<long long>(s.input_tuples),
        static_cast<long long>(s.output_tuples), s.selectivity, s.visit_rate,
        HumanMs(s.worker_ns).c_str(), HumanMs(s.blocked_input_ns).c_str(),
        HumanMs(s.blocked_output_ns).c_str(), HumanMs(s.lifetime_ns).c_str(),
        s.final_parallelism, s.peak_parallelism,
        TimelineString(s.parallelism_timeline).c_str());
  }
  if (!profile_summary.empty()) {
    out += StrFormat("  profile (query %llu): %s\n",
                     static_cast<unsigned long long>(profile_query_id),
                     profile_summary.c_str());
  }
  return out;
}

std::vector<std::pair<int64_t, int>> ParallelismTimeline(
    const std::vector<SchedTickAudit>& audit, const std::string& segment,
    int64_t start_ns, int launch_width, int64_t t0_ns, int64_t t1_ns) {
  std::vector<std::pair<int64_t, int>> timeline;
  auto add = [&](int64_t ts, int value) {
    if (ts < t0_ns || ts > t1_ns) return;
    if (!timeline.empty() && timeline.back().second == value) return;
    timeline.emplace_back(ts, value);
  };
  add(start_ns, launch_width);
  for (const SchedTickAudit& tick : audit) {
    for (const SchedTickAudit::Segment& s : tick.segments) {
      if (s.name == segment) add(tick.ts_ns, s.parallelism);
    }
  }
  return timeline;
}

}  // namespace claims
