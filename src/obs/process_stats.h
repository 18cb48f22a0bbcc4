#ifndef CLAIMS_OBS_PROCESS_STATS_H_
#define CLAIMS_OBS_PROCESS_STATS_H_

#include <cstdint>

namespace claims {

/// Point-in-time process resource usage, read from /proc/self on Linux.
/// Fields are -1 when the platform or file is unavailable, so scrapes can
/// tell "zero" from "unknown".
struct ProcessStats {
  int64_t rss_bytes = -1;
  int64_t threads = -1;
  int64_t open_fds = -1;
  /// Seconds since the first SampleProcessStats call in this process —
  /// monotonic, so rate queries over scrapes are well-defined.
  double uptime_seconds = 0;
};

ProcessStats SampleProcessStats();

/// Refreshes the process.* gauges in the global MetricsRegistry
/// (process.rss_bytes, process.threads, process.open_fds,
/// process.uptime_seconds). The global registry runs it as a refresh hook
/// before every read, so the gauges are always current without a background
/// sampler thread.
void UpdateProcessGauges();

}  // namespace claims

#endif  // CLAIMS_OBS_PROCESS_STATS_H_
