#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

// Layer probes of the traced run. Each one calls a single module's public
// API over the workload's own loaded tables (the hash-table probes use 64 K
// seeded keys instead), records one span, and reports the work it did as a
// count alongside its busy time.

#include <cstdint>
#include <string>
#include <vector>

#include "src/spans.h"
#include "src/workloads.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Work one probe did: `count` units of `what` in `busy_ns`.
struct ProbeWork {
  std::string probe;
  int64_t count = 0;
  std::string what;
  int64_t busy_ns = 0;
};

/// Runs every probe in the sql, cluster, core, exec, net and mem layers on
/// `env` (which must have no QueryService running, so the cluster is idle)
/// and appends their metrics and work records.
claims::Status RunLayerProbes(Env* env, uint64_t seed, SpanRecorder* spans,
                              std::vector<Metric>* metrics,
                              std::vector<ProbeWork>* work);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
