// The paper's motivating scenario (Fig. 1): a financial data warehouse over
// Stock-Exchange tables, running the daily report queries SSE-Q6..SSE-Q9
// with elastic pipelining and showing the dynamic scheduler's footprint.
//
//   ./financial_report [trades_rows]

#include <cstdio>
#include <cstdlib>

#include "common/string_util.h"
#include "engine/database.h"
#include "engine/workloads.h"

int main(int argc, char** argv) {
  using namespace claims;
  int64_t trades = argc > 1 ? std::atoll(argv[1]) : 600'000;

  DatabaseOptions options;
  options.cluster.num_nodes = 4;
  options.cluster.cores_per_node = 8;
  // Paper-style 50 ms scheduling rounds.
  options.cluster.scheduler_period_ms = 50;
  Database db(options);

  std::printf("Generating Stock-Exchange data (%lld trades) ...\n",
              static_cast<long long>(trades));
  SseConfig sse;
  sse.trades_rows = trades;
  sse.securities_rows = trades / 2;
  if (Status s = db.LoadSse(sse); !s.ok()) {
    std::fprintf(stderr, "load failed: %s\n", s.ToString().c_str());
    return 1;
  }

  // The Fig. 1 query: repartition join + aggregation.
  std::printf("\nFig. 1 plan for SSE-Q9:\n%s\n",
              db.Explain(*SseQuery(9))->c_str());

  for (int q = 6; q <= 9; ++q) {
    ExecOptions exec;
    exec.mode = ExecMode::kElastic;
    exec.parallelism = 1;  // let the dynamic scheduler find the parallelism
    auto result = db.Query(*SseQuery(q), exec);
    if (!result.ok()) {
      std::fprintf(stderr, "SSE-Q%d failed: %s\n", q,
                   result.status().ToString().c_str());
      return 1;
    }
    const ExecutionReport& report = db.executor()->report();
    std::printf("SSE-Q%d: %lld rows in %.1f ms (network %s, peak memory %s)\n",
                q, static_cast<long long>(result->num_rows()),
                report.elapsed_ns / 1e6,
                HumanBytes(report.remote_bytes).c_str(),
                HumanBytes(report.peak_memory_bytes).c_str());
    if (q == 6) std::printf("%s", result->ToString(3).c_str());
  }
  return 0;
}
