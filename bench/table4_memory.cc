// Reproduces paper Table 4: memory consumption (GB) of EP / SP / ME on the
// SSE queries at paper scale (simulated cluster), plus a small-scale
// cross-check on the REAL engine (generated SSE data, all three execution
// modes) to show the same ordering holds natively.

#include <cstdio>

#include "bench/bench_util.h"
#include "engine/database.h"
#include "engine/workloads.h"
#include "sim/specs.h"

namespace claims {
namespace {

int64_t SimPeak(SimQuerySpec spec, SimPolicy policy) {
  SimOptions opt;
  opt.num_nodes = 10;
  opt.policy = policy;
  opt.parallelism = policy == SimPolicy::kElastic ? 1 : 8;
  SimRun run(std::move(spec), opt);
  auto m = run.Run();
  if (!m.ok()) {
    std::fprintf(stderr, "%s\n", m.status().ToString().c_str());
    return -1;
  }
  return m->peak_memory_bytes;
}

}  // namespace
}  // namespace claims

int main(int argc, char** argv) {
  using namespace claims;
  bool csv = bench::CsvMode(argc, argv);
  SseSimParams params;
  SimCostParams costs;

  std::printf("Table 4: comparison on memory consumption (GB), paper-scale "
              "simulation\n");
  {
    bench::TablePrinter table(csv);
    table.Header({"", "SSE-Q6", "SSE-Q7", "SSE-Q8", "SSE-Q9"});
    auto make = [&](int q) {
      switch (q) {
        case 6: return SseQ6Spec(params, costs);
        case 7: return SseQ7Spec(params, costs);
        case 8: return SseQ8Spec(params, costs);
        default: return SseQ9Spec(params, costs);
      }
    };
    for (auto [name, policy] :
         {std::pair<const char*, SimPolicy>{"EP", SimPolicy::kElastic},
          {"SP", SimPolicy::kStatic},
          {"ME", SimPolicy::kMaterialized}}) {
      std::vector<std::string> row = {name};
      for (int q = 6; q <= 9; ++q) {
        row.push_back(bench::Gb(SimPeak(make(q), policy)));
      }
      table.Row(std::move(row));
    }
    table.Print();
  }

  std::printf("\nCross-check: real engine, generated SSE data "
              "(3 nodes, small scale; MB)\n");
  {
    DatabaseOptions options;
    options.cluster.num_nodes = 3;
    options.cluster.cores_per_node = 4;
    Database db(options);
    SseConfig sse;
    sse.securities_rows = 400'000;
    sse.trades_rows = 1'200'000;
    if (!db.LoadSse(sse).ok()) return 1;
    bench::TablePrinter table(csv);
    table.Header({"", "SSE-Q6", "SSE-Q7", "SSE-Q8", "SSE-Q9"});
    for (auto [name, mode] :
         {std::pair<const char*, ExecMode>{"EP", ExecMode::kElastic},
          {"SP", ExecMode::kStatic},
          {"ME", ExecMode::kMaterialized}}) {
      std::vector<std::string> row = {name};
      for (int q = 6; q <= 9; ++q) {
        ExecOptions exec;
        exec.mode = mode;
        exec.parallelism = 2;
        exec.buffer_capacity_blocks = 8;
        auto r = db.Query(*SseQuery(q), exec);
        if (!r.ok()) {
          std::fprintf(stderr, "SSE-Q%d: %s\n", q,
                       r.status().ToString().c_str());
          return 1;
        }
        row.push_back(StrFormat(
            "%.1f", db.executor()->report().peak_memory_bytes / 1048576.0));
      }
      table.Row(std::move(row));
    }
    table.Print();
  }
  return 0;
}
