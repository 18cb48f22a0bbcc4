// Allocator microbenchmark (Durner-style twins): the same workload run once
// against the recycling BlockPool and once against the global allocator, so
// the pool's recycling win — and any regression — shows up as a ratio. Two
// workloads:
//   churn  — multi-threaded allocate/stamp/free over the runtime's hot size
//            classes (the DataBuffer/Arena traffic pattern);
//   q1agg  — a TPC-H Q1-shaped aggregation (4 groups, 4 accumulators, wide
//            scans) rebuilt per rep, so the arena chunks churn through the
//            pool the way repeated queries churn them through a server.
// `--json` emits a machine-readable summary; CI's mem-smoke job asserts
// ratio >= threshold and uploads the JSON as an artifact.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "exec/hash_table.h"
#include "mem/block_pool.h"
#include "mem/size_class.h"

namespace claims {
namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Multi-threaded block churn: each thread cycles allocations through four
/// hot classes (16/32/64/128 KiB), touching the first cache lines the way
/// Block::Reset does. `pool` = nullptr is the global-allocator twin.
int64_t RunChurn(BlockPool* pool, int threads, int iters) {
  const int64_t start = NowNs();
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < iters; ++i) {
        size_t bytes = (size_t{16} << 10) << ((t + i) % 4);
        if (pool != nullptr) {
          PoolAlloc a = pool->Allocate(bytes);
          std::memset(a.data, 0, 256);
          pool->Release(a);
        } else {
          char* p = new char[bytes];
          std::memset(p, 0, 256);
          delete[] p;
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  return NowNs() - start;
}

/// Q1-shaped aggregation rep: fold `rows` into a fresh 4-group, 4-accumulator
/// table, then tear it down. With a pool the arena chunks recycle between
/// reps; without one every rep pays malloc for the same chunks again.
int64_t RunQ1Agg(BlockPool* pool, int reps, int rows) {
  Schema group({ColumnDef::Int32("flags")});
  std::vector<AggFn> fns = {AggFn::kSum, AggFn::kSum, AggFn::kAvg,
                            AggFn::kCount};
  const int64_t start = NowNs();
  for (int rep = 0; rep < reps; ++rep) {
    AggHashTable table(group, static_cast<int>(fns.size()), 64,
                       MemSource{pool, nullptr});
    std::vector<char> grow(group.row_size());
    for (int i = 0; i < rows; ++i) {
      group.SetInt32(grow.data(), 0, i % 4);  // Q1: 4 (flag, status) groups
      double v = static_cast<double>(i % 1000);
      double values[4] = {v, v * 0.95, v * 1.06, 0};
      int64_t weights[4] = {1, 1, 1, 1};
      table.Update(grow.data(), fns, values, weights);
    }
  }
  return NowNs() - start;
}

struct Twin {
  const char* name;
  int64_t pool_ns = 0;
  int64_t global_ns = 0;
  /// > 1 means the pool twin was faster.
  double ratio() const {
    return pool_ns > 0 ? static_cast<double>(global_ns) / pool_ns : 0;
  }
};

}  // namespace
}  // namespace claims

int main(int argc, char** argv) {
  using namespace claims;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--json") json = true;
  }

  // A private pool so the figures are not polluted by whatever the global
  // pool's magazines already hold.
  BlockPool pool;

  constexpr int kThreads = 4;
  constexpr int kChurnIters = 50'000;
  constexpr int kAggReps = 40;
  constexpr int kAggRows = 200'000;

  // Warm-up primes both twins (thread caches, malloc arenas) off the clock.
  RunChurn(&pool, kThreads, 2'000);
  RunChurn(nullptr, kThreads, 2'000);
  RunQ1Agg(&pool, 2, kAggRows);
  RunQ1Agg(nullptr, 2, kAggRows);

  // Interleave the twins over several rounds and keep each side's best time:
  // min-of-N strips scheduler/frequency noise that a single back-to-back pair
  // is at the mercy of, and interleaving keeps a slow patch of wall time from
  // landing entirely on one twin.
  constexpr int kRounds = 3;
  Twin churn{"churn"};
  Twin q1{"q1agg"};
  churn.pool_ns = q1.pool_ns = churn.global_ns = q1.global_ns = INT64_MAX;
  for (int r = 0; r < kRounds; ++r) {
    churn.pool_ns =
        std::min(churn.pool_ns, RunChurn(&pool, kThreads, kChurnIters));
    churn.global_ns =
        std::min(churn.global_ns, RunChurn(nullptr, kThreads, kChurnIters));
    q1.pool_ns = std::min(q1.pool_ns, RunQ1Agg(&pool, kAggReps, kAggRows));
    q1.global_ns =
        std::min(q1.global_ns, RunQ1Agg(nullptr, kAggReps, kAggRows));
  }

  BlockPool::Stats stats = pool.GetStats();
  if (json) {
    std::printf(
        "{\"churn\":{\"pool_ns\":%lld,\"global_ns\":%lld,\"ratio\":%.4f},"
        "\"q1agg\":{\"pool_ns\":%lld,\"global_ns\":%lld,\"ratio\":%.4f},"
        "\"pool\":{\"hits\":%lld,\"misses\":%lld,\"recycled_bytes\":%lld}}\n",
        static_cast<long long>(churn.pool_ns),
        static_cast<long long>(churn.global_ns), churn.ratio(),
        static_cast<long long>(q1.pool_ns),
        static_cast<long long>(q1.global_ns), q1.ratio(),
        static_cast<long long>(stats.hits),
        static_cast<long long>(stats.misses),
        static_cast<long long>(stats.recycled_bytes));
    return 0;
  }

  bench::Title("micro_alloc: BlockPool vs global allocator");
  bench::TablePrinter table(bench::CsvMode(argc, argv));
  table.Header({"workload", "pool_ms", "global_ms", "speedup"});
  for (const Twin& t : {churn, q1}) {
    table.Row({t.name, StrFormat("%.1f", t.pool_ns / 1e6),
               StrFormat("%.1f", t.global_ns / 1e6),
               StrFormat("%.2fx", t.ratio())});
  }
  table.Print();
  std::printf("pool: %lld hits, %lld misses, %.1f MiB recycled\n",
              static_cast<long long>(stats.hits),
              static_cast<long long>(stats.misses),
              stats.recycled_bytes / (1024.0 * 1024.0));
  return 0;
}
