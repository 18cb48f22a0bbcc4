// Allocator microbenchmark (Durner-style twins): the same workload run once
// against the recycling BlockPool and once against the global allocator, so
// the pool's recycling win — and any regression — shows up as a ratio. Two
// workloads:
//   churn  — multi-threaded allocate/stamp/free over the runtime's hot size
//            classes (the DataBuffer/Arena traffic pattern);
//   q1agg  — a TPC-H Q1-shaped aggregation (4 groups, 4 accumulators, wide
//            scans) rebuilt per rep, so the arena chunks churn through the
//            pool the way repeated queries churn them through a server.
// The twins alternate over kRounds rounds; each round's global/pool time
// ratio is one sample, and the median and quartiles of those samples are
// reported, with the pool hits and misses each workload's pool twin caused.
// `--json` emits a machine-readable summary, the pool's totals included;
// CI's mem-smoke job asserts churn's median ratio >= threshold, that the
// q1agg twin's chunks recycled (its hits against its misses: q1agg's time
// ratio ties within its noise) and a live byte count of 0, and uploads the
// JSON as an artifact.

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

/// One workload's paired rounds.
struct Twin {
  explicit Twin(const char* workload) : name(workload) {}

  const char* name;
  std::vector<double> pool_ms;
  std::vector<double> global_ms;
  /// Per round, global time / pool time: > 1 means the pool twin was faster.
  std::vector<double> ratios;
  /// Pool hits and misses over this workload's pool runs.
  int64_t pool_hits = 0;
  int64_t pool_misses = 0;

  /// Runs `run(pooled)` for both twins back to back, the pool twin first
  /// on even rounds and second on odd ones, and records the pair. Only the
  /// pool twin touches `pool`, so its counts move by what that run caused.
  template <typename Run>
  void RunRound(int round, const BlockPool& pool, Run run) {
    const bool pool_first = round % 2 == 0;
    const BlockPool::Stats before = pool.GetStats();
    const int64_t first = run(pool_first);
    const int64_t second = run(!pool_first);
    const BlockPool::Stats after = pool.GetStats();
    pool_hits += after.hits - before.hits;
    pool_misses += after.misses - before.misses;
    const int64_t pool_ns = pool_first ? first : second;
    const int64_t global_ns = pool_first ? second : first;
    pool_ms.push_back(pool_ns / 1e6);
    global_ms.push_back(global_ns / 1e6);
    ratios.push_back(static_cast<double>(global_ns) /
                     static_cast<double>(std::max<int64_t>(1, pool_ns)));
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

  // Each round runs both twins back to back, alternating which goes first,
  // and yields one paired ratio: a slow patch of wall time lands on both
  // sides of a pair. The median over the rounds, with its quartiles, does
  // not hang on any single run.
  constexpr int kRounds = 15;
  Twin churn{"churn"};
  Twin q1{"q1agg"};
  for (int r = 0; r < kRounds; ++r) {
    churn.RunRound(r, pool, [&](bool pooled) {
      return RunChurn(pooled ? &pool : nullptr, kThreads, kChurnIters);
    });
    q1.RunRound(r, pool, [&](bool pooled) {
      return RunQ1Agg(pooled ? &pool : nullptr, kAggReps, kAggRows);
    });
  }

  BlockPool::Stats stats = pool.GetStats();
  if (json) {
    std::string out = StrFormat("{\"rounds\":%d", kRounds);
    for (const Twin* t : {&churn, &q1}) {
      const bench::Spread ratio = bench::SpreadOf(t->ratios);
      out += StrFormat(
          ",\"%s\":{\"ratio_median\":%.4f,\"ratio_q1\":%.4f,"
          "\"ratio_q3\":%.4f,\"pool_ms_median\":%.3f,"
          "\"global_ms_median\":%.3f,\"pool_hits\":%lld,"
          "\"pool_misses\":%lld}",
          t->name, ratio.median, ratio.q1, ratio.q3,
          bench::SpreadOf(t->pool_ms).median,
          bench::SpreadOf(t->global_ms).median,
          static_cast<long long>(t->pool_hits),
          static_cast<long long>(t->pool_misses));
    }
    // Every churn thread has joined and every chunk is back, so the
    // per-thread live counts must sum to exactly 0.
    out += StrFormat(
        ",\"pool\":{\"hits\":%lld,\"misses\":%lld,\"recycled_bytes\":%lld,"
        "\"live_bytes\":%lld}}",
        static_cast<long long>(stats.hits),
        static_cast<long long>(stats.misses),
        static_cast<long long>(stats.recycled_bytes),
        static_cast<long long>(stats.live_bytes));
    std::printf("%s\n", out.c_str());
    return 0;
  }

  bench::Title("micro_alloc: BlockPool vs global allocator");
  std::printf("medians over %d paired rounds; speedup as median (q1-q3)\n",
              kRounds);
  bench::TablePrinter table(bench::CsvMode(argc, argv));
  table.Header(
      {"workload", "pool_ms", "global_ms", "speedup", "hits", "misses"});
  for (const Twin* t : {&churn, &q1}) {
    const bench::Spread ratio = bench::SpreadOf(t->ratios);
    table.Row({t->name, StrFormat("%.1f", bench::SpreadOf(t->pool_ms).median),
               StrFormat("%.1f", bench::SpreadOf(t->global_ms).median),
               StrFormat("%.2fx (%.2f-%.2f)", ratio.median, ratio.q1,
                         ratio.q3),
               StrFormat("%lld", static_cast<long long>(t->pool_hits)),
               StrFormat("%lld", static_cast<long long>(t->pool_misses))});
  }
  table.Print();
  std::printf("pool: %lld hits, %lld misses, %.1f MiB recycled\n",
              static_cast<long long>(stats.hits),
              static_cast<long long>(stats.misses),
              stats.recycled_bytes / (1024.0 * 1024.0));
  return 0;
}
