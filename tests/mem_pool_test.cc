// Memory-subsystem tests: size-class boundary behavior, pool recycling and
// per-thread counts, thread-local magazine exchange under multi-thread churn
// (the TSan target for cross-thread chunk handoff), QueryBudget ledger
// charge/release exactness and process cap, and the spill/restore round-trip
// the hash-agg degradation ladder depends on (docs/MEMORY.md).

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "exec/hash_table.h"
#include "ledger_balance_check.h"
#include "mem/block_pool.h"
#include "mem/mem_source.h"
#include "mem/scratch.h"
#include "mem/query_budget.h"
#include "mem/size_class.h"
#include "mem/spill.h"
#include "obs/metrics_registry.h"

namespace claims {
namespace {

// --- Size classes ---------------------------------------------------------------

TEST(SizeClassTest, BoundariesRoundToTheRightClass) {
  EXPECT_EQ(SizeClassFor(0), 0);
  EXPECT_EQ(SizeClassFor(1), 0);
  EXPECT_EQ(SizeClassFor(kMinSizeClassBytes), 0);
  EXPECT_EQ(SizeClassFor(kMinSizeClassBytes + 1), 1);
  EXPECT_EQ(SizeClassFor(2 * kMinSizeClassBytes), 1);
  EXPECT_EQ(SizeClassFor(kMaxSizeClassBytes), kNumSizeClasses - 1);
  EXPECT_EQ(SizeClassFor(kMaxSizeClassBytes + 1), -1);  // oversized
  for (int cls = 0; cls < kNumSizeClasses; ++cls) {
    EXPECT_EQ(SizeClassFor(SizeClassBytes(cls)), cls);
  }
}

TEST(BlockPoolTest, AllocationRoundsUpToItsClass) {
  BlockPool pool;
  PoolAlloc a = pool.Allocate(1);
  ASSERT_TRUE(a);
  EXPECT_EQ(a.bytes, kMinSizeClassBytes);
  EXPECT_EQ(a.size_class, 0);

  PoolAlloc b = pool.Allocate(kMinSizeClassBytes + 1);
  ASSERT_TRUE(b);
  EXPECT_EQ(b.bytes, 2 * kMinSizeClassBytes);
  EXPECT_EQ(b.size_class, 1);

  // Oversized requests are served exactly and never cached.
  PoolAlloc big = pool.Allocate(kMaxSizeClassBytes + 1);
  ASSERT_TRUE(big);
  EXPECT_EQ(big.bytes, kMaxSizeClassBytes + 1);
  EXPECT_EQ(big.size_class, -1);
  EXPECT_GE(pool.GetStats().oversized, 1);

  pool.Release(a);
  pool.Release(b);
  pool.Release(big);
  EXPECT_EQ(pool.GetStats().live_bytes, 0);
}

TEST(BlockPoolTest, ReleasedChunksAreRecycled) {
  BlockPool pool;
  const size_t kBytes = 64 << 10;
  PoolAlloc a = pool.Allocate(kBytes);
  ASSERT_TRUE(a);
  std::memset(a.data, 0xAB, a.bytes);
  pool.Release(a);

  BlockPool::Stats before = pool.GetStats();
  PoolAlloc b = pool.Allocate(kBytes);
  ASSERT_TRUE(b);
  BlockPool::Stats after = pool.GetStats();
  EXPECT_GT(after.hits, before.hits);
  EXPECT_GT(after.recycled_bytes, before.recycled_bytes);
  pool.Release(b);
}

// The hot-path counts live in each thread's cache: GetStats sums the caches
// of running threads and of retired ones, so the totals are exact whether
// or not the threads that made them are still alive.
TEST(BlockPoolTest, StatsSumRunningAndRetiredThreadCaches) {
  BlockPool pool;
  std::mutex mu;
  std::condition_variable cv;
  bool allocated = false;
  bool proceed = false;
  PoolAlloc held;
  std::thread worker([&] {
    pool.Release(pool.Allocate(64 << 10));
    PoolAlloc a = pool.Allocate(64 << 10);  // a magazine hit
    std::unique_lock<std::mutex> lock(mu);
    held = a;
    allocated = true;
    cv.notify_all();
    cv.wait(lock, [&] { return proceed; });
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return allocated; });
  }
  BlockPool::Stats running = pool.GetStats();  // the worker's cache is live
  EXPECT_EQ(running.hits, 1);
  EXPECT_EQ(running.misses, 1);
  EXPECT_EQ(running.recycled_bytes, 64 << 10);
  EXPECT_EQ(running.live_bytes, 64 << 10);
  {
    std::lock_guard<std::mutex> lock(mu);
    proceed = true;
  }
  cv.notify_all();
  worker.join();

  // Freed by another thread: the two caches' live counts cancel.
  pool.Release(held);
  BlockPool::Stats after = pool.GetStats();
  EXPECT_EQ(after.hits, 1);
  EXPECT_EQ(after.recycled_bytes, 64 << 10);
  EXPECT_EQ(after.live_bytes, 0);
}

// The global pool's figures reach /metrics when the registry is read, not
// on every allocation.
TEST(BlockPoolTest, GlobalPoolMetricsAreFilledOnRead) {
  BlockPool* pool = BlockPool::Global();
  MetricsRegistry* reg = MetricsRegistry::Global();
  PoolAlloc a = pool->Allocate(64 << 10);
  reg->TextSnapshot();
  EXPECT_EQ(reg->gauge("mem.pool.live_bytes")->value(),
            static_cast<double>(pool->GetStats().live_bytes));
  const int64_t hits = reg->counter("mem.pool.hits")->value();
  pool->Release(a);
  pool->Release(pool->Allocate(64 << 10));  // a magazine hit
  EXPECT_EQ(reg->counter("mem.pool.hits")->value(), hits);  // not yet read
  reg->TextSnapshot();
  EXPECT_EQ(reg->counter("mem.pool.hits")->value(), pool->GetStats().hits);
  EXPECT_GT(reg->counter("mem.pool.hits")->value(), hits);
}

// 8 threads hammer the pool through their thread-local magazines, half the
// releases crossing threads through a shared queue so chunks migrate between
// caches via the central tier. Under TSan this is the test that drives the
// release/acquire chain on recycled memory.
TEST(BlockPoolTest, EightThreadChurnExchangesMagazinesCleanly) {
  BlockPool pool;
  const int kThreads = 8;
  const int kIters = 400;

  std::mutex handoff_mu;
  std::deque<PoolAlloc> handoff;
  std::atomic<int64_t> corrupt{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        // Cycle through several classes so magazines overflow and refill.
        size_t bytes = kMinSizeClassBytes << ((t + i) % 4);
        PoolAlloc a = pool.Allocate(bytes);
        ASSERT_TRUE(a);
        // Stamp the chunk; whoever frees it verifies the stamp survived.
        std::memset(a.data, t + 1, 64);
        if (a.data[0] != t + 1 || a.data[63] != t + 1) corrupt.fetch_add(1);
        if (i % 2 == 0) {
          pool.Release(a);
        } else {
          std::lock_guard<std::mutex> lock(handoff_mu);
          handoff.push_back(a);
        }
        // Drain someone else's chunk (cross-thread release).
        PoolAlloc other;
        {
          std::lock_guard<std::mutex> lock(handoff_mu);
          if (!handoff.empty()) {
            other = handoff.front();
            handoff.pop_front();
          }
        }
        if (other) {
          if (other.data[0] < 1 || other.data[0] > kThreads) {
            corrupt.fetch_add(1);
          }
          pool.Release(other);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (PoolAlloc& a : handoff) pool.Release(a);

  EXPECT_EQ(corrupt.load(), 0);
  BlockPool::Stats stats = pool.GetStats();
  EXPECT_EQ(stats.live_bytes, 0);
  // Churn this heavy must be served mostly from recycling, not the OS.
  EXPECT_GT(stats.hits, stats.misses);
}

// Worker threads live for one query, so an exiting thread hands its
// magazines to the central tier and the next thread's refills recycle them.
// Stranded magazines would make every thread here allocate fresh: 512 misses.
TEST(BlockPoolTest, ExitingThreadsReturnTheirMagazines) {
  BlockPool pool;
  constexpr int kThreads = 64;
  constexpr int kChunks = 8;
  constexpr size_t kBytes = 64 << 10;
  for (int t = 0; t < kThreads; ++t) {
    std::thread([&pool] {
      std::vector<PoolAlloc> chunks;
      for (int i = 0; i < kChunks; ++i) chunks.push_back(pool.Allocate(kBytes));
      for (const PoolAlloc& a : chunks) pool.Release(a);
    }).join();
  }
  BlockPool::Stats stats = pool.GetStats();
  EXPECT_LE(stats.misses, 2 * kChunks);
  EXPECT_EQ(stats.live_bytes, 0);
  // Every chunk ever allocated sits in the central tier; no exited thread
  // keeps one.
  EXPECT_EQ(stats.central_bytes, stats.misses * static_cast<int64_t>(kBytes));
}

// A pool destroyed while a thread that used it still runs: the thread's exit
// must not touch the dead pool (ASan reports any access), and must still
// return its magazines to a pool that outlives it.
TEST(BlockPoolTest, ThreadOutlivingAPoolSkipsItAtExit) {
  auto doomed = std::make_unique<BlockPool>();
  BlockPool survivor;
  std::mutex mu;
  std::condition_variable cv;
  bool cached = false;
  bool destroyed = false;
  std::thread worker([&, pool = doomed.get()] {
    pool->Release(pool->Allocate(64 << 10));
    survivor.Release(survivor.Allocate(64 << 10));
    std::unique_lock<std::mutex> lock(mu);
    cached = true;
    cv.notify_all();
    cv.wait(lock, [&] { return destroyed; });
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return cached; });
  }
  doomed.reset();  // frees the worker's cache, magazine included
  {
    std::lock_guard<std::mutex> lock(mu);
    destroyed = true;
  }
  cv.notify_all();
  worker.join();
  EXPECT_EQ(survivor.GetStats().central_bytes, 64 << 10);
}

// --- QueryBudget ledger ---------------------------------------------------------

TEST(QueryBudgetTest, ChargeReleaseIsExact) {
  QueryBudget budget(1 << 20);
  EXPECT_TRUE(budget.TryCharge(512 << 10));
  EXPECT_EQ(budget.charged_bytes(), 512 << 10);
  EXPECT_TRUE(budget.TryCharge(512 << 10));
  EXPECT_EQ(budget.charged_bytes(), 1 << 20);
  // The ledger invariant: a charge that would exceed the budget never lands.
  EXPECT_FALSE(budget.TryCharge(1));
  EXPECT_EQ(budget.charged_bytes(), 1 << 20);
  budget.Release(512 << 10);
  EXPECT_EQ(budget.charged_bytes(), 512 << 10);
  budget.Release(512 << 10);
  EXPECT_EQ(budget.charged_bytes(), 0);
  EXPECT_EQ(budget.peak_charged_bytes(), 1 << 20);
  EXPECT_FALSE(budget.rejected());  // refusal alone never latches rejection
}

// The process cap (the mempressure fault's actuator) binds the sum over
// every ledger, but only bounded ledgers honour it: an unbounded one has no
// ladder to fall down.
TEST(QueryBudgetTest, ProcessCapRefusesBoundedLedgersOnly) {
  // A ledger another test left charged would count against the cap too.
  ASSERT_EQ(QueryBudget::TotalChargedBytes(), 0);
  QueryBudget unbounded(/*budget_bytes=*/0);
  QueryBudget bounded(1 << 20);
  ASSERT_TRUE(unbounded.TryCharge(48 << 10));
  QueryBudget::SetProcessCapBytes(64 << 10);
  EXPECT_EQ(QueryBudget::process_cap_bytes(), 64 << 10);

  EXPECT_TRUE(bounded.TryCharge(16 << 10));   // 64 KiB in total: at the cap
  EXPECT_FALSE(bounded.TryCharge(1));         // over it
  EXPECT_TRUE(unbounded.TryCharge(16 << 10));  // never refused
  EXPECT_EQ(QueryBudget::TotalChargedBytes(), 80 << 10);
  EXPECT_EQ(bounded.charged_bytes(), 16 << 10);

  QueryBudget::SetProcessCapBytes(-1);  // restore: uncapped
  EXPECT_EQ(QueryBudget::process_cap_bytes(), 0);
  EXPECT_TRUE(bounded.TryCharge(512 << 10));
  bounded.Release(bounded.charged_bytes());
  unbounded.Release(unbounded.charged_bytes());
  EXPECT_EQ(QueryBudget::TotalChargedBytes(), 0);
}

TEST(QueryBudgetTest, ConcurrentChargesNeverExceedBudget) {
  const int64_t kBudget = 1 << 20;
  QueryBudget budget(kBudget);
  std::atomic<bool> stop{false};
  std::atomic<int64_t> violations{0};

  // A sampler thread plays the role of the stress harness's 1 ms probe.
  std::thread sampler([&] {
    while (!stop.load(std::memory_order_acquire)) {
      if (budget.charged_bytes() > kBudget) violations.fetch_add(1);
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> chargers;
  for (int t = 0; t < 8; ++t) {
    chargers.emplace_back([&, t] {
      const int64_t bytes = (t + 1) * 4096;
      for (int i = 0; i < 2000; ++i) {
        if (budget.TryCharge(bytes)) budget.Release(bytes);
      }
    });
  }
  for (auto& th : chargers) th.join();
  stop.store(true, std::memory_order_release);
  sampler.join();

  EXPECT_EQ(violations.load(), 0);
  EXPECT_EQ(budget.charged_bytes(), 0);
  EXPECT_LE(budget.peak_charged_bytes(), kBudget);
}

// Racing charges on one unbounded ledger: the lock-free peak update converges
// to the true maximum, here the total every thread added.
TEST(QueryBudgetTest, ConcurrentPeakIsAtLeastSteadyState) {
  QueryBudget budget(/*budget_bytes=*/0);
  const int kThreads = 8;
  const int kIters = 2000;
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&budget] {
      for (int j = 0; j < kIters; ++j) budget.TryCharge(10);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(budget.charged_bytes(), kThreads * kIters * 10);
  EXPECT_EQ(budget.peak_charged_bytes(), kThreads * kIters * 10);
  budget.Release(budget.charged_bytes());
}

// --- MemSource: pool + budget handshake -----------------------------------------

TEST(MemSourceTest, ChunkChargesActualBytesAndRefundsOnRelease) {
  BlockPool pool;
  QueryBudget budget(1 << 20);
  MemSource source{&pool, &budget};

  PoolAlloc a = source.AllocateChunk(10'000);  // rounds up to 16 KiB
  ASSERT_TRUE(a);
  EXPECT_EQ(a.bytes, size_t{16} << 10);
  EXPECT_EQ(budget.charged_bytes(), 16 << 10);  // actual, not requested

  source.ReleaseChunk(a);
  EXPECT_EQ(budget.charged_bytes(), 0);
  EXPECT_EQ(pool.GetStats().live_bytes, 0);
}

TEST(MemSourceTest, BudgetRefusalReturnsChunkToPool) {
  BlockPool pool;
  QueryBudget budget(4096);
  MemSource source{&pool, &budget};

  PoolAlloc a = source.AllocateChunk(64 << 10);  // over budget
  EXPECT_FALSE(a);
  EXPECT_EQ(budget.charged_bytes(), 0);
  EXPECT_EQ(pool.GetStats().live_bytes, 0);  // refused chunk went back
}

// Only a bounded ledger honours the process cap: an unbounded one (every
// query without a budget) charges past it.
TEST(MemSourceTest, UnboundedLedgerChargesPastTheProcessCap) {
  ASSERT_EQ(QueryBudget::TotalChargedBytes(), 0);
  BlockPool pool;
  QueryBudget::SetProcessCapBytes(16 << 10);
  QueryBudget unbounded(/*budget_bytes=*/0);
  QueryBudget bounded(1 << 20);
  MemSource loose{&pool, &unbounded};
  MemSource capped{&pool, &bounded};

  PoolAlloc first = loose.AllocateChunk(16 << 10);
  ASSERT_TRUE(first);
  EXPECT_FALSE(capped.AllocateChunk(16 << 10));  // refused by the cap
  PoolAlloc second = loose.AllocateChunk(16 << 10);
  ASSERT_TRUE(second);
  EXPECT_EQ(unbounded.charged_bytes(), 32 << 10);
  EXPECT_EQ(bounded.charged_bytes(), 0);
  QueryBudget::SetProcessCapBytes(0);

  loose.ReleaseChunk(first);
  loose.ReleaseChunk(second);
  EXPECT_EQ(unbounded.charged_bytes(), 0);
  EXPECT_EQ(pool.GetStats().live_bytes, 0);  // the refused chunk went back
}

// --- Arena recycling ------------------------------------------------------------

TEST(ArenaPoolTest, ResetReturnsChunksToThePool) {
  BlockPool pool;
  QueryBudget budget(8 << 20);
  Arena arena(64 << 10, MemSource{&pool, &budget});
  for (int i = 0; i < 32; ++i) arena.Allocate(16 << 10);
  EXPECT_GT(budget.charged_bytes(), 0);
  int64_t live_before = pool.GetStats().live_bytes;
  EXPECT_GT(live_before, 0);

  arena.Reset();
  EXPECT_EQ(budget.charged_bytes(), 0);  // every chunk refunded
  EXPECT_EQ(pool.GetStats().live_bytes, 0);

  // The next fill is served from the chunks Reset parked in the pool.
  BlockPool::Stats before = pool.GetStats();
  for (int i = 0; i < 32; ++i) arena.Allocate(16 << 10);
  EXPECT_GT(pool.GetStats().recycled_bytes, before.recycled_bytes);
}

// --- Hash-table bucket arrays ---------------------------------------------------

TEST(PooledArrayTest, RecycledChunkStartsZeroed) {
  BlockPool pool;
  {
    PooledArray<uint64_t> first(&pool, 1 << 16);
    for (size_t i = 0; i < first.size(); ++i) first[i] = ~uint64_t{0};
  }
  PooledArray<uint64_t> second(&pool, 1 << 16);
  EXPECT_EQ(pool.GetStats().misses, 1);  // the first array's chunk, reused
  for (uint64_t v : second) ASSERT_EQ(v, 0u);
}

TEST(PooledArrayTest, HashTablesReuseTheirPredecessorsBuckets) {
  // One table per query on the same pool: after the first, the bucket array
  // and the arena chunk come back from the pool, and the recycled buckets
  // hold no chain of the table before (each round uses fresh group keys).
  BlockPool pool;
  Schema group({ColumnDef::Int32("g")});
  std::vector<AggFn> fns = {AggFn::kCount};
  std::vector<char> grow(group.row_size());
  for (int round = 0; round < 4; ++round) {
    AggHashTable table(group, 1, 1 << 14, MemSource{&pool, nullptr});
    for (int i = 0; i < 100; ++i) {
      group.SetInt32(grow.data(), 0, round * 1000 + i % 10);
      double values[1] = {0};
      int64_t weights[1] = {1};
      ASSERT_TRUE(table.Update(grow.data(), fns, values, weights));
    }
    int64_t groups = 0;
    int64_t rows = 0;
    table.ForEach([&](const char*, const AggHashTable::AggState* states) {
      ++groups;
      rows += states[0].count;
    });
    EXPECT_EQ(groups, 10);
    EXPECT_EQ(rows, 100);
  }
  EXPECT_EQ(pool.GetStats().misses, 2);  // one bucket array, one arena chunk
}

// --- Spill round-trip -----------------------------------------------------------

TEST(SpillRunTest, ReadBackIsByteIdentical) {
  auto run = SpillRun::Create();
  ASSERT_NE(run, nullptr);
  std::vector<char> payload(100'000);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<char>((i * 31 + 7) & 0xFF);
  }
  ASSERT_TRUE(run->Append(payload.data(), 40'000).ok());
  ASSERT_TRUE(run->Append(payload.data() + 40'000, 60'000).ok());
  ASSERT_TRUE(run->Finish().ok());
  EXPECT_EQ(run->bytes(), 100'000);

  std::vector<char> back;
  ASSERT_TRUE(run->ReadAll(&back).ok());
  ASSERT_EQ(back.size(), payload.size());
  EXPECT_EQ(std::memcmp(back.data(), payload.data(), payload.size()), 0);
}

TEST(SpillRunTest, AggTableSpillRestoreRoundTrip) {
  Schema group({ColumnDef::Int32("g")});
  std::vector<AggFn> fns = {AggFn::kSum, AggFn::kCount};
  AggHashTable table(group, 2, 64);
  std::vector<char> grow(group.row_size());
  for (int i = 0; i < 1000; ++i) {
    group.SetInt32(grow.data(), 0, i % 13);
    double values[2] = {static_cast<double>(i), 0};
    int64_t weights[2] = {1, 1};
    ASSERT_TRUE(table.Update(grow.data(), fns, values, weights));
  }

  auto run = SpillRun::Create();
  ASSERT_NE(run, nullptr);
  ASSERT_TRUE(table.SerializeTo(run.get()).ok());
  ASSERT_TRUE(run->Finish().ok());

  // Restore into a fresh table, fold the same live updates on top, and check
  // the merge matches doubling the live table: spill+merge loses nothing.
  std::vector<char> bytes;
  ASSERT_TRUE(run->ReadAll(&bytes).ok());
  AggHashTable restored(group, 2, 64);
  ASSERT_TRUE(AggHashTable::MergeSerialized(bytes.data(), bytes.size(), fns,
                                            &restored)
                  .ok());
  ASSERT_EQ(restored.size(), table.size());

  std::map<int32_t, std::pair<double, int64_t>> want, got;
  table.ForEach([&](const char* row, const AggHashTable::AggState* states) {
    want[group.GetInt32(row, 0)] = {states[0].sum, states[1].count};
  });
  restored.ForEach([&](const char* row, const AggHashTable::AggState* states) {
    got[group.GetInt32(row, 0)] = {states[0].sum, states[1].count};
  });
  EXPECT_EQ(want, got);
}

TEST(SpillRunTest, SeventeenAggregateRoundTrip) {
  // More aggregate slots than the 16 the merge paths once assumed: every
  // state of every slot must survive SerializeTo + MergeSerialized.
  constexpr int kAggs = 17;
  const AggFn cycle[] = {AggFn::kSum, AggFn::kCount, AggFn::kMin, AggFn::kMax,
                         AggFn::kAvg};
  std::vector<AggFn> fns;
  for (int a = 0; a < kAggs; ++a) fns.push_back(cycle[a % 5]);
  Schema group({ColumnDef::Int32("g")});
  AggHashTable table(group, kAggs, 64);
  std::vector<char> grow(group.row_size());
  for (int i = 0; i < 500; ++i) {
    group.SetInt32(grow.data(), 0, i % 7);
    double values[kAggs];
    int64_t weights[kAggs];
    for (int a = 0; a < kAggs; ++a) {
      values[a] = static_cast<double>((i * (a + 3)) % 101) - 50;
      weights[a] = 1;
    }
    ASSERT_TRUE(table.Update(grow.data(), fns, values, weights));
  }

  auto run = SpillRun::Create();
  ASSERT_NE(run, nullptr);
  ASSERT_TRUE(table.SerializeTo(run.get()).ok());
  ASSERT_TRUE(run->Finish().ok());
  std::vector<char> bytes;
  ASSERT_TRUE(run->ReadAll(&bytes).ok());
  AggHashTable restored(group, kAggs, 64);
  ASSERT_TRUE(AggHashTable::MergeSerialized(bytes.data(), bytes.size(), fns,
                                            &restored)
                  .ok());
  ASSERT_EQ(restored.size(), table.size());

  using States = std::vector<std::pair<double, int64_t>>;
  std::map<int32_t, States> want, got;
  auto collect = [&](std::map<int32_t, States>* into) {
    return [into, &group](const char* row,
                          const AggHashTable::AggState* states) {
      States& out = (*into)[group.GetInt32(row, 0)];
      for (int a = 0; a < kAggs; ++a) {
        out.emplace_back(states[a].sum, states[a].count);
      }
    };
  };
  table.ForEach(collect(&want));
  restored.ForEach(collect(&got));
  EXPECT_EQ(want, got);
}

}  // namespace
}  // namespace claims
