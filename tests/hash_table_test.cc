#include "exec/hash_table.h"

#include <gtest/gtest.h>

#include "ledger_balance_check.h"
#include "mem/query_budget.h"

#include <cstring>
#include <map>
#include <set>
#include <thread>
#include <tuple>
#include <vector>

namespace claims {
namespace {

TEST(ArenaTest, AllocatesAlignedDistinct) {
  Arena arena(1024);
  char* a = arena.Allocate(10);
  char* b = arena.Allocate(10);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a, b);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(a) % 8, 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(b) % 8, 0u);
  EXPECT_GE(arena.allocated_bytes(), 32);  // two 16-byte rounded allocations
}

TEST(ArenaTest, OversizedAllocation) {
  Arena arena(64);
  char* big = arena.Allocate(1000);
  ASSERT_NE(big, nullptr);
  big[999] = 'x';  // writable end-to-end
  char* small = arena.Allocate(8);
  ASSERT_NE(small, nullptr);
}

TEST(ArenaTest, ConcurrentAllocationsDoNotOverlap) {
  Arena arena(4096);
  const int kThreads = 8;
  const int kAllocs = 500;
  std::vector<std::vector<char*>> ptrs(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kAllocs; ++i) {
        char* p = arena.Allocate(16);
        *reinterpret_cast<int64_t*>(p) = t * kAllocs + i;
        ptrs[t].push_back(p);
      }
    });
  }
  for (auto& th : threads) th.join();
  // All payloads intact → no overlapping allocations.
  std::set<char*> all;
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kAllocs; ++i) {
      EXPECT_EQ(*reinterpret_cast<int64_t*>(ptrs[t][i]), t * kAllocs + i);
      all.insert(ptrs[t][i]);
    }
  }
  EXPECT_EQ(all.size(), static_cast<size_t>(kThreads * kAllocs));
}

TEST(ArenaTest, LedgerSeesChunks) {
  QueryBudget ledger(/*budget_bytes=*/0);
  {
    Arena arena(1024, MemSource{nullptr, &ledger});
    arena.Allocate(100);
    EXPECT_GE(ledger.charged_bytes(), 1024);
  }
  EXPECT_EQ(ledger.charged_bytes(), 0);  // refunded on destruction
}

Schema TwoColSchema() {
  return Schema({ColumnDef::Int32("k"), ColumnDef::Int64("v")});
}

TEST(JoinHashTableTest, InsertAndProbe) {
  Schema schema = TwoColSchema();
  JoinHashTable table(&schema, {0}, 64);
  std::vector<char> row(schema.row_size());
  for (int i = 0; i < 100; ++i) {
    schema.SetInt32(row.data(), 0, i % 10);
    schema.SetInt64(row.data(), 1, i);
    table.Insert(row.data());
  }
  EXPECT_EQ(table.size(), 100);
  // Probe key 3: ten rows with v ≡ 3 (mod 10).
  schema.SetInt32(row.data(), 0, 3);
  int matches = 0;
  int64_t sum = 0;
  table.ForEachMatch(schema, row.data(), {0}, [&](const char* build_row) {
    ++matches;
    sum += schema.GetInt64(build_row, 1);
  });
  EXPECT_EQ(matches, 10);
  EXPECT_EQ(sum, 3 + 13 + 23 + 33 + 43 + 53 + 63 + 73 + 83 + 93);
}

TEST(JoinHashTableTest, NoMatches) {
  Schema schema = TwoColSchema();
  JoinHashTable table(&schema, {0}, 64);
  std::vector<char> row(schema.row_size());
  schema.SetInt32(row.data(), 0, 42);
  int matches = 0;
  table.ForEachMatch(schema, row.data(), {0},
                     [&](const char*) { ++matches; });
  EXPECT_EQ(matches, 0);
}

TEST(JoinHashTableTest, DifferentProbeSchema) {
  Schema build = TwoColSchema();
  Schema probe({ColumnDef::Char("pad", 7), ColumnDef::Int32("key")});
  JoinHashTable table(&build, {0}, 64);
  std::vector<char> brow(build.row_size());
  build.SetInt32(brow.data(), 0, 5);
  build.SetInt64(brow.data(), 1, 99);
  table.Insert(brow.data());
  std::vector<char> prow(probe.row_size());
  probe.SetString(prow.data(), 0, "ignored");
  probe.SetInt32(prow.data(), 1, 5);
  int matches = 0;
  table.ForEachMatch(probe, prow.data(), {1}, [&](const char* r) {
    ++matches;
    EXPECT_EQ(build.GetInt64(r, 1), 99);
  });
  EXPECT_EQ(matches, 1);
}

TEST(JoinHashTableTest, ConcurrentBuildFindsEverything) {
  Schema schema = TwoColSchema();
  JoinHashTable table(&schema, {0}, 256);
  const int kThreads = 6;
  const int kRows = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<char> row(schema.row_size());
      for (int i = 0; i < kRows; ++i) {
        schema.SetInt32(row.data(), 0, i);
        schema.SetInt64(row.data(), 1, t);
        table.Insert(row.data());
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(table.size(), kThreads * kRows);
  std::vector<char> probe(schema.row_size());
  for (int i = 0; i < kRows; i += 97) {
    schema.SetInt32(probe.data(), 0, i);
    int matches = 0;
    table.ForEachMatch(schema, probe.data(), {0},
                       [&](const char*) { ++matches; });
    EXPECT_EQ(matches, kThreads) << "key " << i;
  }
}

TEST(JoinHashTableTest, CompositeKeys) {
  Schema schema({ColumnDef::Int32("a"), ColumnDef::Int32("b"),
                 ColumnDef::Int64("v")});
  JoinHashTable table(&schema, {0, 1}, 64);
  std::vector<char> row(schema.row_size());
  schema.SetInt32(row.data(), 0, 1);
  schema.SetInt32(row.data(), 1, 2);
  schema.SetInt64(row.data(), 2, 12);
  table.Insert(row.data());
  schema.SetInt32(row.data(), 0, 2);
  schema.SetInt32(row.data(), 1, 1);
  schema.SetInt64(row.data(), 2, 21);
  table.Insert(row.data());
  // Probe (1,2): must match only the first.
  schema.SetInt32(row.data(), 0, 1);
  schema.SetInt32(row.data(), 1, 2);
  int matches = 0;
  table.ForEachMatch(schema, row.data(), {0, 1}, [&](const char* r) {
    ++matches;
    EXPECT_EQ(schema.GetInt64(r, 2), 12);
  });
  EXPECT_EQ(matches, 1);
}

TEST(AggHashTableTest, GroupAndFold) {
  Schema group({ColumnDef::Int32("g")});
  AggHashTable table(group, /*num_aggs=*/2, 64);
  std::vector<AggFn> fns = {AggFn::kSum, AggFn::kCount};
  std::vector<char> grow(group.row_size());
  for (int i = 0; i < 100; ++i) {
    group.SetInt32(grow.data(), 0, i % 4);
    double values[2] = {static_cast<double>(i), 0};
    int64_t weights[2] = {1, 1};
    table.Update(grow.data(), fns, values, weights);
  }
  EXPECT_EQ(table.size(), 4);
  std::map<int32_t, std::pair<double, int64_t>> result;
  table.ForEach([&](const char* row, const AggHashTable::AggState* states) {
    result[group.GetInt32(row, 0)] = {states[0].sum, states[1].count};
  });
  ASSERT_EQ(result.size(), 4u);
  // Group 0: 0+4+...+96 = 1200; each group has 25 members.
  EXPECT_DOUBLE_EQ(result[0].first, 1200.0);
  EXPECT_EQ(result[0].second, 25);
  EXPECT_DOUBLE_EQ(result[1].first, 1225.0);
}

TEST(AggHashTableTest, MinMax) {
  Schema group({ColumnDef::Int32("g")});
  AggHashTable table(group, 2, 16);
  std::vector<AggFn> fns = {AggFn::kMin, AggFn::kMax};
  std::vector<char> grow(group.row_size());
  group.SetInt32(grow.data(), 0, 7);
  for (double v : {5.0, -2.0, 9.0, 3.0}) {
    double values[2] = {v, v};
    int64_t weights[2] = {1, 1};
    table.Update(grow.data(), fns, values, weights);
  }
  table.ForEach([&](const char*, const AggHashTable::AggState* states) {
    EXPECT_DOUBLE_EQ(states[0].sum, -2.0);
    EXPECT_DOUBLE_EQ(states[1].sum, 9.0);
  });
}

TEST(AggHashTableTest, ConcurrentUpdatesExact) {
  Schema group({ColumnDef::Int32("g")});
  AggHashTable table(group, 2, 8);  // few buckets → heavy contention
  std::vector<AggFn> fns = {AggFn::kSum, AggFn::kCount};
  const int kThreads = 8;
  const int kUpdates = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      std::vector<char> grow(group.row_size());
      for (int i = 0; i < kUpdates; ++i) {
        group.SetInt32(grow.data(), 0, i % 3);  // 3 hot groups
        double values[2] = {1.0, 0};
        int64_t weights[2] = {1, 1};
        table.Update(grow.data(), fns, values, weights);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(table.size(), 3);
  int64_t total = 0;
  table.ForEach([&](const char*, const AggHashTable::AggState* states) {
    EXPECT_DOUBLE_EQ(states[0].sum, states[1].count * 1.0);
    total += states[1].count;
  });
  EXPECT_EQ(total, kThreads * kUpdates);
}

TEST(AggHashTableTest, CompositeGroupKeysWithStrings) {
  Schema group({ColumnDef::Char("flag", 1), ColumnDef::Char("status", 1)});
  AggHashTable table(group, 1, 16);
  std::vector<AggFn> fns = {AggFn::kCount};
  std::vector<char> grow(group.row_size());
  const char* combos[4][2] = {{"A", "F"}, {"N", "O"}, {"R", "F"}, {"N", "F"}};
  for (int rep = 0; rep < 10; ++rep) {
    for (auto& c : combos) {
      group.SetString(grow.data(), 0, c[0]);
      group.SetString(grow.data(), 1, c[1]);
      double values[1] = {0};
      int64_t weights[1] = {1};
      table.Update(grow.data(), fns, values, weights);
    }
  }
  EXPECT_EQ(table.size(), 4);
  table.ForEach([&](const char*, const AggHashTable::AggState* s) {
    EXPECT_EQ(s[0].count, 10);
  });
}

TEST(AggHashTableTest, ExclusiveFoldsGrowWithGroups) {
  Schema group({ColumnDef::Int32("g")});
  const std::vector<AggFn> fns = {AggFn::kSum};
  constexpr int32_t kGroups = 5000;
  std::vector<char> rows(static_cast<size_t>(kGroups) * group.row_size());
  std::vector<double> values(kGroups);
  for (int32_t i = 0; i < kGroups; ++i) {
    group.SetInt32(&rows[static_cast<size_t>(i) * group.row_size()], 0, i);
    values[i] = i;
  }
  std::vector<uint64_t> hashes(kGroups);
  HashRowKeysBatch(group, rows.data(), group.row_size(), {0}, nullptr,
                   kGroups, hashes.data());
  const double* args[1] = {values.data()};

  // A shared table keeps its bucket array: concurrent readers walk it.
  AggHashTable shared(group, 1, 4);
  ASSERT_TRUE(shared.UpdateBatch(rows.data(), group.row_size(), hashes.data(),
                                 kGroups, fns, args, /*exclusive=*/false));
  EXPECT_EQ(shared.bucket_count(), 4u);

  // A sole writer's table doubles until its groups fill at most half of it.
  AggHashTable table(group, 1, 4);
  for (int pass = 0; pass < 2; ++pass) {
    ASSERT_TRUE(table.UpdateBatch(rows.data(), group.row_size(),
                                  hashes.data(), kGroups, fns, args,
                                  /*exclusive=*/true));
  }
  EXPECT_EQ(table.size(), kGroups);
  EXPECT_GE(table.bucket_count(), 2u * kGroups);
  EXPECT_LT(table.bucket_count(), 4u * kGroups);
  int64_t seen = 0;
  table.ForEach([&](const char* row, const AggHashTable::AggState* states) {
    EXPECT_DOUBLE_EQ(states[0].sum, 2.0 * group.GetInt32(row, 0));
    EXPECT_EQ(states[0].count, 2);
    ++seen;
  });
  EXPECT_EQ(seen, kGroups);
}

TEST(AggHashTableTest, OneGroupKeepsOneBucket) {
  // A scalar aggregation's table: no group columns, so every row is the one
  // group, and exclusive folds never grow it.
  Schema group(std::vector<ColumnDef>{});
  AggHashTable table(group, 1, 1);
  const std::vector<AggFn> fns = {AggFn::kCount};
  const char row = 0;  // zero-width group rows, read with stride 0
  const uint64_t hashes[3] = {7, 7, 7};
  const double* args[1] = {nullptr};
  ASSERT_TRUE(table.UpdateBatch(&row, 0, hashes, 3, fns, args,
                                /*exclusive=*/true));
  EXPECT_EQ(table.size(), 1);
  EXPECT_EQ(table.bucket_count(), 1u);
}

TEST(AggHashTableTest, MergeFromFoldsPartialStates) {
  Schema group({ColumnDef::Int32("g")});
  const std::vector<AggFn> fns = {AggFn::kSum, AggFn::kMin, AggFn::kMax};
  std::vector<char> grow(group.row_size());
  const int64_t weights[3] = {1, 1, 1};
  // Two partial tables over overlapping groups 0..999 and 500..1499.
  AggHashTable left(group, 3, 1 << 10);
  AggHashTable right(group, 3, 1 << 10);
  for (int32_t g = 0; g < 1500; ++g) {
    group.SetInt32(grow.data(), 0, g);
    const double v = g;
    const double values[3] = {v, v, v};
    if (g < 1000) left.Update(grow.data(), fns, values, weights);
    if (g >= 500) {
      const double shifted[3] = {v, v - 1, v + 1};
      right.Update(grow.data(), fns, shifted, weights);
    }
  }
  // The exclusive merge grows the table; the shared one (which may run
  // beside other mergers) leaves the bucket array alone.
  AggHashTable merged(group, 3, 1);
  ASSERT_TRUE(merged.MergeFrom(left, fns, /*exclusive=*/true));
  const size_t buckets = merged.bucket_count();
  EXPECT_GE(buckets, 2000u);
  ASSERT_TRUE(merged.MergeFrom(right, fns, /*exclusive=*/false));
  EXPECT_EQ(merged.bucket_count(), buckets);
  EXPECT_EQ(merged.size(), 1500);
  merged.ForEach([&](const char* row, const AggHashTable::AggState* s) {
    const int32_t g = group.GetInt32(row, 0);
    const bool both = g >= 500 && g < 1000;
    EXPECT_DOUBLE_EQ(s[0].sum, both ? 2.0 * g : g);
    EXPECT_EQ(s[0].count, both ? 2 : 1);
    EXPECT_DOUBLE_EQ(s[1].sum, g >= 500 ? g - 1 : g);
    EXPECT_DOUBLE_EQ(s[2].sum, g >= 500 ? g + 1 : g);
  });
}

TEST(AggHashTableTest, ConcurrentSharedMergesExact) {
  // Four partial tables over the same 300 groups merge into one table at
  // once through the shared path (entry locks, no growth).
  Schema group({ColumnDef::Int32("g")});
  const std::vector<AggFn> fns = {AggFn::kSum, AggFn::kCount};
  constexpr int kThreads = 4;
  constexpr int32_t kGroups = 300;
  std::vector<std::unique_ptr<AggHashTable>> partials;
  const int64_t weights[2] = {1, 1};
  std::vector<char> grow(group.row_size());
  for (int t = 0; t < kThreads; ++t) {
    partials.push_back(std::make_unique<AggHashTable>(group, 2, 64));
    for (int32_t g = 0; g < kGroups; ++g) {
      group.SetInt32(grow.data(), 0, g);
      const double values[2] = {1.0, 0};
      for (int rep = 0; rep <= t; ++rep) {
        partials.back()->Update(grow.data(), fns, values, weights);
      }
    }
  }
  AggHashTable merged(group, 2, 1024);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      EXPECT_TRUE(merged.MergeFrom(*partials[t], fns, /*exclusive=*/false));
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(merged.size(), kGroups);
  EXPECT_EQ(merged.bucket_count(), 1024u);
  // Partial t folded each group t + 1 times: 1 + 2 + 3 + 4 = 10 rows.
  merged.ForEach([&](const char*, const AggHashTable::AggState* s) {
    EXPECT_DOUBLE_EQ(s[0].sum, 10.0);
    EXPECT_EQ(s[1].count, 10);
  });
}

TEST(AggHashTableTest, KeysCompareWhenHashesCollide) {
  // Every row carries the same hash, so each lookup walks one chain and the
  // group rows decide: integer keys compare bytewise, CHAR keys by value.
  const std::vector<AggFn> fns = {AggFn::kCount};
  const double* args[1] = {nullptr};
  Schema ints({ColumnDef::Int32("a"), ColumnDef::Int64("b"),
               ColumnDef::Date("c")});
  const int32_t a[] = {1, 1, 2, 1, 1, 2};
  const int64_t b[] = {10, 11, 10, 10, 11, 10};
  const int32_t c[] = {5, 5, 5, 5, 5, 6};
  std::vector<char> rows(6 * static_cast<size_t>(ints.row_size()));
  for (int i = 0; i < 6; ++i) {
    char* row = &rows[static_cast<size_t>(i) * ints.row_size()];
    ints.SetInt32(row, 0, a[i]);
    ints.SetInt64(row, 1, b[i]);
    ints.SetInt32(row, 2, c[i]);
  }
  const std::vector<uint64_t> same(6, 42);
  AggHashTable by_bytes(ints, 1, 8);
  ASSERT_TRUE(by_bytes.UpdateBatch(rows.data(), ints.row_size(), same.data(),
                                   6, fns, args, /*exclusive=*/true));
  std::map<std::tuple<int32_t, int64_t, int32_t>, int64_t> counts;
  by_bytes.ForEach([&](const char* row, const AggHashTable::AggState* s) {
    counts[{ints.GetInt32(row, 0), ints.GetInt64(row, 1),
            ints.GetInt32(row, 2)}] = s[0].count;
  });
  const std::map<std::tuple<int32_t, int64_t, int32_t>, int64_t> want = {
      {{1, 10, 5}, 2}, {{1, 11, 5}, 2}, {{2, 10, 5}, 1}, {{2, 10, 6}, 1}};
  EXPECT_EQ(counts, want);

  // CHAR keys equal up to their NUL padding are one group even when the
  // bytes after the terminator differ.
  Schema chars({ColumnDef::Char("s", 8)});
  std::vector<char> crow(3 * 8, 'x');
  std::memcpy(&crow[0], "ab\0xxxxx", 8);
  std::memcpy(&crow[8], "ab\0yyyyy", 8);
  std::memcpy(&crow[16], "abc\0zzzz", 8);
  AggHashTable by_value(chars, 1, 8);
  ASSERT_TRUE(by_value.UpdateBatch(crow.data(), 8, same.data(), 3, fns, args,
                                   /*exclusive=*/true));
  EXPECT_EQ(by_value.size(), 2);
}

TEST(AggHashTableTest, ForEachFollowsCreationOrder) {
  // Enough groups for several arena chunks and bucket-array doublings: the
  // walk visits every group once, in the order the groups first appeared.
  Schema group({ColumnDef::Int32("g")});
  const std::vector<AggFn> fns = {AggFn::kSum};
  constexpr int32_t kGroups = 20000;
  std::vector<int32_t> order(kGroups);
  for (int32_t i = 0; i < kGroups; ++i) order[i] = (i * 7919) % kGroups;
  std::vector<char> rows(static_cast<size_t>(kGroups) * group.row_size());
  std::vector<double> values(kGroups, 1.0);
  for (int32_t i = 0; i < kGroups; ++i) {
    group.SetInt32(&rows[static_cast<size_t>(i) * group.row_size()], 0,
                   order[i]);
  }
  std::vector<uint64_t> hashes(kGroups);
  HashRowKeysBatch(group, rows.data(), group.row_size(), {0}, nullptr,
                   kGroups, hashes.data());
  const double* args[1] = {values.data()};
  AggHashTable table(group, 1, 4);
  ASSERT_TRUE(table.UpdateBatch(rows.data(), group.row_size(), hashes.data(),
                                kGroups, fns, args, /*exclusive=*/true));
  ASSERT_GT(table.bytes(), 1 << 18);  // more than one arena chunk
  std::vector<int32_t> seen;
  table.ForEach([&](const char* row, const AggHashTable::AggState*) {
    seen.push_back(group.GetInt32(row, 0));
  });
  EXPECT_EQ(seen, order);
}

TEST(AggHashTableTest, SwapGroupsExchangesTables) {
  Schema group({ColumnDef::Int32("g")});
  const std::vector<AggFn> fns = {AggFn::kSum};
  const int64_t weights[1] = {1};
  std::vector<char> grow(group.row_size());
  AggHashTable full(group, 1, 4);
  for (int rep = 0; rep < 2; ++rep) {
    for (int32_t g = 0; g < 3000; ++g) {
      group.SetInt32(grow.data(), 0, g);
      const double v = g;
      ASSERT_TRUE(full.Update(grow.data(), fns, &v, weights));
    }
  }
  AggHashTable empty(group, 1, 1);
  const int64_t bytes = full.bytes();
  const size_t buckets = full.bucket_count();
  empty.SwapGroups(&full);
  EXPECT_EQ(full.size(), 0);
  EXPECT_EQ(full.bytes(), 0);
  EXPECT_EQ(full.bucket_count(), 1u);
  EXPECT_EQ(empty.size(), 3000);
  EXPECT_EQ(empty.bytes(), bytes);
  EXPECT_EQ(empty.bucket_count(), buckets);

  // Both tables stay usable: the swapped-in groups keep folding and growing,
  // the emptied table takes new groups.
  for (int32_t g = 2000; g < 6000; ++g) {
    group.SetInt32(grow.data(), 0, g);
    const uint64_t hash = HashRowKeys(group, grow.data(), {0});
    const double v = g;
    const double* args[1] = {&v};
    ASSERT_TRUE(empty.UpdateBatch(grow.data(), group.row_size(), &hash, 1,
                                  fns, args, /*exclusive=*/true));
    ASSERT_TRUE(full.UpdateBatch(grow.data(), group.row_size(), &hash, 1, fns,
                                 args, /*exclusive=*/true));
  }
  EXPECT_EQ(empty.size(), 6000);
  EXPECT_EQ(full.size(), 4000);
  empty.ForEach([&](const char* row, const AggHashTable::AggState* s) {
    const int32_t g = group.GetInt32(row, 0);
    const double want = (g < 3000 ? 2.0 * g : 0.0) + (g >= 2000 ? g : 0.0);
    EXPECT_DOUBLE_EQ(s[0].sum, want) << g;
  });
}

TEST(FoldAggTest, MergeWeights) {
  // Merging partial states: count_weight carries the partial count.
  AggHashTable::AggState state;
  FoldAgg(AggFn::kSum, 100.0, 7, &state);
  FoldAgg(AggFn::kSum, 50.0, 3, &state);
  EXPECT_DOUBLE_EQ(state.sum, 150.0);
  EXPECT_EQ(state.count, 10);
}

}  // namespace
}  // namespace claims
