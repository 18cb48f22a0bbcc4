#include "exec/hash_table.h"

#include <gtest/gtest.h>

#include "exec/expr/batch_expr.h"
#include "ledger_balance_check.h"
#include "mem/query_budget.h"
#include "mem/spill.h"
#include "storage/partition.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <functional>
#include <map>
#include <random>
#include <set>
#include <string>
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

TEST(AggHashTableTest, FoldsGrowWithGroups) {
  Schema group({ColumnDef::Int32("g")});
  const std::vector<AggFn> fns = {AggFn::kSum};
  constexpr int32_t kGroups = 5000;
  std::vector<char> rows(static_cast<size_t>(kGroups) * group.row_size());
  std::vector<double> values(kGroups);
  for (int32_t i = 0; i < kGroups; ++i) {
    group.SetInt32(&rows[static_cast<size_t>(i) * group.row_size()], 0, i);
    values[i] = i;
  }
  const double* args[1] = {values.data()};

  // Shared and exclusive folds alike double the slot array until the groups
  // fill at most a quarter of it.
  for (const bool exclusive : {false, true}) {
    AggHashTable table(group, 1, 4);
    std::vector<uint64_t> hashes(kGroups);
    table.HashKeys(rows.data(), group.row_size(), kGroups, hashes.data());
    for (int pass = 0; pass < 2; ++pass) {
      ASSERT_TRUE(table.UpdateBatch(rows.data(), group.row_size(),
                                    hashes.data(), kGroups, fns, args,
                                    exclusive));
    }
    EXPECT_EQ(table.size(), kGroups);
    EXPECT_GE(table.slot_count(), 4u * kGroups);
    EXPECT_LT(table.slot_count(), 8u * kGroups);
    int64_t seen = 0;
    table.ForEach([&](const char* row, const AggHashTable::AggState* states) {
      EXPECT_DOUBLE_EQ(states[0].sum, 2.0 * group.GetInt32(row, 0));
      EXPECT_EQ(states[0].count, 2);
      ++seen;
    });
    EXPECT_EQ(seen, kGroups);
  }
}

TEST(AggHashTableTest, OneGroupKeepsFourSlots) {
  // A scalar aggregation's table: no group columns, so every row is the one
  // group, which four slots hold at most a quarter full.
  Schema group(std::vector<ColumnDef>{});
  AggHashTable table(group, 1, 1);
  EXPECT_EQ(table.slot_count(), 4u);
  const std::vector<AggFn> fns = {AggFn::kCount};
  char row = 0;  // zero-width group rows, read with stride 0
  uint64_t hashes[3];
  table.HashKeys(&row, 0, 3, hashes);
  const double* args[1] = {nullptr};
  ASSERT_TRUE(table.UpdateBatch(&row, 0, hashes, 3, fns, args,
                                /*exclusive=*/true));
  EXPECT_EQ(table.size(), 1);
  EXPECT_EQ(table.slot_count(), 4u);
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
  // Exclusive and shared merges both grow the table.
  AggHashTable merged(group, 3, 1);
  ASSERT_TRUE(merged.MergeFrom(left, fns, /*exclusive=*/true));
  EXPECT_GE(merged.slot_count(), 4000u);
  ASSERT_TRUE(merged.MergeFrom(right, fns, /*exclusive=*/false));
  EXPECT_GE(merged.slot_count(), 6000u);
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
  // once through the shared path (entry locks; 2048 slots need no growth).
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
  AggHashTable merged(group, 2, 2048);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      EXPECT_TRUE(merged.MergeFrom(*partials[t], fns, /*exclusive=*/false));
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(merged.size(), kGroups);
  EXPECT_EQ(merged.slot_count(), 2048u);
  // Partial t folded each group t + 1 times: 1 + 2 + 3 + 4 = 10 rows.
  merged.ForEach([&](const char*, const AggHashTable::AggState* s) {
    EXPECT_DOUBLE_EQ(s[0].sum, 10.0);
    EXPECT_EQ(s[1].count, 10);
  });
}

TEST(AggHashTableTest, KeysCompareWhenHashesCollide) {
  // Every row carries the same hash, so each lookup probes one run of slots
  // with one tag and the group rows decide: integer and CHAR keys compare
  // bytewise, FLOAT64 keys by value. The tables start with room for every
  // group: a Grow would rehash them with the table's own key hash.
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
  AggHashTable by_bytes(ints, 1, 64);
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

  // CHAR keys as every writer stores them, NUL-padded to the width: "ab" and
  // "abc" are two groups, a prefix does not match a longer key.
  Schema chars({ColumnDef::Char("s", 8)});
  std::vector<char> crow(4 * 8);
  for (int i = 0; i < 4; ++i) {
    chars.SetString(&crow[static_cast<size_t>(i) * 8], 0,
                    i % 2 == 0 ? "ab" : "abc");
  }
  AggHashTable by_char(chars, 1, 64);
  ASSERT_TRUE(by_char.UpdateBatch(crow.data(), 8, same.data(), 4, fns, args,
                                  /*exclusive=*/true));
  EXPECT_EQ(by_char.size(), 2);

  // FLOAT64 keys compare by value: -0.0 and 0.0 are one group.
  Schema floats({ColumnDef::Float64("f")});
  double f[] = {0.0, -0.0, 1.5, -0.0};
  AggHashTable by_value(floats, 1, 64);
  ASSERT_TRUE(by_value.UpdateBatch(reinterpret_cast<char*>(f), 8,
                                   same.data(), 4, fns, args,
                                   /*exclusive=*/true));
  EXPECT_EQ(by_value.size(), 2);
}

TEST(AggHashTableTest, ForEachFollowsCreationOrder) {
  // Enough groups for several arena chunks and slot-array doublings: the
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
  const double* args[1] = {values.data()};
  AggHashTable table(group, 1, 4);
  std::vector<uint64_t> hashes(kGroups);
  table.HashKeys(rows.data(), group.row_size(), kGroups, hashes.data());
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
  const size_t slots = full.slot_count();
  empty.SwapGroups(&full);
  EXPECT_EQ(full.size(), 0);
  EXPECT_EQ(full.bytes(), 0);
  EXPECT_EQ(full.slot_count(), 4u);
  EXPECT_EQ(empty.size(), 3000);
  EXPECT_EQ(empty.bytes(), bytes);
  EXPECT_EQ(empty.slot_count(), slots);

  // Both tables stay usable: the swapped-in groups keep folding and growing,
  // the emptied table takes new groups.
  for (int32_t g = 2000; g < 6000; ++g) {
    group.SetInt32(grow.data(), 0, g);
    uint64_t hash;
    empty.HashKeys(grow.data(), group.row_size(), 1, &hash);
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

TEST(JoinHashTableTest, NegativeZeroProbeMatchesZero) {
  // FLOAT64 keys compare by value, so they must hash by value too.
  Schema schema({ColumnDef::Float64("f"), ColumnDef::Int64("v")});
  JoinHashTable table(&schema, {0}, 64);
  std::vector<char> row(schema.row_size());
  schema.SetFloat64(row.data(), 0, 0.0);
  schema.SetInt64(row.data(), 1, 7);
  ASSERT_TRUE(table.Insert(row.data()));
  schema.SetFloat64(row.data(), 0, -0.0);
  int matches = 0;
  table.ForEachMatch(schema, row.data(), {0}, [&](const char* build_row) {
    ++matches;
    EXPECT_EQ(schema.GetInt64(build_row, 1), 7);
  });
  EXPECT_EQ(matches, 1);
}

TEST(SlotTableTest, KeysOfOneNodeSpreadOverHomeSlots) {
  // Routing sends key k to node hash % 2, so every key node 0 receives has
  // an even hash. Its tables take the home slot from higher bits, so those
  // keys still start their probes in odd and even slots alike.
  Schema key({ColumnDef::Int32("k")});
  AggHashTable table(key, 1, 1 << 12);
  constexpr int32_t kKeys = 20000;
  std::vector<char> rows(static_cast<size_t>(kKeys) * key.row_size());
  for (int32_t k = 0; k < kKeys; ++k) {
    key.SetInt32(&rows[static_cast<size_t>(k) * key.row_size()], 0, k);
  }
  std::vector<uint64_t> hashes(kKeys);
  table.HashKeys(rows.data(), key.row_size(), kKeys, hashes.data());
  int64_t node0 = 0;
  int64_t odd = 0;
  for (const uint64_t hash : hashes) {
    if (PartitionOf(hash, 2) != 0) continue;
    ++node0;
    odd += table.HomeOf(hash) % 2;
  }
  ASSERT_GT(node0, kKeys / 3);
  EXPECT_GE(odd, node0 * 4 / 10);
  EXPECT_LE(odd, node0 * 6 / 10);
}

// --- Differential test of the aggregation table ------------------------------

/// One key shape of the differential test: the group schema and a writer of
/// the k-th of a few hundred distinct keys (some spelled two ways, as -0.0
/// and 0.0 are).
struct KeyShape {
  std::string name;
  Schema schema;
  std::function<void(const Schema&, char*, int, std::mt19937*)> write;
};

std::vector<KeyShape> KeyShapes() {
  std::vector<KeyShape> shapes;
  shapes.push_back({"Int32", Schema({ColumnDef::Int32("k")}),
                    [](const Schema& s, char* row, int k, std::mt19937*) {
                      s.SetInt32(row, 0, k * 7919 - 1000000);
                    }});
  shapes.push_back({"Int64Date",
                    Schema({ColumnDef::Int64("k"), ColumnDef::Date("d")}),
                    [](const Schema& s, char* row, int k, std::mt19937*) {
                      s.SetInt64(row, 0, (int64_t{k % 17} << 40) - k);
                      s.SetInt32(row, 1, 9000 + k / 17);
                    }});
  shapes.push_back({"TwoChar1",
                    Schema({ColumnDef::Char("rf", 1),
                            ColumnDef::Char("ls", 1)}),
                    [](const Schema& s, char* row, int k, std::mt19937*) {
                      const char rf[2] = {static_cast<char>('A' + k % 26), 0};
                      const char ls[2] = {static_cast<char>('a' + k / 26 % 11),
                                          0};
                      s.SetString(row, 0, rf);
                      s.SetString(row, 1, ls);
                    }});
  shapes.push_back({"Char25Int32",
                    Schema({ColumnDef::Char("n_name", 25),
                            ColumnDef::Int32("year")}),
                    [](const Schema& s, char* row, int k, std::mt19937*) {
                      // Names of different lengths, one a prefix of another.
                      s.SetString(row, 0, std::string(1 + k % 25, 'N'));
                      s.SetInt32(row, 1, 1992 + k / 25);
                    }});
  shapes.push_back({"Float64",
                    Schema({ColumnDef::Float64("f"), ColumnDef::Int32("i")}),
                    [](const Schema& s, char* row, int k, std::mt19937* rng) {
                      // Key 0 is 0.0 or -0.0 at random: one group.
                      const double f = k % 40 == 0 ? 0.0 : (k % 40) * 0.25 - 5;
                      s.SetFloat64(row, 0, f == 0 && (*rng)() % 2 ? -0.0 : f);
                      s.SetInt32(row, 1, k / 40);
                    }});
  return shapes;
}

/// The reference state of one group: every AggFn over the group's values.
struct RefGroup {
  int64_t rows = 0;
  double sum = 0;
  double min = 0;
  double max = 0;
};

/// Canonical form of a group row for the reference map: the row bytes with
/// every FLOAT64 -0.0 written as 0.0.
std::string CanonicalKey(const Schema& schema, const char* row) {
  std::string key(row, static_cast<size_t>(schema.row_size()));
  for (int c = 0; c < schema.num_columns(); ++c) {
    if (schema.column(c).type == DataType::kFloat64 &&
        schema.GetFloat64(row, c) == 0.0) {
      const double zero = 0.0;
      std::memcpy(&key[static_cast<size_t>(schema.offset(c))], &zero, 8);
    }
  }
  return key;
}

/// Rows of one random batch: packed group rows plus one value per row.
struct Batch {
  std::vector<char> rows;
  std::vector<double> values;
  int32_t n = 0;
};

class AggTableDifferentialTest : public ::testing::TestWithParam<int> {
 protected:
  /// Every AggFn once, in the order the states are checked.
  const std::vector<AggFn> fns_ = {AggFn::kCount, AggFn::kSum, AggFn::kAvg,
                                   AggFn::kMin, AggFn::kMax};

  void SetUp() override {
    shape_ = KeyShapes()[static_cast<size_t>(GetParam())];
    std::mt19937 rng(1234 + GetParam());
    const int32_t stride = shape_.schema.row_size();
    for (int b = 0; b < 12; ++b) {
      Batch batch;
      batch.n = 1 + static_cast<int32_t>(rng() % 700);
      batch.rows.resize(static_cast<size_t>(batch.n) * stride + 1);
      for (int32_t i = 0; i < batch.n; ++i) {
        // Skewed: low keys are hot, up to 400 distinct keys.
        const int k = static_cast<int>(rng() % 20 * (rng() % 20));
        char* row = &batch.rows[static_cast<size_t>(i) * stride];
        shape_.write(shape_.schema, row, k, &rng);
        // Integral values: every fold order sums them exactly.
        const double v = static_cast<double>(static_cast<int>(rng() % 2001)) -
                         1000;
        batch.values.push_back(v);
        RefGroup& g = want_[CanonicalKey(shape_.schema, row)];
        if (g.rows == 0 || v < g.min) g.min = v;
        if (g.rows == 0 || v > g.max) g.max = v;
        g.sum += v;
        ++g.rows;
      }
      batches_.push_back(std::move(batch));
    }
  }

  /// Folds `batch` into `table` in two UpdateBatch calls split at a random
  /// row, as a spill resume would.
  void Fold(const Batch& batch, bool exclusive, AggHashTable* table) {
    std::vector<char> rows = batch.rows;  // UpdateBatch canonicalizes them
    const int32_t stride = shape_.schema.row_size();
    std::vector<uint64_t> hashes(static_cast<size_t>(batch.n));
    table->HashKeys(batch.rows.data(), stride, batch.n, hashes.data());
    const int32_t cut = batch.n / 3;
    for (const auto& [begin, end] : {std::pair{0, cut}, {cut, batch.n}}) {
      std::vector<const double*> args(fns_.size(),
                                      batch.values.data() + begin);
      args[0] = nullptr;  // COUNT(*)
      int32_t folded = -1;
      ASSERT_TRUE(table->UpdateBatch(
          rows.data() + static_cast<size_t>(begin) * stride, stride,
          hashes.data() + begin, end - begin, fns_, args.data(), exclusive,
          &folded));
      EXPECT_EQ(folded, end - begin);
    }
  }

  std::unique_ptr<AggHashTable> NewTable() const {
    return std::make_unique<AggHashTable>(shape_.schema, 5, 1);
  }

  /// Checks every group of `table` against the reference.
  void Expect(const AggHashTable& table, const std::string& path) const {
    SCOPED_TRACE(shape_.name + ", " + path);
    EXPECT_EQ(table.size(), static_cast<int64_t>(want_.size()));
    int64_t seen = 0;
    std::set<std::string> keys;
    table.ForEach([&](const char* row, const AggHashTable::AggState* s) {
      ++seen;
      const std::string key = CanonicalKey(shape_.schema, row);
      EXPECT_TRUE(keys.insert(key).second) << "group listed twice";
      auto it = want_.find(key);
      ASSERT_NE(it, want_.end()) << "group not in the input";
      const RefGroup& g = it->second;
      EXPECT_EQ(s[0].count, g.rows);
      EXPECT_EQ(s[1].sum, g.sum);
      EXPECT_EQ(s[1].count, g.rows);
      EXPECT_EQ(s[2].sum, g.sum);
      EXPECT_EQ(s[2].count, g.rows);
      EXPECT_EQ(s[3].sum, g.min);
      EXPECT_EQ(s[4].sum, g.max);
    });
    EXPECT_EQ(seen, table.size());
  }

  KeyShape shape_;
  std::vector<Batch> batches_;
  std::map<std::string, RefGroup> want_;
};

TEST_P(AggTableDifferentialTest, ExclusiveAndSharedFoldsGrowFromOneSlot) {
  for (const bool exclusive : {true, false}) {
    auto table = NewTable();
    for (const Batch& b : batches_) Fold(b, exclusive, table.get());
    Expect(*table, exclusive ? "exclusive fold" : "shared fold");
    EXPECT_GE(table->slot_count(), 4 * want_.size());
  }
}

TEST_P(AggTableDifferentialTest, HybridFlushesMergeBothWays) {
  // A worker folds privately and flushes every third batch into the global
  // table, as kHybrid does: the first flush swaps into the empty global
  // table, later ones merge, alternately shared and exclusive.
  auto global = NewTable();
  auto priv = NewTable();
  int flushes = 0;
  for (size_t b = 0; b < batches_.size(); ++b) {
    Fold(batches_[b], /*exclusive=*/true, priv.get());
    if (b % 3 != 2 && b + 1 != batches_.size()) continue;
    if (global->size() == 0) {
      global->SwapGroups(priv.get());
    } else {
      ASSERT_TRUE(global->MergeFrom(*priv, fns_, /*exclusive=*/flushes % 2));
    }
    ++flushes;
    priv = NewTable();
  }
  Expect(*global, "hybrid flush");
}

TEST_P(AggTableDifferentialTest, SpillRoundTripsThroughARun) {
  // Half the batches fold into a table that is spilled and replaced, the
  // rest into its successor; the run merges back into the successor.
  auto table = NewTable();
  auto run = SpillRun::Create();
  ASSERT_NE(run, nullptr);
  for (size_t b = 0; b < batches_.size(); ++b) {
    if (b == batches_.size() / 2) {
      ASSERT_TRUE(table->SerializeTo(run.get()).ok());
      table = NewTable();
    }
    Fold(batches_[b], /*exclusive=*/true, table.get());
  }
  ASSERT_TRUE(run->Finish().ok());
  std::vector<char> bytes;
  ASSERT_TRUE(run->ReadAll(&bytes).ok());
  ASSERT_TRUE(
      AggHashTable::MergeSerialized(bytes.data(), bytes.size(), fns_,
                                    table.get())
          .ok());
  Expect(*table, "spill round trip");
}

INSTANTIATE_TEST_SUITE_P(KeyShapes, AggTableDifferentialTest,
                         ::testing::Range(0, 5),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return KeyShapes()[static_cast<size_t>(info.param)]
                               .name;
                         });

// --- Differential test of the join table -------------------------------------

/// One key shape of the join differential test. Each side's schema holds its
/// key columns first, then an INT64 row id; `write` stores the k-th of a few
/// thousand distinct keys into a row of either side, by the side's column
/// types (a FLOAT64 0.0 is spelled 0.0 or -0.0 at random).
struct JoinShape {
  std::string name;
  Schema build;
  Schema probe;
  int key_cols;
  int rows_per_key;
  std::function<void(const Schema&, char*, int, std::mt19937*)> write;
};

void WriteIntKey(const Schema& s, char* row, int k, std::mt19937*) {
  const int64_t v = int64_t{k} * 7919 - 1000000;
  if (s.column(0).type == DataType::kInt64) {
    s.SetInt64(row, 0, v);
  } else {
    s.SetInt32(row, 0, static_cast<int32_t>(v));
  }
}

std::vector<JoinShape> JoinShapes() {
  const auto kv = [](ColumnDef key) {
    return Schema({std::move(key), ColumnDef::Int64("id")});
  };
  std::vector<JoinShape> shapes;
  shapes.push_back({"Int32Unique", kv(ColumnDef::Int32("k")),
                    kv(ColumnDef::Int32("k")), 1, 1, WriteIntKey});
  shapes.push_back({"Int32FourPerKey", kv(ColumnDef::Int32("k")),
                    kv(ColumnDef::Int32("k")), 1, 4, WriteIntKey});
  const Schema int64_date({ColumnDef::Int64("k"), ColumnDef::Date("d"),
                           ColumnDef::Int64("id")});
  shapes.push_back({"Int64Date", int64_date, int64_date, 2, 2,
                    [](const Schema& s, char* row, int k, std::mt19937*) {
                      s.SetInt64(row, 0, (int64_t{k % 17} << 40) - k);
                      s.SetInt32(row, 1, 9000 + k / 17);
                    }});
  const Schema char_int({ColumnDef::Char("n_name", 25), ColumnDef::Int32("y"),
                         ColumnDef::Int64("id")});
  shapes.push_back({"Char25Int32", char_int, char_int, 2, 2,
                    [](const Schema& s, char* row, int k, std::mt19937*) {
                      // Names of different lengths, one a prefix of another.
                      s.SetString(row, 0, std::string(1 + k % 25, 'N'));
                      s.SetInt32(row, 1, 1992 + k / 25);
                    }});
  const Schema float_int({ColumnDef::Float64("f"), ColumnDef::Int32("i"),
                          ColumnDef::Int64("id")});
  shapes.push_back({"Float64", float_int, float_int, 2, 2,
                    [](const Schema& s, char* row, int k, std::mt19937* rng) {
                      // Only k % 40 == 0 writes a zero.
                      const double f =
                          k % 40 == 0 ? 0.0 : (k % 40) * 0.25 - 5.125;
                      s.SetFloat64(row, 0, f == 0 && (*rng)() % 2 ? -0.0 : f);
                      s.SetInt32(row, 1, k / 40);
                    }});
  shapes.push_back({"Int32ProbeIntoInt64", kv(ColumnDef::Int64("k")),
                    kv(ColumnDef::Int32("k")), 1, 2, WriteIntKey});
  return shapes;
}

class JoinTableDifferentialTest : public ::testing::TestWithParam<int> {
 protected:
  static constexpr int kKeys = 3000;

  void SetUp() override {
    shape_ = JoinShapes()[static_cast<size_t>(GetParam())];
    std::mt19937 rng(4321 + GetParam());
    std::vector<int> build_keys;
    for (int k = 0; k < kKeys; ++k) {
      for (int r = 0; r < shape_.rows_per_key; ++r) build_keys.push_back(k);
    }
    std::shuffle(build_keys.begin(), build_keys.end(), rng);
    build_blocks_ = Blocks(shape_.build, build_keys, &rng);
    for (size_t id = 0; id < build_keys.size(); ++id) {
      want_.emplace(build_keys[id], static_cast<int64_t>(id));
    }
    // A third of the probe keys miss.
    std::vector<int> probe_keys(4000);
    for (int& k : probe_keys) k = static_cast<int>(rng() % (kKeys * 3 / 2));
    probe_keys_ = probe_keys;
    probe_blocks_ = Blocks(shape_.probe, probe_keys, &rng);
    for (int c = 0; c < shape_.key_cols; ++c) {
      key_cols_.push_back(c);
      build_gather_.push_back(BatchCompute::Compile(
          shape_.build, MakeColumnRef(c, shape_.build.column(c).type)));
      probe_gather_.push_back(BatchCompute::Compile(
          shape_.probe, MakeColumnRef(c, shape_.probe.column(c).type)));
    }
  }

  /// Rows of `schema` for `keys`, row i with id i, in blocks of 1 to 300
  /// rows.
  std::vector<BlockPtr> Blocks(const Schema& schema,
                               const std::vector<int>& keys,
                               std::mt19937* rng) const {
    std::vector<BlockPtr> blocks;
    const int id_col = schema.num_columns() - 1;
    for (size_t i = 0; i < keys.size();) {
      auto block = MakeBlock(schema.row_size());
      const size_t n = std::min(keys.size() - i, size_t{1} + (*rng)() % 300);
      for (size_t end = i + n; i < end; ++i) {
        char* row = block->AppendRow();
        shape_.write(schema, row, keys[i], rng);
        schema.SetInt64(row, id_col, static_cast<int64_t>(i));
      }
      blocks.push_back(std::move(block));
    }
    return blocks;
  }

  std::unique_ptr<JoinHashTable> NewTable(MemSource source = {}) const {
    // The smallest table: every build grows it.
    return std::make_unique<JoinHashTable>(
        &shape_.build, key_cols_,
        JoinHashTable::KeySchema(shape_.build, key_cols_, shape_.probe,
                                 key_cols_),
        0, source);
  }

  /// Inserts every build block, gathered as the join operator does, from
  /// `threads` threads taking blocks off one cursor.
  void Build(JoinHashTable* table, int threads) const {
    std::atomic<size_t> next{0};
    auto worker = [&] {
      for (size_t b; (b = next.fetch_add(1)) < build_blocks_.size();) {
        const Block& block = *build_blocks_[b];
        const int32_t n = block.num_rows();
        std::vector<char> keys(static_cast<size_t>(n) *
                               table->key_schema().row_size());
        MaterializeRows(build_gather_, block, n, table->key_schema(),
                        keys.data());
        EXPECT_TRUE(table->InsertBatch(keys.data(), block.RowAt(0),
                                       block.row_size(), n));
      }
    };
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) pool.emplace_back(worker);
    for (auto& th : pool) th.join();
  }

  /// The build ids a probe row of logical key `k` must match, sorted.
  std::vector<int64_t> Want(int k) const {
    std::vector<int64_t> ids;
    for (auto [it, end] = want_.equal_range(k); it != end; ++it) {
      ids.push_back(it->second);
    }
    return ids;
  }

  /// The id of a matched build row, after checking the table copied it
  /// whole.
  int64_t BuildId(const char* build_row) const {
    const int32_t size = shape_.build.row_size();
    const int64_t id = shape_.build.GetInt64(build_row, shape_.key_cols);
    int64_t seen = 0;
    for (const BlockPtr& b : build_blocks_) {
      if (id < seen + b->num_rows()) {
        const char* original = b->RowAt(static_cast<int32_t>(id - seen));
        EXPECT_EQ(std::memcmp(build_row, original, static_cast<size_t>(size)),
                  0);
        break;
      }
      seen += b->num_rows();
    }
    return id;
  }

  /// Probes every probe row through the batch and the row-at-a-time paths
  /// and checks each against the reference multimap.
  void Expect(const JoinHashTable& table, const std::string& path) const {
    SCOPED_TRACE(shape_.name + ", " + path);
    EXPECT_EQ(table.size(), static_cast<int64_t>(want_.size()));
    EXPECT_EQ(table.key_count(), kKeys);
    EXPECT_LE(4 * static_cast<size_t>(table.key_count()), table.slot_count());
    size_t probe_id = 0;
    for (const BlockPtr& b : probe_blocks_) {
      const int32_t n = b->num_rows();
      std::vector<char> keys(static_cast<size_t>(n) *
                             table.key_schema().row_size());
      MaterializeRows(probe_gather_, *b, n, table.key_schema(), keys.data());
      std::vector<std::vector<int64_t>> got(static_cast<size_t>(n));
      int32_t last = 0;
      table.ForEachMatchBatch(keys.data(), n, [&](int32_t i, const char* row) {
        EXPECT_GE(i, last) << "rows out of order";
        last = i;
        got[static_cast<size_t>(i)].push_back(BuildId(row));
      });
      for (int32_t i = 0; i < n; ++i, ++probe_id) {
        std::vector<int64_t> row_path;
        table.ForEachMatch(shape_.probe, b->RowAt(i), key_cols_,
                           [&](const char* row) {
                             row_path.push_back(BuildId(row));
                           });
        const std::vector<int64_t> want = Want(probe_keys_[probe_id]);
        std::sort(got[static_cast<size_t>(i)].begin(),
                  got[static_cast<size_t>(i)].end());
        std::sort(row_path.begin(), row_path.end());
        ASSERT_EQ(got[static_cast<size_t>(i)], want) << "probe " << probe_id;
        ASSERT_EQ(row_path, want) << "probe " << probe_id;
      }
    }
  }

  JoinShape shape_;
  std::vector<int> key_cols_;
  std::vector<std::unique_ptr<BatchCompute>> build_gather_;
  std::vector<std::unique_ptr<BatchCompute>> probe_gather_;
  std::vector<BlockPtr> build_blocks_;
  std::vector<BlockPtr> probe_blocks_;
  std::vector<int> probe_keys_;
  std::multimap<int, int64_t> want_;
};

TEST_P(JoinTableDifferentialTest, ExclusiveBuildGrowsFromTheSmallestTable) {
  auto table = NewTable();
  Build(table.get(), 1);
  Expect(*table, "exclusive build");
}

TEST_P(JoinTableDifferentialTest, SharedBuildGrowsFromTheSmallestTable) {
  auto table = NewTable();
  Build(table.get(), 3);
  Expect(*table, "3-thread shared build");
}

INSTANTIATE_TEST_SUITE_P(KeyShapes, JoinTableDifferentialTest,
                         ::testing::Range(0, 6),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return JoinShapes()[static_cast<size_t>(info.param)]
                               .name;
                         });

TEST(JoinHashTableTest, LedgerRefusalMidBuildRefundsEveryChunk) {
  // Three threads build into a table whose ledger holds two arena chunks.
  // Each stops at its first refused batch; the table's destruction hands
  // every charged byte back.
  Schema schema = TwoColSchema();
  QueryBudget ledger(2 << 18);
  {
    JoinHashTable table(&schema, {0}, 0, MemSource{nullptr, &ledger});
    std::atomic<int> refused{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 3; ++t) {
      threads.emplace_back([&, t] {
        constexpr int32_t kBatch = 256;
        std::vector<char> rows(static_cast<size_t>(kBatch) * schema.row_size());
        std::vector<char> keys(static_cast<size_t>(kBatch) * 4);
        for (int32_t batch = 0; batch < 200; ++batch) {
          for (int32_t i = 0; i < kBatch; ++i) {
            const int32_t k = (batch * 3 + t) * kBatch + i;
            char* row = &rows[static_cast<size_t>(i) * schema.row_size()];
            schema.SetInt32(row, 0, k);
            std::memcpy(&keys[static_cast<size_t>(i) * 4], &k, 4);
          }
          if (!table.InsertBatch(keys.data(), rows.data(), schema.row_size(),
                                 kBatch)) {
            refused.fetch_add(1);
            return;
          }
        }
      });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(refused.load(), 3);
    EXPECT_GT(table.size(), 0);
    EXPECT_LE(table.bytes(), ledger.charged_bytes());
    EXPECT_LE(ledger.charged_bytes(), 2 << 18);
  }
  EXPECT_EQ(ledger.charged_bytes(), 0);
}

TEST(AggHashTableTest, ConcurrentSharedInsertsGrowExactly) {
  // Four threads fold overlapping ranges of 30 000 groups into one shared
  // table that starts at 4 slots: the table grows under its lock while the
  // others insert, every count comes out exact, and the arena holds exactly
  // size() entries (a racer that lost a slot left no orphan behind).
  Schema group({ColumnDef::Int32("g")});
  const std::vector<AggFn> fns = {AggFn::kCount, AggFn::kSum};
  constexpr int kThreads = 4;
  constexpr int32_t kPerThread = 15000;
  constexpr int32_t kShift = 5000;
  AggHashTable table(group, 2, 4);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      constexpr int32_t kBatch = 256;
      std::vector<char> rows(static_cast<size_t>(kBatch) * group.row_size());
      std::vector<double> values(kBatch, 1.0);
      std::vector<uint64_t> hashes(kBatch);
      const double* args[2] = {nullptr, values.data()};
      for (int32_t begin = 0; begin < kPerThread; begin += kBatch) {
        const int32_t n = std::min(kBatch, kPerThread - begin);
        for (int32_t i = 0; i < n; ++i) {
          group.SetInt32(&rows[static_cast<size_t>(i) * group.row_size()], 0,
                         t * kShift + begin + i);
        }
        table.HashKeys(rows.data(), group.row_size(), n, hashes.data());
        ASSERT_TRUE(table.UpdateBatch(rows.data(), group.row_size(),
                                      hashes.data(), n, fns, args,
                                      /*exclusive=*/false));
        // And one row-at-a-time update per batch, through Update.
        const double value[2] = {0, 1.0};
        const int64_t weights[2] = {1, 1};
        ASSERT_TRUE(table.Update(rows.data(), fns, value, weights));
      }
    });
  }
  for (auto& th : threads) th.join();
  constexpr int32_t kGroups = (kThreads - 1) * kShift + kPerThread;
  EXPECT_EQ(table.size(), kGroups);
  EXPECT_GE(table.slot_count(), 4u * kGroups);
  std::vector<int64_t> counts(kGroups, 0);
  int64_t seen = 0;
  table.ForEach([&](const char* row, const AggHashTable::AggState* s) {
    const int32_t g = group.GetInt32(row, 0);
    ASSERT_GE(g, 0);
    ASSERT_LT(g, kGroups);
    counts[static_cast<size_t>(g)] = s[0].count;
    EXPECT_DOUBLE_EQ(s[1].sum, static_cast<double>(s[1].count));
    ++seen;
  });
  EXPECT_EQ(seen, table.size());
  for (int32_t g = 0; g < kGroups; ++g) {
    // Threads t with t * kShift <= g < t * kShift + kPerThread fold g once,
    // plus once more for each batch it opened.
    int64_t want = 0;
    for (int t = 0; t < kThreads; ++t) {
      const int32_t local = g - t * kShift;
      if (local < 0 || local >= kPerThread) continue;
      want += 1 + (local % 256 == 0 ? 1 : 0);
    }
    ASSERT_EQ(counts[static_cast<size_t>(g)], want) << "group " << g;
  }
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
