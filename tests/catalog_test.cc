#include "storage/catalog.h"

#include <gtest/gtest.h>

#include <thread>

namespace claims {
namespace {

TablePtr SmallTable(const std::string& name, int distinct_keys, int rows) {
  Schema s({ColumnDef::Int32("k"), ColumnDef::Int64("v")});
  auto t = std::make_shared<Table>(name, s, 1, std::vector<int>{0});
  for (int i = 0; i < rows; ++i) {
    t->AppendValues({Value::Int32(i % distinct_keys), Value::Int64(i)});
  }
  return t;
}

TEST(CatalogTest, RegisterAndLookup) {
  Catalog c;
  ASSERT_TRUE(c.RegisterTable(SmallTable("Orders", 5, 10)).ok());
  EXPECT_TRUE(c.HasTable("orders"));
  EXPECT_TRUE(c.HasTable("ORDERS"));
  auto r = c.GetTable("oRdErS");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->num_rows(), 10);
  EXPECT_FALSE(c.GetTable("nope").ok());
}

TEST(CatalogTest, DuplicateRejected) {
  Catalog c;
  ASSERT_TRUE(c.RegisterTable(SmallTable("t", 5, 1)).ok());
  EXPECT_EQ(c.RegisterTable(SmallTable("T", 5, 1)).code(),
            StatusCode::kAlreadyExists);
}

TEST(CatalogTest, TableNamesSorted) {
  Catalog c;
  ASSERT_TRUE(c.RegisterTable(SmallTable("bbb", 2, 1)).ok());
  ASSERT_TRUE(c.RegisterTable(SmallTable("aaa", 2, 1)).ok());
  auto names = c.TableNames();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "aaa");
  EXPECT_EQ(names[1], "bbb");
}

TEST(CatalogTest, DistinctCountLowCardinality) {
  Catalog c;
  auto t = SmallTable("t", 4, 10000);
  ASSERT_TRUE(c.RegisterTable(t).ok());
  EXPECT_EQ(c.DistinctCount(*t, 0), 4);
  EXPECT_EQ(c.DistinctCount(*t, 1), 10000);
}

TEST(CatalogTest, DistinctCountHighCardinality) {
  Catalog c;
  auto t = SmallTable("t", 10000, 10000);
  ASSERT_TRUE(c.RegisterTable(t).ok());
  EXPECT_EQ(c.DistinctCount(*t, 0), 10000);
}

TEST(CatalogTest, DistinctCountSpansEveryPartition) {
  // Hash-partitioned on k: each partition holds about a quarter of the keys,
  // so a count over any one partition's prefix would undercount.
  Schema s({ColumnDef::Int64("k"), ColumnDef::Char("tag", 8)});
  auto t = std::make_shared<Table>("p", s, 4, std::vector<int>{0});
  for (int i = 0; i < 8000; ++i) {
    t->AppendValues({Value::Int64(i % 2000),
                     Value::String(i % 3 == 0 ? "a" : "bb")});
  }
  Catalog c;
  ASSERT_TRUE(c.RegisterTable(t).ok());
  EXPECT_EQ(c.DistinctCount(*t, 0), 2000);
  EXPECT_EQ(c.DistinctCount(*t, 1), 2);
}

TEST(CatalogTest, DistinctCountIsMemoizedForRegisteredTables) {
  Catalog c;
  auto t = SmallTable("t", 4, 100);
  ASSERT_TRUE(c.RegisterTable(t).ok());
  EXPECT_EQ(c.DistinctCount(*t, 0), 4);
  // A second call returns the first count without rescanning, so a row
  // appended in between does not show...
  t->AppendValues({Value::Int32(99), Value::Int64(0)});
  EXPECT_EQ(c.DistinctCount(*t, 0), 4);
  // ...while a table the catalog does not hold is counted on every call.
  auto loose = SmallTable("t", 4, 100);
  EXPECT_EQ(c.DistinctCount(*loose, 0), 4);
  loose->AppendValues({Value::Int32(99), Value::Int64(0)});
  EXPECT_EQ(c.DistinctCount(*loose, 0), 5);
}

TEST(CatalogTest, DistinctCountFromConcurrentCallers) {
  Catalog c;
  auto t = SmallTable("t", 7, 5000);
  ASSERT_TRUE(c.RegisterTable(t).ok());
  std::vector<std::thread> threads;
  std::vector<int64_t> seen(8, 0);
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([&, i] { seen[i] = c.DistinctCount(*t, i % 2); });
  }
  for (std::thread& th : threads) th.join();
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(seen[i], i % 2 == 0 ? 7 : 5000) << i;
  }
}

}  // namespace
}  // namespace claims
