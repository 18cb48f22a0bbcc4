#include "storage/catalog.h"

#include <gtest/gtest.h>

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

TEST(CatalogTest, EstimateDistinctLowCardinality) {
  Catalog c;
  auto t = SmallTable("t", 4, 10000);
  int64_t d = c.EstimateDistinct(*t, 0);
  EXPECT_EQ(d, 4);
}

TEST(CatalogTest, EstimateDistinctHighCardinality) {
  Catalog c;
  auto t = SmallTable("t", 10000, 10000);
  int64_t d = c.EstimateDistinct(*t, 0);
  EXPECT_NEAR(d, 10000, 500);
}

}  // namespace
}  // namespace claims
