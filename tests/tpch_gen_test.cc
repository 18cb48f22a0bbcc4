#include "storage/datagen/tpch_gen.h"

#include <gtest/gtest.h>

#include <set>

namespace claims {
namespace {

class TpchGenTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog_ = new Catalog;
    TpchConfig config;
    config.scale_factor = 0.002;  // tiny but fully populated
    config.num_partitions = 3;
    ASSERT_TRUE(GenerateTpch(config, catalog_).ok());
  }
  static void TearDownTestSuite() {
    delete catalog_;
    catalog_ = nullptr;
  }
  static Catalog* catalog_;
};

Catalog* TpchGenTest::catalog_ = nullptr;

TEST_F(TpchGenTest, AllTablesPresent) {
  for (const char* name : {"region", "nation", "supplier", "customer", "part",
                           "partsupp", "orders", "lineitem"}) {
    EXPECT_TRUE(catalog_->HasTable(name)) << name;
  }
}

TEST_F(TpchGenTest, RowCountsMatchScale) {
  EXPECT_EQ((*catalog_->GetTable("region"))->num_rows(), 5);
  EXPECT_EQ((*catalog_->GetTable("nation"))->num_rows(), 25);
  EXPECT_EQ((*catalog_->GetTable("supplier"))->num_rows(),
            TpchRows("supplier", 0.002));
  EXPECT_EQ((*catalog_->GetTable("orders"))->num_rows(),
            TpchRows("orders", 0.002));
  // lineitem count is stochastic (1-7 lines/order) but near 4/order.
  int64_t orders = (*catalog_->GetTable("orders"))->num_rows();
  int64_t lines = (*catalog_->GetTable("lineitem"))->num_rows();
  EXPECT_GT(lines, 3 * orders);
  EXPECT_LT(lines, 5 * orders);
}

TEST_F(TpchGenTest, ForeignKeysResolve) {
  TablePtr lineitem = *catalog_->GetTable("lineitem");
  int64_t n_part = (*catalog_->GetTable("part"))->num_rows();
  int64_t n_supp = (*catalog_->GetTable("supplier"))->num_rows();
  const Schema& s = lineitem->schema();
  int pk = s.FindColumn("l_partkey");
  int sk = s.FindColumn("l_suppkey");
  ASSERT_GE(pk, 0);
  ASSERT_GE(sk, 0);
  for (int p = 0; p < lineitem->num_partitions(); ++p) {
    const TablePartition& part = lineitem->partition(p);
    for (int b = 0; b < part.num_blocks(); ++b) {
      const Block& blk = *part.block(b);
      for (int r = 0; r < blk.num_rows(); ++r) {
        int32_t pkey = s.GetInt32(blk.RowAt(r), pk);
        int32_t skey = s.GetInt32(blk.RowAt(r), sk);
        ASSERT_GE(pkey, 1);
        ASSERT_LE(pkey, n_part);
        ASSERT_GE(skey, 1);
        ASSERT_LE(skey, n_supp);
      }
    }
  }
}

TEST_F(TpchGenTest, OrderAndLineitemCoPartitionedOnOrderKey) {
  TablePtr orders = *catalog_->GetTable("orders");
  TablePtr lineitem = *catalog_->GetTable("lineitem");
  EXPECT_EQ(orders->partition_key_cols(), std::vector<int>{0});
  EXPECT_EQ(lineitem->partition_key_cols(), std::vector<int>{0});
  EXPECT_EQ(orders->num_partitions(), lineitem->num_partitions());
}

TEST_F(TpchGenTest, DatesInRange) {
  TablePtr orders = *catalog_->GetTable("orders");
  const Schema& s = orders->schema();
  int col = s.FindColumn("o_orderdate");
  int32_t lo = DaysFromCivil(1992, 1, 1);
  int32_t hi = DaysFromCivil(1998, 8, 2);
  for (int p = 0; p < orders->num_partitions(); ++p) {
    const TablePartition& part = orders->partition(p);
    for (int b = 0; b < part.num_blocks(); ++b) {
      const Block& blk = *part.block(b);
      for (int r = 0; r < blk.num_rows(); ++r) {
        int32_t d = s.GetInt32(blk.RowAt(r), col);
        ASSERT_GE(d, lo);
        ASSERT_LE(d, hi);
      }
    }
  }
}

TEST_F(TpchGenTest, ReturnFlagsAndStatusConsistent) {
  TablePtr lineitem = *catalog_->GetTable("lineitem");
  const Schema& s = lineitem->schema();
  int rf = s.FindColumn("l_returnflag");
  int ls = s.FindColumn("l_linestatus");
  std::set<std::string> flags;
  std::set<std::string> statuses;
  for (int p = 0; p < lineitem->num_partitions(); ++p) {
    const TablePartition& part = lineitem->partition(p);
    for (int b = 0; b < part.num_blocks(); ++b) {
      const Block& blk = *part.block(b);
      for (int r = 0; r < blk.num_rows(); ++r) {
        flags.emplace(s.GetString(blk.RowAt(r), rf));
        statuses.emplace(s.GetString(blk.RowAt(r), ls));
      }
    }
  }
  EXPECT_EQ(flags, (std::set<std::string>{"A", "N", "R"}));
  EXPECT_EQ(statuses, (std::set<std::string>{"F", "O"}));
}

TEST_F(TpchGenTest, PartNamesContainColors) {
  // Q9 filters p_name LIKE '%green%'; greens must exist but not dominate.
  TablePtr part = *catalog_->GetTable("part");
  const Schema& s = part->schema();
  int col = s.FindColumn("p_name");
  int64_t green = 0;
  int64_t total = 0;
  for (int p = 0; p < part->num_partitions(); ++p) {
    const TablePartition& tp = part->partition(p);
    for (int b = 0; b < tp.num_blocks(); ++b) {
      const Block& blk = *tp.block(b);
      for (int r = 0; r < blk.num_rows(); ++r) {
        ++total;
        std::string_view name = s.GetString(blk.RowAt(r), col);
        if (name.find("green") != std::string_view::npos) ++green;
      }
    }
  }
  EXPECT_GT(green, 0);
  EXPECT_LT(green, total / 2);
}

TEST(TpchRowsTest, ScalesLinearly) {
  EXPECT_EQ(TpchRows("orders", 1.0), 1500000);
  EXPECT_EQ(TpchRows("orders", 0.01), 15000);
  EXPECT_EQ(TpchRows("region", 100.0), 5);
  EXPECT_EQ(TpchRows("lineitem", 1.0), 6000000);
}

}  // namespace
}  // namespace claims
