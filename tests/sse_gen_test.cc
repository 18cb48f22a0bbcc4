#include "storage/datagen/sse_gen.h"

#include <gtest/gtest.h>

#include <map>

namespace claims {
namespace {

SseConfig SmallConfig() {
  SseConfig c;
  c.securities_rows = 5000;
  c.trades_rows = 8000;
  c.num_accounts = 500;
  c.num_securities = 100;
  c.num_partitions = 4;
  return c;
}

TEST(SseGenTest, SchemasMatchPaper) {
  Catalog cat;
  ASSERT_TRUE(GenerateSse(SmallConfig(), &cat).ok());
  TablePtr sec = *cat.GetTable("securities");
  TablePtr trades = *cat.GetTable("trades");
  EXPECT_EQ(sec->schema().ToString(),
            "order_no INT64, acct_id INT32, sec_code INT32, entry_date DATE, "
            "entry_volume INT64");
  EXPECT_EQ(trades->schema().ToString(),
            "acct_id INT32, sec_code INT32, trade_date DATE, trade_time INT32, "
            "order_price FLOAT64, trade_volume INT64");
  EXPECT_EQ(sec->num_rows(), 5000);
  EXPECT_EQ(trades->num_rows(), 8000);
}

TEST(SseGenTest, PartitioningPerPaper) {
  Catalog cat;
  ASSERT_TRUE(GenerateSse(SmallConfig(), &cat).ok());
  // §5.3: Trades on sec_code (col 1), Securities on acct_id (col 1).
  EXPECT_EQ((*cat.GetTable("trades"))->partition_key_cols(),
            std::vector<int>{1});
  EXPECT_EQ((*cat.GetTable("securities"))->partition_key_cols(),
            std::vector<int>{1});
}

TEST(SseGenTest, DatesWithinQuarter) {
  Catalog cat;
  ASSERT_TRUE(GenerateSse(SmallConfig(), &cat).ok());
  TablePtr trades = *cat.GetTable("trades");
  const Schema& s = trades->schema();
  int col = s.FindColumn("trade_date");
  int32_t lo = DaysFromCivil(2010, 8, 2);
  int32_t hi = DaysFromCivil(2010, 10, 30);
  bool saw_filter_date = false;
  for (int p = 0; p < trades->num_partitions(); ++p) {
    const TablePartition& part = trades->partition(p);
    for (int b = 0; b < part.num_blocks(); ++b) {
      const Block& blk = *part.block(b);
      for (int r = 0; r < blk.num_rows(); ++r) {
        int32_t d = s.GetInt32(blk.RowAt(r), col);
        ASSERT_GE(d, lo);
        ASSERT_LE(d, hi);
        if (d == hi) saw_filter_date = true;
      }
    }
  }
  EXPECT_TRUE(saw_filter_date);  // 2010-10-30 rows exist for SSE queries
}

TEST(SseGenTest, ZipfSkewOnSecurities) {
  Catalog cat;
  ASSERT_TRUE(GenerateSse(SmallConfig(), &cat).ok());
  TablePtr trades = *cat.GetTable("trades");
  const Schema& s = trades->schema();
  int col = s.FindColumn("sec_code");
  std::map<int32_t, int> counts;
  for (int p = 0; p < trades->num_partitions(); ++p) {
    const TablePartition& part = trades->partition(p);
    for (int b = 0; b < part.num_blocks(); ++b) {
      const Block& blk = *part.block(b);
      for (int r = 0; r < blk.num_rows(); ++r) {
        counts[s.GetInt32(blk.RowAt(r), col)]++;
      }
    }
  }
  // Hottest security must be much more traded than the median one.
  int max_count = 0;
  for (const auto& [k, c] : counts) max_count = std::max(max_count, c);
  EXPECT_GT(max_count, 8000 / 100 * 4);
}

TEST(SseGenTest, SortedVariantIsDateOrderedPerPartition) {
  SseConfig config = SmallConfig();
  config.sort_trades_by_date = true;
  Catalog cat;
  ASSERT_TRUE(GenerateSse(config, &cat).ok());
  TablePtr trades = *cat.GetTable("trades");
  const Schema& s = trades->schema();
  int col = s.FindColumn("trade_date");
  for (int p = 0; p < trades->num_partitions(); ++p) {
    const TablePartition& part = trades->partition(p);
    int32_t prev = -1;
    for (int b = 0; b < part.num_blocks(); ++b) {
      const Block& blk = *part.block(b);
      for (int r = 0; r < blk.num_rows(); ++r) {
        int32_t d = s.GetInt32(blk.RowAt(r), col);
        ASSERT_GE(d, prev);
        prev = d;
      }
    }
  }
}

TEST(SseGenTest, DeterministicAcrossRuns) {
  Catalog a;
  Catalog b;
  ASSERT_TRUE(GenerateSse(SmallConfig(), &a).ok());
  ASSERT_TRUE(GenerateSse(SmallConfig(), &b).ok());
  TablePtr ta = *a.GetTable("trades");
  TablePtr tb = *b.GetTable("trades");
  ASSERT_EQ(ta->num_rows(), tb->num_rows());
  for (int p = 0; p < ta->num_partitions(); ++p) {
    ASSERT_EQ(ta->partition(p).num_rows(), tb->partition(p).num_rows());
    for (int blk = 0; blk < ta->partition(p).num_blocks(); ++blk) {
      const Block& ba = *ta->partition(p).block(blk);
      const Block& bb = *tb->partition(p).block(blk);
      ASSERT_EQ(ba.num_rows(), bb.num_rows());
      ASSERT_EQ(memcmp(ba.RowAt(0), bb.RowAt(0),
                       ba.num_rows() * ba.row_size()),
                0);
    }
  }
}

}  // namespace
}  // namespace claims
