#include "storage/partition.h"

#include <gtest/gtest.h>

#include <climits>
#include <map>
#include <string>
#include <vector>

namespace claims {
namespace {

TEST(HashBytesTest, DistinguishesInputs) {
  EXPECT_NE(HashBytes("abc", 3), HashBytes("abd", 3));
  EXPECT_NE(HashBytes("abc", 3), HashBytes("abc", 2));
  EXPECT_EQ(HashBytes("abc", 3), HashBytes("abc", 3));
}

TEST(HashBytesTest, SeedChangesHash) {
  EXPECT_NE(HashBytes("abc", 3, 1), HashBytes("abc", 3, 2));
}

TEST(HashBytesTest, LongInputs) {
  std::vector<char> buf(1000, 'x');
  uint64_t h1 = HashBytes(buf.data(), buf.size());
  buf[999] = 'y';
  EXPECT_NE(HashBytes(buf.data(), buf.size()), h1);
  buf[999] = 'x';
  EXPECT_EQ(HashBytes(buf.data(), buf.size()), h1);
}

TEST(HashRowKeysTest, MultiColumnKeys) {
  Schema s({ColumnDef::Int32("a"), ColumnDef::Int32("b"),
            ColumnDef::Char("c", 8)});
  std::vector<char> r1(s.row_size());
  std::vector<char> r2(s.row_size());
  s.SetInt32(r1.data(), 0, 1);
  s.SetInt32(r1.data(), 1, 2);
  s.SetString(r1.data(), 2, "hi");
  // Same composite key, different layout source → same hash.
  s.SetInt32(r2.data(), 0, 1);
  s.SetInt32(r2.data(), 1, 2);
  s.SetString(r2.data(), 2, "hi");
  EXPECT_EQ(HashRowKeys(s, r1.data(), {0, 1, 2}),
            HashRowKeys(s, r2.data(), {0, 1, 2}));
  // Swapping the values of a and b must change the composite hash.
  s.SetInt32(r2.data(), 0, 2);
  s.SetInt32(r2.data(), 1, 1);
  EXPECT_NE(HashRowKeys(s, r1.data(), {0, 1}), HashRowKeys(s, r2.data(), {0, 1}));
}

TEST(HashRowKeysTest, FloatAndInt64Keys) {
  Schema s({ColumnDef::Float64("f"), ColumnDef::Int64("i")});
  std::vector<char> row(s.row_size());
  s.SetFloat64(row.data(), 0, 1.5);
  s.SetInt64(row.data(), 1, 99);
  uint64_t h = HashRowKeys(s, row.data(), {0, 1});
  s.SetFloat64(row.data(), 0, 1.6);
  EXPECT_NE(HashRowKeys(s, row.data(), {0, 1}), h);
}

TEST(HashRowKeysTest, IntegersHashByValueAcrossWidths) {
  // A shuffle routes each side of a join by its own key column: an INT32 or
  // DATE key must land where the INT64 of the same value does, negative
  // values included.
  Schema narrow({ColumnDef::Int32("i"), ColumnDef::Date("d")});
  Schema wide({ColumnDef::Int64("i"), ColumnDef::Int64("d")});
  std::vector<char> n(narrow.row_size());
  std::vector<char> w(wide.row_size());
  for (const int32_t v : {-5, -1, 0, 7, INT32_MIN, INT32_MAX}) {
    narrow.SetInt32(n.data(), 0, v);
    narrow.SetInt32(n.data(), 1, v);
    wide.SetInt64(w.data(), 0, v);
    wide.SetInt64(w.data(), 1, v);
    for (const int col : {0, 1}) {
      EXPECT_EQ(HashRowKeys(narrow, n.data(), {col}),
                HashRowKeys(wide, w.data(), {col}))
          << v;
    }
  }
}

TEST(HashRowKeysTest, RowHashEqualsBatchHashForEveryType) {
  Schema s({ColumnDef::Int32("i"), ColumnDef::Date("d"), ColumnDef::Int64("l"),
            ColumnDef::Float64("f"), ColumnDef::Char("c", 9)});
  constexpr int32_t kRows = 40;
  std::vector<char> rows(static_cast<size_t>(kRows) * s.row_size());
  for (int32_t r = 0; r < kRows; ++r) {
    char* row = &rows[static_cast<size_t>(r) * s.row_size()];
    s.SetInt32(row, 0, r * 7919 - 100000);
    s.SetInt32(row, 1, 9000 - r);
    s.SetInt64(row, 2, (int64_t{r} << 35) - r);
    s.SetFloat64(row, 3, r % 4 == 0 ? (r % 8 == 0 ? -0.0 : 0.0) : r * 0.5 - 7);
    s.SetString(row, 4, std::string(static_cast<size_t>(r % 10), 'x'));
  }
  const std::vector<int32_t> sel = {39, 0, 8, 4, 17, 17, 2};
  for (const std::vector<int>& cols :
       {std::vector<int>{0}, {1}, {2}, {3}, {4}, {0, 1, 2, 3, 4}, {4, 3}}) {
    std::vector<uint64_t> batch(sel.size());
    HashRowKeysBatch(s, rows.data(), s.row_size(), cols, sel.data(),
                     static_cast<int32_t>(sel.size()), batch.data());
    for (size_t i = 0; i < sel.size(); ++i) {
      const char* row = &rows[static_cast<size_t>(sel[i]) * s.row_size()];
      EXPECT_EQ(HashRowKeys(s, row, cols), batch[i]) << "row " << sel[i];
    }
  }
  // -0.0 and 0.0 compare equal, so they hash alike.
  const char* neg = &rows[0];
  const char* pos = &rows[static_cast<size_t>(4) * s.row_size()];
  EXPECT_EQ(HashRowKeys(s, neg, {3}), HashRowKeys(s, pos, {3}));
}

TEST(PartitionOfTest, BalancedOverSequentialKeys) {
  Schema s({ColumnDef::Int32("k")});
  std::vector<char> row(s.row_size());
  std::map<int, int> counts;
  const int kN = 10000;
  const int kParts = 8;
  for (int i = 0; i < kN; ++i) {
    s.SetInt32(row.data(), 0, i);
    counts[PartitionOf(HashRowKeys(s, row.data(), {0}), kParts)]++;
  }
  ASSERT_EQ(counts.size(), static_cast<size_t>(kParts));
  for (const auto& [p, c] : counts) {
    EXPECT_NEAR(c, kN / kParts, kN / kParts / 3) << "partition " << p;
  }
}

}  // namespace
}  // namespace claims
