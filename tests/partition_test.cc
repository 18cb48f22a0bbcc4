#include "storage/partition.h"

#include <gtest/gtest.h>

#include <climits>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace claims {
namespace {

/// HashKeys of one row.
uint64_t HashOf(const Schema& s, const char* row,
               const std::vector<int>& cols) {
  uint64_t h;
  HashKeys(s, row, 0, cols, 1, &h);
  return h;
}

TEST(HashKeysTest, MultiColumnKeys) {
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
  EXPECT_EQ(HashOf(s, r1.data(), {0, 1, 2}),
            HashOf(s, r2.data(), {0, 1, 2}));
  // Swapping the values of a and b must change the composite hash.
  s.SetInt32(r2.data(), 0, 2);
  s.SetInt32(r2.data(), 1, 1);
  EXPECT_NE(HashOf(s, r1.data(), {0, 1}), HashOf(s, r2.data(), {0, 1}));
}

TEST(HashKeysTest, FloatAndInt64Keys) {
  Schema s({ColumnDef::Float64("f"), ColumnDef::Int64("i")});
  std::vector<char> row(s.row_size());
  s.SetFloat64(row.data(), 0, 1.5);
  s.SetInt64(row.data(), 1, 99);
  uint64_t h = HashOf(s, row.data(), {0, 1});
  s.SetFloat64(row.data(), 0, 1.6);
  EXPECT_NE(HashOf(s, row.data(), {0, 1}), h);
}

TEST(HashKeysTest, EqualValuesHashEqualAcrossTypes) {
  // Each side of a join routes by its own key column: an INT32, DATE or
  // integral FLOAT64 key must land where the INT64 of the same value does,
  // negative values included, and so must a key of two such columns.
  Schema narrow({ColumnDef::Int32("i"), ColumnDef::Date("d"),
                 ColumnDef::Float64("f")});
  Schema wide({ColumnDef::Int64("i"), ColumnDef::Int64("d"),
               ColumnDef::Int64("f")});
  std::vector<char> n(narrow.row_size());
  std::vector<char> w(wide.row_size());
  for (const int32_t v : {-5, -1, 0, 7, 600036, INT32_MIN, INT32_MAX}) {
    narrow.SetInt32(n.data(), 0, v);
    narrow.SetInt32(n.data(), 1, v);
    narrow.SetFloat64(n.data(), 2, v);
    wide.SetInt64(w.data(), 0, v);
    wide.SetInt64(w.data(), 1, v);
    wide.SetInt64(w.data(), 2, v);
    for (const std::vector<int>& cols :
         {std::vector<int>{0}, {1}, {2}, {0, 2}, {2, 1, 0}}) {
      EXPECT_EQ(HashOf(narrow, n.data(), cols), HashOf(wide, w.data(), cols))
          << v;
    }
  }
  // Integral doubles past INT32, and the ends of the INT64 range.
  Schema f({ColumnDef::Float64("f")});
  Schema l({ColumnDef::Int64("l")});
  std::vector<char> fr(f.row_size());
  std::vector<char> lr(l.row_size());
  for (const int64_t v : {int64_t{1} << 40, -(int64_t{1} << 52), INT64_MIN,
                          int64_t{1} << 62}) {
    f.SetFloat64(fr.data(), 0, static_cast<double>(v));
    l.SetInt64(lr.data(), 0, v);
    EXPECT_EQ(HashOf(f, fr.data(), {0}), HashOf(l, lr.data(), {0})) << v;
  }
  // A fraction is not the integer it truncates to; 2^63 is no INT64.
  const std::pair<double, int64_t> unequal[] = {
      {0.5, 0}, {-7.25, -7}, {9223372036854775808.0, INT64_MIN}};
  for (const auto& [d, v] : unequal) {
    f.SetFloat64(fr.data(), 0, d);
    l.SetInt64(lr.data(), 0, v);
    EXPECT_NE(HashOf(f, fr.data(), {0}), HashOf(l, lr.data(), {0})) << d;
  }
}

TEST(HashKeysTest, NegativeZeroHashesAsZero) {
  // -0.0 and 0.0 compare equal, so they hash alike, alone and in a
  // composite key.
  Schema s({ColumnDef::Float64("f"), ColumnDef::Int32("i")});
  std::vector<char> neg(s.row_size());
  std::vector<char> pos(s.row_size());
  s.SetFloat64(neg.data(), 0, -0.0);
  s.SetFloat64(pos.data(), 0, 0.0);
  s.SetInt32(neg.data(), 1, 3);
  s.SetInt32(pos.data(), 1, 3);
  EXPECT_EQ(HashOf(s, neg.data(), {0}), HashOf(s, pos.data(), {0}));
  EXPECT_EQ(HashOf(s, neg.data(), {1, 0}), HashOf(s, pos.data(), {1, 0}));
}

TEST(HashKeysTest, CharHashesEqualAcrossWidths) {
  // A join's CHAR key pair may differ in width; the shorter value is the
  // longer one's prefix up to the NUL padding, so the two hash alike, alone
  // and between other key columns.
  for (const std::string value : {"", "A", "abc"}) {
    uint64_t alone = 0;
    uint64_t composite = 0;
    for (const int32_t width : {3, 7, 8, 9, 16, 25, 55}) {
      Schema s({ColumnDef::Int32("pre"), ColumnDef::Char("c", width),
                ColumnDef::Int32("post")});
      std::vector<char> row(s.row_size());
      s.SetInt32(row.data(), 0, 11);
      s.SetString(row.data(), 1, value);
      s.SetInt32(row.data(), 2, 12);
      if (width == 3) {
        alone = HashOf(s, row.data(), {1});
        composite = HashOf(s, row.data(), {0, 1, 2});
      }
      EXPECT_EQ(HashOf(s, row.data(), {1}), alone)
          << "'" << value << "' CHAR(" << width << ")";
      EXPECT_EQ(HashOf(s, row.data(), {0, 1, 2}), composite)
          << "'" << value << "' CHAR(" << width << ")";
    }
  }
  // Long values: the same string in CHAR(25) and CHAR(55), and every
  // one-byte change of it, which must change the hash.
  Schema s25({ColumnDef::Char("c", 25)});
  Schema s55({ColumnDef::Char("c", 55)});
  std::vector<char> r25(s25.row_size());
  std::vector<char> r55(s55.row_size());
  const std::string base = "Customer#000001234";
  for (size_t len = 1; len <= 25; ++len) {
    const std::string v = std::string(25, 'q').substr(0, len);
    s25.SetString(r25.data(), 0, v);
    s55.SetString(r55.data(), 0, v);
    EXPECT_EQ(HashOf(s25, r25.data(), {0}), HashOf(s55, r55.data(), {0}))
        << len;
  }
  s25.SetString(r25.data(), 0, base);
  const uint64_t h = HashOf(s25, r25.data(), {0});
  for (size_t i = 0; i < base.size(); ++i) {
    std::string changed = base;
    changed[i] = static_cast<char>(changed[i] ^ 1);
    s25.SetString(r25.data(), 0, changed);
    EXPECT_NE(HashOf(s25, r25.data(), {0}), h) << i;
  }
}

TEST(HashKeysTest, OneColumnIntegerKeysKeepTheirPartition) {
  // Table partitioning and the shuffles of one-column integer keys place
  // every key where the per-type routing hash this one replaced did: digit
  // i is PartitionOf(hash of key i, n), recorded from that hash.
  const std::vector<int64_t> keys = {0,    1,    2,      3,      4,
                                     5,    7,    8,      42,     100,
                                     999,  4096, 60000,  600123, -1,
                                     -2,   -7,   -100000, INT32_MAX,
                                     INT32_MIN};
  const std::vector<int64_t> wide = {int64_t{1} << 40, -(int64_t{1} << 40),
                                     9007199254740993LL, INT64_MAX, INT64_MIN,
                                     1000000000123LL};
  const std::map<int, std::string> want = {
      {2, "10001011011100011010010110"},
      {3, "20112021212100100111022000"},
      {4, "30201213213322211232032312"}};
  for (const DataType type :
       {DataType::kInt32, DataType::kDate, DataType::kInt64}) {
    Schema s({ColumnDef{"k", type, 0}});
    std::vector<char> row(s.row_size());
    std::vector<int64_t> all = keys;
    if (type == DataType::kInt64) {
      all.insert(all.end(), wide.begin(), wide.end());
    }
    for (const auto& [n, digits] : want) {
      std::string got;
      for (const int64_t k : all) {
        if (type == DataType::kInt64) {
          s.SetInt64(row.data(), 0, k);
        } else {
          s.SetInt32(row.data(), 0, static_cast<int32_t>(k));
        }
        got += static_cast<char>(
            '0' + PartitionOf(HashOf(s, row.data(), {0}), n));
      }
      EXPECT_EQ(got, digits.substr(0, got.size()))
          << DataTypeName(type) << " n=" << n;
    }
  }
  Schema s({ColumnDef::Int32("k")});
  std::vector<char> row(s.row_size());
  s.SetInt32(row.data(), 0, 42);
  EXPECT_EQ(HashOf(s, row.data(), {0}), 0x6880cd9ebdbd6eb6ULL);
}

TEST(HashKeysTest, BatchEqualsOneRowAtATime) {
  // The loader hashes one row per call, the sender a block per call.
  Schema s({ColumnDef::Int32("i"), ColumnDef::Date("d"), ColumnDef::Int64("l"),
            ColumnDef::Float64("f"), ColumnDef::Char("c", 9),
            ColumnDef::Char("s", 2)});
  constexpr int32_t kRows = 40;
  std::vector<char> rows(static_cast<size_t>(kRows) * s.row_size());
  for (int32_t r = 0; r < kRows; ++r) {
    char* row = &rows[static_cast<size_t>(r) * s.row_size()];
    s.SetInt32(row, 0, r * 7919 - 100000);
    s.SetInt32(row, 1, 9000 - r);
    s.SetInt64(row, 2, (int64_t{r} << 35) - r);
    s.SetFloat64(row, 3, r % 4 == 0 ? (r % 8 == 0 ? -0.0 : 0.0) : r * 0.5 - 7);
    s.SetString(row, 4, std::string(static_cast<size_t>(r % 10), 'x'));
    s.SetString(row, 5, std::string(static_cast<size_t>(r % 3), 'y'));
  }
  for (const std::vector<int>& cols : {std::vector<int>{}, {0}, {1}, {2}, {3},
                                       {4}, {5}, {0, 1, 2, 3, 4, 5}, {4, 3}}) {
    std::vector<uint64_t> batch(kRows);
    HashKeys(s, rows.data(), s.row_size(), cols, kRows, batch.data());
    for (int32_t r = 0; r < kRows; ++r) {
      EXPECT_EQ(HashOf(s, &rows[static_cast<size_t>(r) * s.row_size()], cols),
                batch[r])
          << "row " << r;
    }
  }
}

TEST(PartitionOfTest, BalancedOverSequentialKeys) {
  Schema s({ColumnDef::Int32("k")});
  std::vector<char> row(s.row_size());
  std::map<int, int> counts;
  const int kN = 10000;
  const int kParts = 8;
  for (int i = 0; i < kN; ++i) {
    s.SetInt32(row.data(), 0, i);
    counts[PartitionOf(HashOf(s, row.data(), {0}), kParts)]++;
  }
  ASSERT_EQ(counts.size(), static_cast<size_t>(kParts));
  for (const auto& [p, c] : counts) {
    EXPECT_NEAR(c, kN / kParts, kN / kParts / 3) << "partition " << p;
  }
}

}  // namespace
}  // namespace claims
