#include "storage/block.h"

#include <gtest/gtest.h>

#include <type_traits>

namespace claims {
namespace {

TEST(BlockTest, CapacityFromRowSize) {
  Block b(64);  // 64-byte rows in a 64 KB block
  EXPECT_EQ(b.capacity_rows(), 1024);
  EXPECT_EQ(b.capacity_bytes(), 64 * 1024);
  EXPECT_TRUE(b.empty());
  EXPECT_FALSE(b.full());
}

TEST(BlockTest, AppendUntilFull) {
  Block b(1000, 4000);
  EXPECT_EQ(b.capacity_rows(), 4);
  for (int i = 0; i < 4; ++i) EXPECT_NE(b.AppendRow(), nullptr);
  EXPECT_TRUE(b.full());
  EXPECT_EQ(b.AppendRow(), nullptr);
  EXPECT_EQ(b.num_rows(), 4);
  EXPECT_EQ(b.payload_bytes(), 4000);
}

TEST(BlockTest, RowDataRoundTrip) {
  Schema s({ColumnDef::Int64("x")});
  Block b(s.row_size(), 1024);
  for (int64_t i = 0; i < 10; ++i) {
    char* row = b.AppendRow();
    ASSERT_NE(row, nullptr);
    s.SetInt64(row, 0, i * 3);
  }
  for (int i = 0; i < 10; ++i) EXPECT_EQ(s.GetInt64(b.RowAt(i), 0), i * 3);
}

TEST(BlockTest, AppendRowCopy) {
  Block b(8, 64);
  char row[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  ASSERT_TRUE(b.AppendRowCopy(row));
  EXPECT_EQ(memcmp(b.RowAt(0), row, 8), 0);
}

// Emitted blocks are read-only: only MakeBlock's writable pointer fills one.
static_assert(std::is_const_v<BlockPtr::element_type>,
              "BlockPtr must point to a const Block");
static_assert(!std::is_const_v<decltype(MakeBlock(8))::element_type>,
              "MakeBlock must return a writable block");

TEST(BlockTest, MetadataTail) {
  Block b(8);
  EXPECT_EQ(b.sequence_number(), 0u);
  b.set_sequence_number(77);
  EXPECT_EQ(b.sequence_number(), 77u);
}

TEST(BlockTest, DoubleCapacityKeepsTheRows) {
  Schema s({ColumnDef::Int64("x")});
  Block b(s.row_size(), 4 * s.row_size());
  for (int64_t i = 0; i < 4; ++i) s.SetInt64(b.AppendRow(), 0, i + 1);
  ASSERT_TRUE(b.full());
  b.DoubleCapacity();
  EXPECT_EQ(b.capacity_rows(), 8);
  EXPECT_EQ(b.num_rows(), 4);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(s.GetInt64(b.RowAt(i), 0), i + 1);
  for (int64_t i = 4; i < 8; ++i) s.SetInt64(b.AppendRow(), 0, i + 1);
  EXPECT_TRUE(b.full());
  for (int i = 0; i < 8; ++i) EXPECT_EQ(s.GetInt64(b.RowAt(i), 0), i + 1);
}

TEST(BlockTest, ClearResetsRows) {
  Block b(8, 64);
  b.AppendRow();
  b.Clear();
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.num_rows(), 0);
}

}  // namespace
}  // namespace claims
