#include "storage/table.h"

#include <gtest/gtest.h>

namespace claims {
namespace {

Schema KeyedSchema() {
  return Schema({ColumnDef::Int32("k"), ColumnDef::Int64("v")});
}

TEST(TableTest, AppendRoundRobinSpreadsRows) {
  Table t("t", KeyedSchema(), 4, {});
  for (int i = 0; i < 40; ++i) {
    char* slot = t.AppendRowSlotRoundRobin();
    ASSERT_NE(slot, nullptr);
    t.schema().SetInt32(slot, 0, i);
    t.schema().SetInt64(slot, 1, i);
  }
  EXPECT_EQ(t.num_rows(), 40);
  for (int p = 0; p < 4; ++p) EXPECT_EQ(t.partition(p).num_rows(), 10);
}

TEST(TableTest, HashPartitionIsDeterministicAndConsistent) {
  Table t("t", KeyedSchema(), 4, {0});
  for (int i = 0; i < 1000; ++i) {
    t.AppendValues({Value::Int32(i % 50), Value::Int64(i)});
  }
  EXPECT_EQ(t.num_rows(), 1000);
  // Every copy of the same key must land in the same partition.
  const Schema& s = t.schema();
  for (int p = 0; p < 4; ++p) {
    const TablePartition& part = t.partition(p);
    for (int b = 0; b < part.num_blocks(); ++b) {
      const Block& blk = *part.block(b);
      for (int r = 0; r < blk.num_rows(); ++r) {
        int32_t key = s.GetInt32(blk.RowAt(r), 0);
        uint64_t hash;
        HashKeys(s, blk.RowAt(r), 0, {0}, 1, &hash);
        EXPECT_EQ(PartitionOf(hash, 4), p) << "key " << key;
      }
    }
  }
}

TEST(TableTest, PartitionsReasonablyBalanced) {
  Table t("t", KeyedSchema(), 4, {0});
  for (int i = 0; i < 4000; ++i) {
    t.AppendValues({Value::Int32(i), Value::Int64(i)});
  }
  for (int p = 0; p < 4; ++p) {
    EXPECT_NEAR(t.partition(p).num_rows(), 1000, 250);
  }
}

TEST(TableTest, MultiColumnKeyRoutesByItsColumnsInOrder) {
  // The loader hashes the partition columns in the order the table lists
  // them, as a shuffle on the same columns does.
  Table t("t", KeyedSchema(), 3, {1, 0});
  for (int i = 0; i < 300; ++i) {
    t.AppendValues({Value::Int32(i % 7), Value::Int64(i % 11)});
  }
  const Schema& s = t.schema();
  int64_t swapped_differs = 0;
  for (int p = 0; p < 3; ++p) {
    const TablePartition& part = t.partition(p);
    for (int b = 0; b < part.num_blocks(); ++b) {
      const Block& blk = *part.block(b);
      for (int r = 0; r < blk.num_rows(); ++r) {
        uint64_t hash;
        HashKeys(s, blk.RowAt(r), 0, {1, 0}, 1, &hash);
        EXPECT_EQ(PartitionOf(hash, 3), p);
        HashKeys(s, blk.RowAt(r), 0, {0, 1}, 1, &hash);
        swapped_differs += PartitionOf(hash, 3) != p;
      }
    }
  }
  EXPECT_GT(swapped_differs, 0);
}

TEST(TableTest, BytesAccounting) {
  Table t("t", KeyedSchema(), 1, {0});
  t.AppendValues({Value::Int32(1), Value::Int64(2)});
  EXPECT_EQ(t.bytes(), t.schema().row_size());
}

TEST(PartitionTest, HashIsStable) {
  Schema s = KeyedSchema();
  std::vector<char> row(s.row_size());
  s.SetInt32(row.data(), 0, 600036);
  s.SetInt64(row.data(), 1, 9);
  uint64_t h1;
  uint64_t h2;
  HashKeys(s, row.data(), 0, {0}, 1, &h1);
  HashKeys(s, row.data(), 0, {0}, 1, &h2);
  EXPECT_EQ(h1, h2);
  s.SetInt32(row.data(), 0, 600037);
  HashKeys(s, row.data(), 0, {0}, 1, &h2);
  EXPECT_NE(h2, h1);
}

}  // namespace
}  // namespace claims
