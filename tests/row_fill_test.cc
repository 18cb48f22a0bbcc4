// Every writer fills every byte of the rows it appends. Blocks are not
// zeroed: their payload is recycled pool memory. A writer that skipped a
// byte would leave an earlier block's bytes in a row, and memcmp row checks
// and result digests would read them. Each test first fills the calling
// thread's magazines and the central lists of the block size classes with
// chunks poisoned to 0xA5, drives one writer on this thread, and compares
// its rows byte for byte with a reference built on zeroed rows.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "cluster/exchange.h"
#include "cluster/result_set.h"
#include "exec/ops/filter.h"
#include "exec/ops/hash_agg.h"
#include "exec/ops/hash_join.h"
#include "exec/ops/scan.h"
#include "exec/ops/sort.h"
#include "net/network.h"
#include "storage/table.h"

namespace claims {
namespace {

constexpr unsigned char kPoison = 0xA5;

/// Leaves 32 poisoned chunks of each block size class (64, 128 and 256 KiB)
/// in this thread's magazine and the pool's central list, so the next
/// blocks this thread allocates hold 0xA5 bytes.
void PoisonPool() {
  BlockPool* pool = BlockPool::Global();
  for (size_t kib : {64, 128, 256}) {
    const size_t bytes = kib << 10;
    std::vector<PoolAlloc> chunks;
    for (int i = 0; i < 32; ++i) {
      chunks.push_back(pool->Allocate(bytes));
      std::memset(chunks.back().data, kPoison, chunks.back().bytes);
    }
    for (const PoolAlloc& c : chunks) pool->Release(c);
  }
}

using Rows = std::vector<std::string>;

/// A row as bytes, for byte-for-byte comparison.
std::string Bytes(const char* row, const Schema& s) {
  return std::string(row, static_cast<size_t>(s.row_size()));
}

/// The reference encoding of `values`: a zeroed row, every column SetValue.
std::string Encode(const Schema& s, const std::vector<Value>& values) {
  std::string row(static_cast<size_t>(s.row_size()), '\0');
  for (int c = 0; c < s.num_columns(); ++c) {
    s.SetValue(row.data(), c, values[static_cast<size_t>(c)]);
  }
  return row;
}

void AppendRows(const Block& b, const Schema& s, Rows* out) {
  for (int r = 0; r < b.num_rows(); ++r) out->push_back(Bytes(b.RowAt(r), s));
}

/// Drains `it` on the calling thread.
Rows Drain(Iterator* it, const Schema& s) {
  WorkerContext ctx;
  EXPECT_EQ(it->Open(&ctx), NextResult::kSuccess);
  Rows rows;
  BlockPtr block;
  while (it->Next(&ctx, &block) == NextResult::kSuccess) {
    AppendRows(*block, s, &rows);
  }
  it->Close();
  return rows;
}

Rows Sorted(Rows rows) {
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// Replays fixed blocks.
class BlocksSource : public Iterator {
 public:
  explicit BlocksSource(std::vector<BlockPtr> blocks)
      : blocks_(std::move(blocks)) {}
  NextResult Open(WorkerContext*) override { return NextResult::kSuccess; }
  NextResult Next(WorkerContext*, BlockPtr* out) override {
    if (next_ >= blocks_.size()) return NextResult::kEndOfFile;
    *out = blocks_[next_++];
    return NextResult::kSuccess;
  }
  void Close() override {}

 private:
  std::vector<BlockPtr> blocks_;
  size_t next_ = 0;
};

/// k INT32 | d DATE | name CHAR(12) | price FLOAT64 | qty INT64. Names run
/// from 0 to 11 characters, so most CHAR cells end in NUL padding.
class RowFillTest : public ::testing::Test {
 protected:
  static constexpr int kRows = 5000;  // three storage blocks

  void SetUp() override {
    schema_ = Schema({ColumnDef::Int32("k"), ColumnDef::Date("d"),
                      ColumnDef::Char("name", 12), ColumnDef::Float64("price"),
                      ColumnDef::Int64("qty")});
    PoisonPool();
    table_ = std::make_unique<Table>("t", schema_, 1, std::vector<int>{});
    for (int i = 0; i < kRows; ++i) {
      values_.push_back(RowValues(i));
      table_->AppendValues(values_.back());
    }
  }

  static std::vector<Value> RowValues(int i) {
    const std::string name = std::string("abcdefghijkl").substr(0, i % 12);
    return {Value::Int32(i % 10), Value::Date(9000 + i % 400),
            Value::String(name), Value::Float64(0.25 * (i % 97)),
            Value::Int64(i % 13)};
  }

  const TablePartition& part() const { return table_->partition(0); }
  ExprPtr Col(int c) const {
    return MakeColumnRef(c, schema_.column(c).type, schema_.column(c).name);
  }
  /// k < 6 AND name <> '' : keeps about half of the rows.
  ExprPtr Predicate() const {
    return MakeLogic(LogicOp::kAnd,
                     MakeCompare(CompareOp::kLt, Col(0),
                                 MakeLiteral(Value::Int32(6))),
                     MakeCompare(CompareOp::kNe, Col(2),
                                 MakeLiteral(Value::String(""))));
  }
  Rows StorageRows() const {
    Rows rows;
    for (const BlockPtr& b : part().blocks()) AppendRows(*b, schema_, &rows);
    return rows;
  }

  Schema schema_;
  std::unique_ptr<Table> table_;
  std::vector<std::vector<Value>> values_;
};

TEST_F(RowFillTest, TableLoaderWritesEveryByte) {
  Rows want;
  for (const auto& v : values_) want.push_back(Encode(schema_, v));
  ASSERT_GT(part().num_blocks(), 1);
  EXPECT_EQ(StorageRows(), want);
}

TEST_F(RowFillTest, BlockCopyHoldsTheRows) {
  PoisonPool();
  const Block& original = *part().block(0);
  Block copy(original);
  Rows got;
  AppendRows(copy, schema_, &got);
  Rows want;
  AppendRows(original, schema_, &want);
  EXPECT_EQ(copy.capacity_rows(), original.capacity_rows());
  EXPECT_EQ(got, want);
}

TEST_F(RowFillTest, FilteredScanAndFilterCopyWholeRows) {
  ExprPtr pred = Predicate();
  Rows want;
  for (const std::string& row : StorageRows()) {
    if (pred->EvalBool(schema_, row.data())) want.push_back(row);
  }
  ASSERT_GT(want.size(), 0u);
  ASSERT_LT(want.size(), static_cast<size_t>(kRows));

  PoisonPool();
  ScanIterator::Options opts;
  opts.predicate = Predicate();
  ScanIterator scan(&part(), &schema_, opts);
  EXPECT_EQ(Drain(&scan, schema_), want);

  PoisonPool();
  FilterIterator filter(std::make_unique<ScanIterator>(&part(), &schema_),
                        &schema_, Predicate());
  EXPECT_EQ(Drain(&filter, schema_), want);
}

TEST_F(RowFillTest, ProjectWritesEveryColumn) {
  // A bare CHAR column (strided copy), a DATE, a computed FLOAT64 and INT64,
  // YEAR(d), and a CASE yielding strings shorter than their CHAR width.
  std::vector<ExprPtr> exprs = {
      Col(2),
      Col(1),
      MakeArith(ArithOp::kMul, Col(3), Col(4)),
      MakeArith(ArithOp::kAdd, Col(4), MakeLiteral(Value::Int64(7))),
      MakeYear(Col(1)),
      MakeCase({{MakeCompare(CompareOp::kLt, Col(0),
                             MakeLiteral(Value::Int32(3))),
                 MakeLiteral(Value::String("lo"))}},
               MakeLiteral(Value::String("high"))),
  };
  const Schema out({ColumnDef::Char("name", 12), ColumnDef::Date("d"),
                    ColumnDef::Float64("rev"), ColumnDef::Int64("q7"),
                    ColumnDef::Int32("yr"), ColumnDef::Char("band", 6)});
  Rows want;
  for (const std::string& row : StorageRows()) {
    std::vector<Value> v;
    for (const ExprPtr& e : exprs) v.push_back(e->Eval(schema_, row.data()));
    want.push_back(Encode(out, v));
  }
  PoisonPool();
  ProjectIterator project(std::make_unique<ScanIterator>(&part(), &schema_),
                          &schema_, out, exprs);
  EXPECT_EQ(Drain(&project, out), want);
}

TEST_F(RowFillTest, JoinProbeWritesWholeRowsThroughGrowth) {
  // 40 build rows, 4 per key: a 1 820-row probe block emits 7 280 rows of
  // 72 bytes, so its output block doubles from 64 KiB up to 512 KiB.
  Rows storage = StorageRows();
  auto build = MakeBlock(schema_.row_size());
  for (int i = 0; i < 40; ++i) build->AppendRowCopy(storage[i].data());
  Rows want;
  for (const BlockPtr& probe : part().blocks()) {
    for (int p = 0; p < probe->num_rows(); ++p) {
      for (int b = 0; b < build->num_rows(); ++b) {
        if (schema_.GetInt32(build->RowAt(b), 0) ==
            schema_.GetInt32(probe->RowAt(p), 0)) {
          want.push_back(Bytes(build->RowAt(b), schema_) +
                         Bytes(probe->RowAt(p), schema_));
        }
      }
    }
  }
  PoisonPool();
  HashJoinIterator::Spec spec;
  spec.build_schema = &schema_;
  spec.probe_schema = &schema_;
  spec.build_keys = {0};
  spec.probe_keys = {0};
  spec.expected_build_rows = 40;
  spec.pool = BlockPool::Global();
  HashJoinIterator join(
      std::make_unique<BlocksSource>(std::vector<BlockPtr>{std::move(build)}),
      std::make_unique<ScanIterator>(&part(), &schema_), spec);
  const Schema out = join.output_schema();
  WorkerContext ctx;
  ASSERT_EQ(join.Open(&ctx), NextResult::kSuccess);
  Rows got;
  BlockPtr block;
  int64_t largest = 0;
  while (join.Next(&ctx, &block) == NextResult::kSuccess) {
    largest = std::max(largest, block->capacity_bytes());
    AppendRows(*block, out, &got);
  }
  join.Close();
  EXPECT_GE(largest, 4 * kDefaultBlockBytes);
  EXPECT_EQ(Sorted(got), Sorted(want));
}

TEST_F(RowFillTest, AggregationEmitWritesEveryColumn) {
  // Integer-valued aggregates, so the reference's fold order cannot change
  // a bit of the result.
  struct Acc {
    int64_t sum = 0, count = 0;
    int32_t min_d = INT32_MAX;
    double max_price = -1;
  };
  std::map<std::pair<std::string, int32_t>, Acc> groups;
  for (const auto& v : values_) {
    Acc& a = groups[{v[2].AsString(), static_cast<int32_t>(v[0].AsInt64())}];
    a.sum += v[4].AsInt64();
    ++a.count;
    a.min_d = std::min(a.min_d, static_cast<int32_t>(v[1].AsInt64()));
    a.max_price = std::max(a.max_price, v[3].AsFloat64());
  }
  HashAggIterator::Spec spec;
  spec.input_schema = &schema_;
  spec.group_exprs = {Col(2), Col(0)};
  spec.group_names = {"name", "k"};
  spec.aggregates = {{AggFn::kSum, Col(4), "sum_q"},
                     {AggFn::kCount, nullptr, "cnt"},
                     {AggFn::kAvg, Col(4), "avg_q"},
                     {AggFn::kMin, Col(1), "min_d"},
                     {AggFn::kMax, Col(3), "max_p"}};
  spec.mode = HashAggIterator::Mode::kHybrid;
  spec.pool = BlockPool::Global();
  PoisonPool();
  HashAggIterator agg(std::make_unique<ScanIterator>(&part(), &schema_), spec);
  const Schema out = agg.output_schema();
  Rows want;
  for (const auto& [key, a] : groups) {
    want.push_back(Encode(
        out, {Value::String(key.first), Value::Int32(key.second),
              Value::Int64(a.sum), Value::Int64(a.count),
              Value::Float64(static_cast<double>(a.sum) / a.count),
              Value::Date(a.min_d), Value::Float64(a.max_price)}));
  }
  EXPECT_EQ(Sorted(Drain(&agg, out)), Sorted(want));
}

TEST_F(RowFillTest, HashSplitCopiesWholeRows) {
  constexpr int kExchange = 3;
  Network net(2, NetworkOptions{});
  net.CreateExchange(kExchange, 1, {0, 1});
  SegmentStats stats;
  SenderPump::Spec spec;
  spec.exchange_id = kExchange;
  spec.partitioning = Partitioning::kHash;
  spec.hash_cols = {0};
  spec.consumer_nodes = {0, 1};
  spec.schema = &schema_;
  spec.network = &net;
  spec.stats = &stats;
  PoisonPool();
  SenderPump pump(spec);
  BlocksSource source(part().blocks());
  WorkerContext ctx;
  ASSERT_TRUE(pump.Pump(&source, &ctx, nullptr));
  Rows got;
  for (int j = 0; j < 2; ++j) {
    SegmentStats merged;
    MergerIterator merger(net.GetChannel(kExchange, j), &merged, nullptr);
    Rows rows = Drain(&merger, schema_);
    EXPECT_FALSE(rows.empty());
    got.insert(got.end(), rows.begin(), rows.end());
  }
  EXPECT_EQ(Sorted(got), Sorted(StorageRows()));
}

TEST_F(RowFillTest, SortOutputCopiesWholeRows) {
  PoisonPool();
  SortIterator sort(std::make_unique<ScanIterator>(&part(), &schema_),
                    &schema_, {{0, true}, {2, false}});
  Rows got = Drain(&sort, schema_);
  EXPECT_EQ(Sorted(got), Sorted(StorageRows()));
  RowComparator cmp(&schema_, {{0, true}, {2, false}});
  for (size_t i = 1; i < got.size(); ++i) {
    ASSERT_LE(cmp.Compare(got[i - 1].data(), got[i].data()), 0) << i;
  }
}

TEST_F(RowFillTest, TruncateRowsCopiesTheKeptPrefix) {
  ResultSet result(schema_);
  for (const BlockPtr& b : part().blocks()) result.AppendBlock(b);
  PoisonPool();
  result.TruncateRows(kRows / 2);  // cuts the second storage block
  Rows got;
  for (const BlockPtr& b : result.blocks()) AppendRows(*b, schema_, &got);
  Rows want = StorageRows();
  want.resize(kRows / 2);
  EXPECT_EQ(got, want);
}

}  // namespace
}  // namespace claims
