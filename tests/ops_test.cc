// Operator tests: each physical operator is exercised both stand-alone (one
// synthetic worker context) and under a multi-worker ElasticIterator.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <map>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/elastic_iterator.h"
#include "exec/ops/filter.h"
#include "exec/ops/hash_agg.h"
#include "exec/ops/hash_join.h"
#include "exec/ops/scan.h"
#include "exec/ops/sort.h"
#include "storage/table.h"

namespace claims {
namespace {

// A small keyed table: k = i % mod, v = i.
std::unique_ptr<Table> MakeKV(int rows, int mod, int partitions = 1) {
  Schema schema({ColumnDef::Int32("k"), ColumnDef::Int64("v")});
  auto t = std::make_unique<Table>("kv", schema, partitions,
                                   std::vector<int>{});
  for (int i = 0; i < rows; ++i) {
    t->AppendValues({Value::Int32(i % mod), Value::Int64(i)});
  }
  return t;
}

// Replays fixed blocks — for tests that need exact control over input block
// boundaries and sequence numbers. The blocks are read-only, so every
// consumer shares them.
class BlocksIterator : public Iterator {
 public:
  explicit BlocksIterator(std::vector<BlockPtr> blocks)
      : blocks_(std::move(blocks)) {}
  NextResult Open(WorkerContext*) override { return NextResult::kSuccess; }
  NextResult Next(WorkerContext*, BlockPtr* out) override {
    size_t i = cursor_.fetch_add(1, std::memory_order_relaxed);
    if (i >= blocks_.size()) return NextResult::kEndOfFile;
    *out = blocks_[i];
    return NextResult::kSuccess;
  }
  void Close() override {}

 private:
  std::vector<BlockPtr> blocks_;
  std::atomic<size_t> cursor_{0};
};

// Replays fixed blocks like BlocksIterator, except that the worker whose
// context has `slow_worker_id` claims the first block and holds it for
// 100 ms before returning it: the other workers wait for that claim, drain
// the rest meanwhile, and reach the operator's barrier first.
class SlowWorkerSource : public Iterator {
 public:
  SlowWorkerSource(std::vector<BlockPtr> blocks, int slow_worker_id)
      : blocks_(std::move(blocks)), slow_worker_id_(slow_worker_id) {}
  NextResult Open(WorkerContext*) override { return NextResult::kSuccess; }
  NextResult Next(WorkerContext* ctx, BlockPtr* out) override {
    const bool slow = ctx->worker_id == slow_worker_id_;
    while (!slow && !slow_claimed_.load()) std::this_thread::yield();
    size_t i = cursor_.fetch_add(1, std::memory_order_relaxed);
    if (slow && !slow_claimed_.exchange(true)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    if (i >= blocks_.size()) return NextResult::kEndOfFile;
    *out = blocks_[i];
    return NextResult::kSuccess;
  }
  void Close() override {}

 private:
  std::vector<BlockPtr> blocks_;
  const int slow_worker_id_;
  std::atomic<size_t> cursor_{0};
  std::atomic<bool> slow_claimed_{false};
};

// Opens `op` on three threads; worker 0 has a terminate request pending
// from the start, so it leaves after its first block. Returns each worker's
// Open result.
std::vector<NextResult> OpenWithOneTerminated(Iterator* op) {
  std::vector<NextResult> results(3);
  std::atomic<bool> terminate{true};
  std::vector<std::thread> threads;
  for (int w = 0; w < 3; ++w) {
    threads.emplace_back([&, w] {
      WorkerContext ctx;
      ctx.worker_id = w;
      if (w == 0) ctx.terminate_requested = &terminate;
      results[static_cast<size_t>(w)] = op->Open(&ctx);
    });
  }
  for (auto& t : threads) t.join();
  return results;
}

// The storage blocks of a table's first partition.
std::vector<BlockPtr> BlocksOf(const Table& t) {
  return t.partition(0).blocks();
}

// One kv block holding `rows` rows (k = i % mod, v = i), sized to fit even
// when `rows` exceeds the default block capacity; still writable.
std::shared_ptr<Block> MakeKVBlock(const Schema& s, int rows, int mod) {
  auto b = MakeBlock(s.row_size(),
                     std::max<int32_t>(kDefaultBlockBytes,
                                       (rows + 1) * s.row_size()));
  for (int i = 0; i < rows; ++i) {
    char* row = b->AppendRow();
    s.SetInt32(row, 0, i % mod);
    s.SetInt64(row, 1, i);
  }
  return b;
}

ExprPtr Col(const Schema& s, const char* name) {
  int i = s.FindColumn(name);
  EXPECT_GE(i, 0) << name;
  return MakeColumnRef(i, s.column(i).type, name);
}

// Runs `make_root` under an elastic iterator with `parallelism` workers and
// collects all output rows as Values.
std::vector<std::vector<Value>> RunElastic(std::unique_ptr<Iterator> root,
                                           const Schema& out_schema,
                                           int parallelism) {
  ElasticIterator::Options opts;
  opts.initial_parallelism = parallelism;
  ElasticIterator it(std::move(root), opts);
  WorkerContext ctx;
  EXPECT_EQ(it.Open(&ctx), NextResult::kSuccess);
  std::vector<std::vector<Value>> rows;
  BlockPtr block;
  while (it.Next(&ctx, &block) == NextResult::kSuccess) {
    for (int r = 0; r < block->num_rows(); ++r) {
      std::vector<Value> row;
      for (int c = 0; c < out_schema.num_columns(); ++c) {
        row.push_back(out_schema.GetValue(block->RowAt(r), c));
      }
      rows.push_back(std::move(row));
    }
  }
  it.Close();
  return rows;
}

// --- Scan -----------------------------------------------------------------------

TEST(ScanTest, ReadsAllRowsSingleWorker) {
  auto table = MakeKV(1000, 10);
  auto rows = RunElastic(
      std::make_unique<ScanIterator>(&table->partition(0), &table->schema()),
      table->schema(), 1);
  ASSERT_EQ(rows.size(), 1000u);
  std::set<int64_t> vs;
  for (const auto& r : rows) vs.insert(r[1].AsInt64());
  EXPECT_EQ(vs.size(), 1000u);
}

TEST(ScanTest, ParallelWorkersPartitionBlocks) {
  auto table = MakeKV(100000, 7);  // several blocks
  ASSERT_GT(table->partition(0).num_blocks(), 3);
  auto rows = RunElastic(
      std::make_unique<ScanIterator>(&table->partition(0), &table->schema()),
      table->schema(), 4);
  EXPECT_EQ(rows.size(), 100000u);
  int64_t sum = 0;
  for (const auto& r : rows) sum += r[1].AsInt64();
  EXPECT_EQ(sum, 100000LL * 99999 / 2);
}

TEST(ScanTest, ThreeWorkersShareOneCursor) {
  auto table = MakeKV(50000, 7);
  auto rows = RunElastic(
      std::make_unique<ScanIterator>(&table->partition(0), &table->schema()),
      table->schema(), 3);
  EXPECT_EQ(rows.size(), 50000u);
  // Every block was claimed once: no row is missing or repeated.
  std::set<int64_t> vs;
  for (const auto& r : rows) vs.insert(r[1].AsInt64());
  EXPECT_EQ(vs.size(), 50000u);
}

TEST(ScanTest, StatsCountInputTuples) {
  auto table = MakeKV(5000, 3);
  SegmentStats stats;
  ElasticIterator::Options opts;
  opts.initial_parallelism = 2;
  opts.stats = &stats;
  ElasticIterator it(
      std::make_unique<ScanIterator>(&table->partition(0), &table->schema()),
      opts);
  WorkerContext ctx;
  ASSERT_EQ(it.Open(&ctx), NextResult::kSuccess);
  BlockPtr b;
  while (it.Next(&ctx, &b) == NextResult::kSuccess) {
  }
  it.Close();
  EXPECT_EQ(stats.input_tuples.load(), 5000);
}

TEST(ScanTest, UnfilteredScanEmitsTheStorageBlocks) {
  // Storage blocks are read-only, so an unfiltered scan hands them on
  // without a copy, numbered by their storage index.
  auto table = MakeKV(50000, 7);
  const TablePartition& part = table->partition(0);
  ASSERT_GT(part.num_blocks(), 3);
  ScanIterator scan(&part, &table->schema());
  WorkerContext ctx;
  ASSERT_EQ(scan.Open(&ctx), NextResult::kSuccess);
  BlockPtr block;
  for (int i = 0; i < part.num_blocks(); ++i) {
    ASSERT_EQ(scan.Next(&ctx, &block), NextResult::kSuccess);
    EXPECT_EQ(block.get(), part.block(i).get()) << "block " << i;
    EXPECT_EQ(block->sequence_number(), static_cast<uint64_t>(i));
  }
  EXPECT_EQ(scan.Next(&ctx, &block), NextResult::kEndOfFile);
  scan.Close();
}

TEST(ScanTest, FusedPredicateFiltersDuringCopyOut) {
  // Predicate pushdown: a filter fused into the scan (ScanIterator::Options
  // ::predicate) must behave exactly like a FilterIterator above it — rows
  // filtered during copy-out, fully filtered blocks emitted as empty
  // watermarks, input-tuple stats still counting *storage* rows.
  auto table = MakeKV(10000, 10);
  const Schema& s = table->schema();
  ScanIterator::Options o;
  o.predicate = MakeCompare(CompareOp::kLt, Col(s, "k"),
                            MakeLiteral(Value::Int32(3)));
  SegmentStats stats;
  ElasticIterator::Options opts;
  opts.initial_parallelism = 2;
  opts.stats = &stats;
  ElasticIterator it(
      std::make_unique<ScanIterator>(&table->partition(0), &s, o), opts);
  WorkerContext ctx;
  ASSERT_EQ(it.Open(&ctx), NextResult::kSuccess);
  size_t rows = 0;
  BlockPtr block;
  while (it.Next(&ctx, &block) == NextResult::kSuccess) {
    for (int r = 0; r < block->num_rows(); ++r) {
      EXPECT_LT(s.GetInt32(block->RowAt(r), 0), 3);
      ++rows;
    }
  }
  it.Close();
  EXPECT_EQ(rows, 3000u);
  EXPECT_EQ(stats.input_tuples.load(), 10000);
}

// --- Filter / Project -----------------------------------------------------------

TEST(FilterTest, KeepsOnlyMatching) {
  auto table = MakeKV(10000, 10);
  const Schema& s = table->schema();
  ExprPtr pred = MakeCompare(CompareOp::kLt, Col(s, "k"),
                             MakeLiteral(Value::Int32(3)));
  auto scan = std::make_unique<ScanIterator>(&table->partition(0), &s);
  auto rows = RunElastic(
      std::make_unique<FilterIterator>(std::move(scan), &s, pred), s, 3);
  EXPECT_EQ(rows.size(), 3000u);
  for (const auto& r : rows) EXPECT_LT(r[0].AsInt64(), 3);
}

TEST(FilterTest, ZeroSelectivity) {
  auto table = MakeKV(5000, 10);
  const Schema& s = table->schema();
  ExprPtr pred = MakeCompare(CompareOp::kEq, Col(s, "k"),
                             MakeLiteral(Value::Int32(99)));
  auto scan = std::make_unique<ScanIterator>(&table->partition(0), &s);
  auto rows = RunElastic(
      std::make_unique<FilterIterator>(std::move(scan), &s, pred), s, 2);
  EXPECT_TRUE(rows.empty());
}

TEST(FilterTest, FullyFilteredBlockEmitsEmptyWatermark) {
  // A block whose rows are all filtered must still come out — empty, with
  // the input's sequence number intact — so the order-preserving DataBuffer
  // learns the sequence was consumed. The old behavior (pull until a
  // non-empty output) silently dropped the sequence.
  Schema s({ColumnDef::Int32("k"), ColumnDef::Int64("v")});
  auto in = MakeKVBlock(s, 100, 10);
  in->set_sequence_number(7);
  ExprPtr pred = MakeCompare(CompareOp::kEq, Col(s, "k"),
                             MakeLiteral(Value::Int32(99)));
  FilterIterator f(std::make_unique<BlocksIterator>(
                       std::vector<BlockPtr>{std::move(in)}),
                   &s, pred);
  WorkerContext ctx;
  ASSERT_EQ(f.Open(&ctx), NextResult::kSuccess);
  BlockPtr out;
  ASSERT_EQ(f.Next(&ctx, &out), NextResult::kSuccess);
  EXPECT_EQ(out->num_rows(), 0);
  EXPECT_EQ(out->sequence_number(), 7u);
  EXPECT_EQ(f.Next(&ctx, &out), NextResult::kEndOfFile);
  f.Close();
}

TEST(FilterTest, NearZeroSelectivityOrderPreserving) {
  // ~0.1% selectivity through an order-preserving elastic pipeline: the
  // watermark advances from empty filter outputs must keep the merge moving
  // and the surviving rows in sequence order.
  auto table = MakeKV(100000, 1000);
  const Schema& s = table->schema();
  ExprPtr pred = MakeCompare(CompareOp::kEq, Col(s, "k"),
                             MakeLiteral(Value::Int32(3)));
  auto scan = std::make_unique<ScanIterator>(&table->partition(0), &s);
  auto filter =
      std::make_unique<FilterIterator>(std::move(scan), &s, pred);
  ElasticIterator::Options opts;
  opts.initial_parallelism = 3;
  opts.order_preserving = true;
  ElasticIterator it(std::move(filter), opts);
  WorkerContext ctx;
  ASSERT_EQ(it.Open(&ctx), NextResult::kSuccess);
  int64_t prev_v = -1;
  size_t count = 0;
  BlockPtr block;
  while (it.Next(&ctx, &block) == NextResult::kSuccess) {
    for (int r = 0; r < block->num_rows(); ++r) {
      int64_t v = s.GetInt64(block->RowAt(r), 1);
      ASSERT_GT(v, prev_v);  // sequence order ⇒ v strictly ascending
      prev_v = v;
      ++count;
    }
  }
  it.Close();
  EXPECT_EQ(count, 100u);
}

TEST(FilterTest, OversizedInputBlockNotTruncated) {
  // Input blocks can exceed the default 64 KB (a widening upstream operator
  // sizes by its payload). The filter must size its output to the input's
  // row count — the old default-capacity output silently truncated.
  Schema s({ColumnDef::Int32("k"), ColumnDef::Int64("v")});
  const int kRows = 9000;  // > 64 KB / 12 B = 5461 default-capacity rows
  auto big = MakeKVBlock(s, kRows, 10);
  ASSERT_GT(kRows, MakeBlock(s.row_size())->capacity_rows());
  ExprPtr all = MakeCompare(CompareOp::kGe, Col(s, "k"),
                            MakeLiteral(Value::Int32(0)));
  FilterIterator f(std::make_unique<BlocksIterator>(
                       std::vector<BlockPtr>{std::move(big)}),
                   &s, all);
  WorkerContext ctx;
  ASSERT_EQ(f.Open(&ctx), NextResult::kSuccess);
  BlockPtr out;
  ASSERT_EQ(f.Next(&ctx, &out), NextResult::kSuccess);
  EXPECT_EQ(out->num_rows(), kRows);
  f.Close();
}

TEST(ProjectTest, ComputesExpressions) {
  auto table = MakeKV(1000, 10);
  const Schema& s = table->schema();
  Schema out({ColumnDef::Int64("v2"), ColumnDef::Int32("k")});
  std::vector<ExprPtr> exprs = {
      MakeArith(ArithOp::kMul, Col(s, "v"), MakeLiteral(Value::Int64(2))),
      Col(s, "k")};
  auto scan = std::make_unique<ScanIterator>(&table->partition(0), &s);
  auto rows = RunElastic(std::make_unique<ProjectIterator>(std::move(scan), &s,
                                                           out, exprs),
                         out, 2);
  ASSERT_EQ(rows.size(), 1000u);
  int64_t sum = 0;
  for (const auto& r : rows) sum += r[0].AsInt64();
  EXPECT_EQ(sum, 2LL * 999 * 1000 / 2);
}

TEST(ProjectTest, WiderOutputRows) {
  // Output row wider than input row must not overflow blocks.
  Schema narrow({ColumnDef::Int32("x")});
  auto t = std::make_unique<Table>("n", narrow, 1, std::vector<int>{});
  for (int i = 0; i < 50000; ++i) t->AppendValues({Value::Int32(i)});
  Schema wide({ColumnDef::Int32("x"), ColumnDef::Char("pad", 60)});
  std::vector<ExprPtr> exprs = {Col(narrow, "x"),
                                MakeLiteral(Value::String("abc"))};
  auto scan = std::make_unique<ScanIterator>(&t->partition(0), &narrow);
  auto rows = RunElastic(std::make_unique<ProjectIterator>(std::move(scan),
                                                           &narrow, wide,
                                                           exprs),
                         wide, 2);
  EXPECT_EQ(rows.size(), 50000u);
}

// --- Hash join ------------------------------------------------------------------

TEST(HashJoinTest, InnerEquiJoin) {
  // Build: 20 rows keys 0..19; Probe: 100 rows keys i%25 (keys 20-24 miss).
  auto build_table = MakeKV(20, 20);
  auto probe_table = MakeKV(100, 25);
  const Schema& bs = build_table->schema();
  const Schema& ps = probe_table->schema();
  HashJoinIterator::Spec spec;
  spec.build_schema = &bs;
  spec.probe_schema = &ps;
  spec.build_keys = {0};
  spec.probe_keys = {0};
  auto join = std::make_unique<HashJoinIterator>(
      std::make_unique<ScanIterator>(&build_table->partition(0), &bs),
      std::make_unique<ScanIterator>(&probe_table->partition(0), &ps), spec);
  Schema out = join->output_schema();
  auto rows = RunElastic(std::move(join), out, 3);
  // Probe keys 0..19 hit once each: i%25 < 20 → 80 of 100 probe rows match.
  EXPECT_EQ(rows.size(), 80u);
  for (const auto& r : rows) {
    EXPECT_EQ(r[0].AsInt64(), r[2].AsInt64());  // k == r_k
  }
}

TEST(HashJoinTest, DuplicateBuildKeysFanOut) {
  auto build_table = MakeKV(40, 4);   // 10 build rows per key
  auto probe_table = MakeKV(8, 4);    // 2 probe rows per key
  const Schema& bs = build_table->schema();
  const Schema& ps = probe_table->schema();
  HashJoinIterator::Spec spec;
  spec.build_schema = &bs;
  spec.probe_schema = &ps;
  spec.build_keys = {0};
  spec.probe_keys = {0};
  auto join = std::make_unique<HashJoinIterator>(
      std::make_unique<ScanIterator>(&build_table->partition(0), &bs),
      std::make_unique<ScanIterator>(&probe_table->partition(0), &ps), spec);
  Schema out = join->output_schema();
  auto rows = RunElastic(std::move(join), out, 2);
  EXPECT_EQ(rows.size(), 80u);  // 8 probe rows × 10 matches
}

TEST(HashJoinTest, ParallelBuildCorrect) {
  auto build_table = MakeKV(50000, 1000);
  auto probe_table = MakeKV(1000, 1000);
  const Schema& bs = build_table->schema();
  const Schema& ps = probe_table->schema();
  HashJoinIterator::Spec spec;
  spec.build_schema = &bs;
  spec.probe_schema = &ps;
  spec.build_keys = {0};
  spec.probe_keys = {0};
  auto join = std::make_unique<HashJoinIterator>(
      std::make_unique<ScanIterator>(&build_table->partition(0), &bs),
      std::make_unique<ScanIterator>(&probe_table->partition(0), &ps), spec);
  auto* join_raw = join.get();
  Schema out = join->output_schema();
  // Drain inline (not via RunElastic) so `it` — which owns the join — is
  // still alive when build_rows() is inspected below.
  ElasticIterator::Options opts;
  opts.initial_parallelism = 4;
  ElasticIterator it(std::move(join), opts);
  WorkerContext ctx;
  ASSERT_EQ(it.Open(&ctx), NextResult::kSuccess);
  size_t rows = 0;
  BlockPtr block;
  while (it.Next(&ctx, &block) == NextResult::kSuccess) {
    rows += static_cast<size_t>(block->num_rows());
  }
  EXPECT_EQ(join_raw->build_rows(), 50000);
  EXPECT_EQ(rows, 50000u);  // every build row matched exactly once
  it.Close();
}

// Joins one build block with one probe block on column 0, hashing through
// `pool`; returns the single output block.
BlockPtr JoinOneProbeBlock(const Schema& bs, const Schema& ps, BlockPtr build,
                           BlockPtr probe, BlockPool* pool) {
  HashJoinIterator::Spec spec;
  spec.build_schema = &bs;
  spec.probe_schema = &ps;
  spec.build_keys = {0};
  spec.probe_keys = {0};
  spec.pool = pool;
  HashJoinIterator join(
      std::make_unique<BlocksIterator>(std::vector<BlockPtr>{std::move(build)}),
      std::make_unique<BlocksIterator>(std::vector<BlockPtr>{std::move(probe)}),
      spec);
  WorkerContext ctx;
  EXPECT_EQ(join.Open(&ctx), NextResult::kSuccess);
  BlockPtr out;
  EXPECT_EQ(join.Next(&ctx, &out), NextResult::kSuccess);
  BlockPtr end;
  EXPECT_EQ(join.Next(&ctx, &end), NextResult::kEndOfFile);
  join.Close();
  return out;
}

TEST(HashJoinTest, NoMatchProbeBlockEmitsEmptyWatermark) {
  // A probe block with zero matches still comes out (empty, sequence number
  // preserved) so order-preserving consumers see the sequence was consumed.
  Schema bs({ColumnDef::Int32("k"), ColumnDef::Int64("v")});
  Schema ps({ColumnDef::Int32("k"), ColumnDef::Int64("v")});
  BlockPool pool;
  auto build = MakeKVBlock(bs, 10, 10);       // keys 0..9
  auto probe = MakeKVBlock(ps, 20, 20);       // keys 0..19
  for (int i = 0; i < probe->num_rows(); ++i) {
    ps.SetInt32(probe->MutableRowAt(i), 0, 100 + i);  // no hits
  }
  probe->set_sequence_number(5);
  BlockPtr out =
      JoinOneProbeBlock(bs, ps, std::move(build), std::move(probe), &pool);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->num_rows(), 0);
  EXPECT_EQ(out->sequence_number(), 5u);
}

TEST(HashJoinTest, HighFanOutGrowsTheOutputBlockAndMatchesNestedLoop) {
  // Every probe key matches 64 build rows: 256 probe rows emit 16384 rows,
  // six times a default block, all into the one output block of this probe
  // block, which must double through the pool past 4 x 64 KiB.
  constexpr int kKeys = 16;
  constexpr int kFanOut = 64;
  constexpr int kProbeRows = 256;
  Schema bs({ColumnDef::Int32("k"), ColumnDef::Int64("v")});
  Schema ps({ColumnDef::Int32("k"), ColumnDef::Int64("v")});
  BlockPool pool;
  BlockPtr build = MakeKVBlock(bs, kKeys * kFanOut, kKeys);
  auto probe = MakeKVBlock(ps, kProbeRows, kKeys);
  probe->set_sequence_number(9);
  BlockPtr out = JoinOneProbeBlock(bs, ps, build, probe, &pool);
  ASSERT_NE(out, nullptr);
  EXPECT_GT(out->capacity_bytes(), 4 * kDefaultBlockBytes);
  EXPECT_EQ(out->sequence_number(), 9u);

  // Nested-loop reference: every (build, probe) pair with equal keys, as
  // [build row | probe row], compared as a multiset.
  std::vector<std::string> want;
  for (int p = 0; p < probe->num_rows(); ++p) {
    for (int b = 0; b < build->num_rows(); ++b) {
      if (bs.GetInt32(build->RowAt(b), 0) != ps.GetInt32(probe->RowAt(p), 0)) {
        continue;
      }
      want.push_back(std::string(build->RowAt(b), bs.row_size()) +
                     std::string(probe->RowAt(p), ps.row_size()));
    }
  }
  const Schema out_schema = JoinOutputSchema(bs, ps);
  std::vector<std::string> got;
  for (int r = 0; r < out->num_rows(); ++r) {
    got.emplace_back(out->RowAt(r), out_schema.row_size());
  }
  ASSERT_EQ(want.size(), static_cast<size_t>(kProbeRows * kFanOut));
  std::sort(want.begin(), want.end());
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, want);
}

// A join of two kv schemas on column 0, sized for `estimate` build rows.
HashJoinIterator::Spec KVJoinSpec(const Schema& bs, const Schema& ps,
                                  int64_t estimate) {
  HashJoinIterator::Spec spec;
  spec.build_schema = &bs;
  spec.probe_schema = &ps;
  spec.build_keys = {0};
  spec.probe_keys = {0};
  spec.expected_build_rows = static_cast<size_t>(estimate);
  return spec;
}

// Drains an opened operator on the calling thread; its rows as sorted bytes.
std::vector<std::string> DrainBytes(Iterator* it, const Schema& out) {
  std::vector<std::string> rows;
  WorkerContext ctx;
  BlockPtr block;
  while (it->Next(&ctx, &block) == NextResult::kSuccess) {
    for (int r = 0; r < block->num_rows(); ++r) {
      rows.emplace_back(block->RowAt(r), out.row_size());
    }
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

// Every (build, probe) pair with equal keys, as sorted [build | probe] bytes.
std::vector<std::string> NestedLoopJoin(const Table& build,
                                        const Table& probe) {
  std::vector<std::string> rows;
  const Schema& bs = build.schema();
  const Schema& ps = probe.schema();
  for (const BlockPtr& pb : BlocksOf(probe)) {
    for (int p = 0; p < pb->num_rows(); ++p) {
      for (const BlockPtr& bb : BlocksOf(build)) {
        for (int b = 0; b < bb->num_rows(); ++b) {
          if (bs.GetInt32(bb->RowAt(b), 0) == ps.GetInt32(pb->RowAt(p), 0)) {
            rows.push_back(std::string(bb->RowAt(b), bs.row_size()) +
                           std::string(pb->RowAt(p), ps.row_size()));
          }
        }
      }
    }
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

TEST(HashJoinTest, SmallBuildGetsASmallBucketArray) {
  // 25 rows take 128 slots (at most a quarter full), not a fixed 64 K
  // (512 KiB).
  auto build_table = MakeKV(25, 25);
  auto probe_table = MakeKV(100, 30);
  const Schema& bs = build_table->schema();
  const Schema& ps = probe_table->schema();
  HashJoinIterator join(
      std::make_unique<ScanIterator>(&build_table->partition(0), &bs),
      std::make_unique<ScanIterator>(&probe_table->partition(0), &ps),
      KVJoinSpec(bs, ps, 25));
  WorkerContext ctx;
  ASSERT_EQ(join.Open(&ctx), NextResult::kSuccess);
  EXPECT_EQ(join.table().slot_count(), 128u);
  EXPECT_EQ(DrainBytes(&join, join.output_schema()),
            NestedLoopJoin(*build_table, *probe_table));
  join.Close();
}

// A 10 000-row build whose estimate says 1 row: the build grows the table
// so that its keys end at most a quarter full.
class UnderestimatedBuildTest : public ::testing::TestWithParam<int> {};

TEST_P(UnderestimatedBuildTest, GrowsAndMatchesNestedLoop) {
  auto build_table = MakeKV(10000, 7000);
  auto probe_table = MakeKV(800, 8000);
  const Schema& bs = build_table->schema();
  const Schema& ps = probe_table->schema();
  auto join = std::make_unique<HashJoinIterator>(
      std::make_unique<ScanIterator>(&build_table->partition(0), &bs),
      std::make_unique<ScanIterator>(&probe_table->partition(0), &ps),
      KVJoinSpec(bs, ps, 1));
  HashJoinIterator* join_raw = join.get();
  const Schema out = join->output_schema();
  ElasticIterator::Options opts;
  opts.initial_parallelism = GetParam();
  ElasticIterator it(std::move(join), opts);
  WorkerContext ctx;
  ASSERT_EQ(it.Open(&ctx), NextResult::kSuccess);
  std::vector<std::string> rows;
  BlockPtr block;
  while (it.Next(&ctx, &block) == NextResult::kSuccess) {
    for (int r = 0; r < block->num_rows(); ++r) {
      rows.emplace_back(block->RowAt(r), out.row_size());
    }
  }
  std::sort(rows.begin(), rows.end());
  EXPECT_EQ(join_raw->build_rows(), 10000);
  EXPECT_LE(4 * join_raw->table().key_count(),
            static_cast<int64_t>(join_raw->table().slot_count()));
  EXPECT_EQ(rows, NestedLoopJoin(*build_table, *probe_table));
  it.Close();
}

INSTANTIATE_TEST_SUITE_P(Workers, UnderestimatedBuildTest,
                         ::testing::Values(1, 3));

TEST(HashJoinTest, BuildOpenedByATerminatedWorkerMatchesNestedLoop) {
  // Worker 0 takes a build block, holds it while workers 1 and 2 build the
  // rest and arrive, then inserts it and leaves: its Deregister opens the
  // barrier on the whole build, which grew while the three inserted.
  auto build_table = MakeKV(10000, 7000);
  auto probe_table = MakeKV(800, 8000);
  const Schema& bs = build_table->schema();
  const Schema& ps = probe_table->schema();
  HashJoinIterator join(
      std::make_unique<SlowWorkerSource>(BlocksOf(*build_table), 0),
      std::make_unique<ScanIterator>(&probe_table->partition(0), &ps),
      KVJoinSpec(bs, ps, 1));
  std::vector<NextResult> opened = OpenWithOneTerminated(&join);
  EXPECT_EQ(opened[0], NextResult::kTerminated);
  EXPECT_EQ(opened[1], NextResult::kSuccess);
  EXPECT_EQ(opened[2], NextResult::kSuccess);
  EXPECT_EQ(join.build_rows(), 10000);
  EXPECT_LE(4 * join.table().key_count(),
            static_cast<int64_t>(join.table().slot_count()));
  EXPECT_EQ(DrainBytes(&join, join.output_schema()),
            NestedLoopJoin(*build_table, *probe_table));
  join.Close();
}

TEST(HashJoinTest, LedgerRefusalFailsTheBuild) {
  // The build's entries outgrow the ledger: Open fails with kError and
  // rejected() latched, and the join's destruction refunds every chunk.
  auto build_table = MakeKV(50000, 1000);
  auto probe_table = MakeKV(10, 10);
  const Schema& bs = build_table->schema();
  const Schema& ps = probe_table->schema();
  QueryBudget ledger(1 << 18);
  {
    HashJoinIterator::Spec spec = KVJoinSpec(bs, ps, 50000);
    spec.budget = &ledger;
    HashJoinIterator join(
        std::make_unique<ScanIterator>(&build_table->partition(0), &bs),
        std::make_unique<ScanIterator>(&probe_table->partition(0), &ps), spec);
    WorkerContext ctx;
    EXPECT_EQ(join.Open(&ctx), NextResult::kError);
    EXPECT_TRUE(ledger.rejected());
    EXPECT_LT(join.build_rows(), 50000);
    join.Close();
  }
  EXPECT_EQ(ledger.charged_bytes(), 0);
}

// --- Hash aggregation -----------------------------------------------------------

HashAggIterator::Spec AggSpec(const Schema& s, HashAggIterator::Mode mode) {
  HashAggIterator::Spec spec;
  spec.input_schema = &s;
  spec.group_exprs = {Col(s, "k")};
  spec.group_names = {"k"};
  spec.aggregates = {
      {AggFn::kSum, Col(s, "v"), "sum_v"},
      {AggFn::kCount, nullptr, "cnt"},
      {AggFn::kAvg, Col(s, "v"), "avg_v"},
      {AggFn::kMin, Col(s, "v"), "min_v"},
      {AggFn::kMax, Col(s, "v"), "max_v"},
  };
  spec.mode = mode;
  return spec;
}

void CheckAggResult(const std::vector<std::vector<Value>>& rows, int mod,
                    int n) {
  ASSERT_EQ(rows.size(), static_cast<size_t>(mod));
  for (const auto& r : rows) {
    int64_t k = r[0].AsInt64();
    int64_t count = r[2].AsInt64();
    EXPECT_EQ(count, n / mod);
    // v values for group k: k, k+mod, k+2*mod, ...
    int64_t expect_sum = 0;
    for (int64_t v = k; v < n; v += mod) expect_sum += v;
    EXPECT_EQ(r[1].AsInt64(), expect_sum) << "group " << k;
    EXPECT_NEAR(r[3].AsFloat64(),
                static_cast<double>(expect_sum) / count, 1e-6);
    EXPECT_EQ(r[4].AsInt64(), k);                // min
    EXPECT_EQ(r[5].AsInt64(), n - mod + k);      // max
  }
}

class HashAggModeTest
    : public ::testing::TestWithParam<HashAggIterator::Mode> {};

TEST_P(HashAggModeTest, GroupsCorrectlyUnderParallelism) {
  const int kN = 20000;
  const int kMod = 8;
  auto table = MakeKV(kN, kMod);
  const Schema& s = table->schema();
  auto spec = AggSpec(s, GetParam());
  auto agg = std::make_unique<HashAggIterator>(
      std::make_unique<ScanIterator>(&table->partition(0), &s), spec);
  Schema out = agg->output_schema();
  auto rows = RunElastic(std::move(agg), out, 4);
  CheckAggResult(rows, kMod, kN);
}

INSTANTIATE_TEST_SUITE_P(AllModes, HashAggModeTest,
                         ::testing::Values(HashAggIterator::Mode::kShared,
                                           HashAggIterator::Mode::kIndependent,
                                           HashAggIterator::Mode::kHybrid));

TEST(HashAggTest, LargeCardinality) {
  const int kN = 30000;
  auto table = MakeKV(kN, kN);  // every row its own group
  const Schema& s = table->schema();
  auto spec = AggSpec(s, HashAggIterator::Mode::kHybrid);
  spec.hybrid_max_groups = 512;  // force flush cycles
  auto agg = std::make_unique<HashAggIterator>(
      std::make_unique<ScanIterator>(&table->partition(0), &s), spec);
  Schema out = agg->output_schema();
  auto rows = RunElastic(std::move(agg), out, 3);
  EXPECT_EQ(rows.size(), static_cast<size_t>(kN));
}

TEST(HashAggTest, HybridFlushesFoldExactly) {
  // More groups than a private table may hold: one worker's first flush
  // hands its table to the empty global table, later flushes merge into it;
  // with three workers the merges also run side by side.
  const int kN = 30000;
  const int kMod = 3000;
  auto table = MakeKV(kN, kMod);
  const Schema& s = table->schema();
  for (int workers : {1, 3}) {
    auto spec = AggSpec(s, HashAggIterator::Mode::kHybrid);
    spec.hybrid_max_groups = 512;
    auto agg = std::make_unique<HashAggIterator>(
        std::make_unique<ScanIterator>(&table->partition(0), &s), spec);
    Schema out = agg->output_schema();
    SCOPED_TRACE(workers);
    CheckAggResult(RunElastic(std::move(agg), out, workers), kMod, kN);
  }
}

TEST(HashAggTest, ShrinkMidAggregationLosesNothing) {
  const int kN = 50000;
  const int kMod = 5;
  auto table = MakeKV(kN, kMod);
  const Schema& s = table->schema();
  auto spec = AggSpec(s, HashAggIterator::Mode::kIndependent);
  auto agg = std::make_unique<HashAggIterator>(
      std::make_unique<ScanIterator>(&table->partition(0), &s), spec);
  Schema out = agg->output_schema();
  ElasticIterator::Options opts;
  opts.initial_parallelism = 4;
  ElasticIterator it(std::move(agg), opts);
  WorkerContext ctx;
  ASSERT_EQ(it.Open(&ctx), NextResult::kSuccess);
  it.Shrink();  // terminate a worker during the build
  std::vector<std::vector<Value>> rows;
  BlockPtr block;
  while (it.Next(&ctx, &block) == NextResult::kSuccess) {
    for (int r = 0; r < block->num_rows(); ++r) {
      std::vector<Value> row;
      for (int c = 0; c < out.num_columns(); ++c) {
        row.push_back(out.GetValue(block->RowAt(r), c));
      }
      rows.push_back(std::move(row));
    }
  }
  it.Close();
  CheckAggResult(rows, kMod, kN);
}

TEST(HashAggTest, NoGroupByGlobalAggregate) {
  auto table = MakeKV(1000, 10);
  const Schema& s = table->schema();
  HashAggIterator::Spec spec;
  spec.input_schema = &s;
  spec.aggregates = {{AggFn::kCount, nullptr, "cnt"},
                     {AggFn::kSum, Col(s, "v"), "sum_v"}};
  auto agg = std::make_unique<HashAggIterator>(
      std::make_unique<ScanIterator>(&table->partition(0), &s), spec);
  Schema out = agg->output_schema();
  auto rows = RunElastic(std::move(agg), out, 2);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].AsInt64(), 1000);
  EXPECT_EQ(rows[0][1].AsInt64(), 999 * 1000 / 2);
}

// --- Sort -----------------------------------------------------------------------

TEST(SortTest, SingleKeyAscending) {
  auto table = MakeKV(20000, 997);
  const Schema& s = table->schema();
  auto sort = std::make_unique<SortIterator>(
      std::make_unique<ScanIterator>(&table->partition(0), &s), &s,
      std::vector<SortKey>{{s.FindColumn("k"), true}});
  ElasticIterator::Options opts;
  opts.initial_parallelism = 3;
  opts.order_preserving = true;  // sort requires ordered emission
  ElasticIterator it(std::move(sort), opts);
  WorkerContext ctx;
  ASSERT_EQ(it.Open(&ctx), NextResult::kSuccess);
  int64_t prev = -1;
  size_t count = 0;
  BlockPtr block;
  while (it.Next(&ctx, &block) == NextResult::kSuccess) {
    for (int r = 0; r < block->num_rows(); ++r) {
      int64_t k = s.GetInt32(block->RowAt(r), 0);
      ASSERT_GE(k, prev);
      prev = k;
      ++count;
    }
  }
  it.Close();
  EXPECT_EQ(count, 20000u);
}

TEST(SortTest, MultiKeyMixedDirections) {
  auto table = MakeKV(5000, 13);
  const Schema& s = table->schema();
  auto sort = std::make_unique<SortIterator>(
      std::make_unique<ScanIterator>(&table->partition(0), &s), &s,
      std::vector<SortKey>{{0, true}, {1, false}});
  ElasticIterator::Options opts;
  opts.initial_parallelism = 2;
  opts.order_preserving = true;
  ElasticIterator it(std::move(sort), opts);
  WorkerContext ctx;
  ASSERT_EQ(it.Open(&ctx), NextResult::kSuccess);
  int64_t prev_k = -1;
  int64_t prev_v = INT64_MAX;
  size_t count = 0;
  BlockPtr block;
  while (it.Next(&ctx, &block) == NextResult::kSuccess) {
    for (int r = 0; r < block->num_rows(); ++r) {
      int64_t k = s.GetInt32(block->RowAt(r), 0);
      int64_t v = s.GetInt64(block->RowAt(r), 1);
      ASSERT_GE(k, prev_k);
      if (k == prev_k) ASSERT_LE(v, prev_v);  // v descending within k
      if (k != prev_k) prev_v = INT64_MAX;
      prev_k = k;
      prev_v = v;
      ++count;
    }
  }
  it.Close();
  EXPECT_EQ(count, 5000u);
}

TEST(SortTest, EmptyInput) {
  auto table = MakeKV(0, 1);
  const Schema& s = table->schema();
  auto sort = std::make_unique<SortIterator>(
      std::make_unique<ScanIterator>(&table->partition(0), &s), &s,
      std::vector<SortKey>{{0, true}});
  auto rows = RunElastic(std::move(sort), s, 2);
  EXPECT_TRUE(rows.empty());
}

TEST(SortTest, WorkerTerminatedBeforeTheFirstBarrierLosesNoRow) {
  // Worker 0 buffers a block after workers 1 and 2 have sorted every other
  // chunk and arrived, then leaves: the barrier's completion action must
  // sort that chunk before computing the separators.
  auto table = MakeKV(20000, 997);
  const Schema& s = table->schema();
  ASSERT_GT(BlocksOf(*table).size(), 3u);
  SortIterator sort(std::make_unique<SlowWorkerSource>(BlocksOf(*table), 0),
                    &s, std::vector<SortKey>{{0, true}, {1, true}});
  std::vector<NextResult> opened = OpenWithOneTerminated(&sort);
  EXPECT_EQ(opened[0], NextResult::kTerminated);
  EXPECT_EQ(opened[1], NextResult::kSuccess);
  EXPECT_EQ(opened[2], NextResult::kSuccess);
  WorkerContext ctx;
  std::vector<std::pair<int32_t, int64_t>> rows;
  BlockPtr block;
  while (sort.Next(&ctx, &block) == NextResult::kSuccess) {
    for (int r = 0; r < block->num_rows(); ++r) {
      rows.emplace_back(s.GetInt32(block->RowAt(r), 0),
                        s.GetInt64(block->RowAt(r), 1));
    }
  }
  sort.Close();
  EXPECT_EQ(rows.size(), 20000u);
  EXPECT_TRUE(std::is_sorted(rows.begin(), rows.end()));
  std::set<int64_t> values;
  for (const auto& r : rows) values.insert(r.second);
  EXPECT_EQ(values.size(), 20000u);  // every row once
}

TEST(RowComparatorTest, AllTypes) {
  Schema s({ColumnDef::Int32("i"), ColumnDef::Int64("l"),
            ColumnDef::Float64("f"), ColumnDef::Char("c", 8)});
  std::vector<char> a(s.row_size());
  std::vector<char> b(s.row_size());
  s.SetInt32(a.data(), 0, 1);
  s.SetInt32(b.data(), 0, 1);
  s.SetInt64(a.data(), 1, 5);
  s.SetInt64(b.data(), 1, 5);
  s.SetFloat64(a.data(), 2, 1.5);
  s.SetFloat64(b.data(), 2, 2.5);
  s.SetString(a.data(), 3, "x");
  s.SetString(b.data(), 3, "x");
  RowComparator cmp(&s, {{0, true}, {1, true}, {2, true}});
  EXPECT_LT(cmp.Compare(a.data(), b.data()), 0);
  RowComparator cmp_desc(&s, {{2, false}});
  EXPECT_GT(cmp_desc.Compare(a.data(), b.data()), 0);
  RowComparator cmp_str(&s, {{3, true}});
  EXPECT_EQ(cmp_str.Compare(a.data(), b.data()), 0);
}

}  // namespace
}  // namespace claims
