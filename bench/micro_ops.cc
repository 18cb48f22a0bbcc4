// google-benchmark micro benchmarks of the real engine's building blocks:
// expression evaluation, LIKE matching, hash tables, block buffers, the
// elastic iterator's expansion/shrink machinery, and the exchange's split
// and wire frames.

#include <benchmark/benchmark.h>

#include "cluster/exchange.h"
#include "common/string_util.h"
#include "core/data_buffer.h"
#include "core/elastic_iterator.h"
#include "exec/expr/batch_expr.h"
#include "exec/expr/like.h"
#include "exec/expr/expr.h"
#include "exec/hash_table.h"
#include "exec/ops/filter.h"
#include "exec/ops/hash_agg.h"
#include "exec/ops/hash_join.h"
#include "exec/ops/scan.h"
#include "net/wire_frame.h"
#include "storage/datagen/sse_gen.h"
#include "storage/datagen/tpch_gen.h"
#include "storage/partition.h"
#include "storage/table.h"

namespace claims {
namespace {

void BM_LikeMatch(benchmark::State& state) {
  std::string text = "the quick brown fox jumps over the lazy dog";
  for (auto _ : state) {
    benchmark::DoNotOptimize(LikeMatch(text, "%quick%lazy%"));
  }
}
BENCHMARK(BM_LikeMatch);

void BM_ExprFilterEval(benchmark::State& state) {
  Schema s({ColumnDef::Int32("a"), ColumnDef::Float64("b")});
  std::vector<char> row(s.row_size());
  s.SetInt32(row.data(), 0, 42);
  s.SetFloat64(row.data(), 1, 3.14);
  ExprPtr pred = MakeLogic(
      LogicOp::kAnd,
      MakeCompare(CompareOp::kGt, MakeColumnRef(0, DataType::kInt32),
                  MakeLiteral(Value::Int32(10))),
      MakeCompare(CompareOp::kLt, MakeColumnRef(1, DataType::kFloat64),
                  MakeLiteral(Value::Float64(10.0))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(pred->EvalBool(s, row.data()));
  }
}
BENCHMARK(BM_ExprFilterEval);

// One insert per iteration into a table sized for the 64 K keys it takes, as
// the planner's build estimate sizes a join's table: no insert grows it. A
// fresh table replaces a full one outside the timed region.
void BM_JoinHashTableInsert(benchmark::State& state) {
  Schema s({ColumnDef::Int32("k"), ColumnDef::Int64("v")});
  constexpr int32_t kKeys = 1 << 16;
  std::vector<char> row(s.row_size());
  std::unique_ptr<JoinHashTable> table;
  int32_t k = kKeys;
  for (auto _ : state) {
    if (k == kKeys) {
      state.PauseTiming();
      table = std::make_unique<JoinHashTable>(&s, std::vector<int>{0}, kKeys);
      k = 0;
      state.ResumeTiming();
    }
    s.SetInt32(row.data(), 0, k++);
    table->Insert(row.data());
  }
}
BENCHMARK(BM_JoinHashTableInsert);

/// `n` packed keys of `schema` with values of the workloads' keys: order and
/// customer keys, line numbers, dates, Q1's flags, customer names, and
/// FLOAT64 averages of which a quarter are integral.
std::vector<char> KeyRows(const Schema& schema, int32_t n) {
  std::vector<char> rows(static_cast<size_t>(n) * schema.row_size());
  uint64_t rng = 11;
  auto next = [&] {
    rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
    return rng >> 33;
  };
  const char* flags[] = {"A", "N", "R", "F", "O"};
  for (int32_t i = 0; i < n; ++i) {
    char* row = &rows[static_cast<size_t>(i) * schema.row_size()];
    for (int c = 0; c < schema.num_columns(); ++c) {
      const ColumnDef& col = schema.column(c);
      switch (col.type) {
        case DataType::kInt32:  // a line number after a key
          schema.SetInt32(row, c,
                          static_cast<int32_t>(c == 1 ? 1 + next() % 7
                                                      : next() % 600000));
          break;
        case DataType::kDate:
          schema.SetInt32(row, c, static_cast<int32_t>(8000 + next() % 2500));
          break;
        case DataType::kInt64:
          schema.SetInt64(row, c, static_cast<int64_t>(next()));
          break;
        case DataType::kFloat64:
          schema.SetFloat64(row, c, static_cast<double>(next() % 40000) / 4);
          break;
        case DataType::kChar:
          schema.SetString(
              row, c,
              col.char_width == 1
                  ? flags[c == 0 ? next() % 3 : 3 + next() % 2]
                  : StrFormat("Customer#%09llu",
                              static_cast<unsigned long long>(next() % 75000)));
          break;
      }
    }
  }
  return rows;
}

// The one key hash (HashKeys) over a block's worth of packed keys, per key
// shape the workloads' tables and exchanges hash: an INT32 (joins, SSE-Q7's
// groups), two INT32s (lineitem's key), INT32+DATE+INT32 (Q3's groups),
// CHAR(1) x 2 (Q1's groups), CHAR(25) (names) and FLOAT64 (a derived
// average).
void BM_KeyHash(benchmark::State& state, const Schema& schema) {
  constexpr int32_t kRows = 1024;
  const std::vector<char> rows = KeyRows(schema, kRows);
  std::vector<int> cols;
  for (int c = 0; c < schema.num_columns(); ++c) cols.push_back(c);
  std::vector<uint64_t> hashes(kRows);
  for (auto _ : state) {
    HashKeys(schema, rows.data(), schema.row_size(), cols, kRows,
             hashes.data());
    benchmark::DoNotOptimize(hashes.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kRows);
}
BENCHMARK_CAPTURE(BM_KeyHash, int32, Schema({ColumnDef::Int32("k")}));
BENCHMARK_CAPTURE(BM_KeyHash, int32x2,
                  Schema({ColumnDef::Int32("o"), ColumnDef::Int32("l")}));
BENCHMARK_CAPTURE(BM_KeyHash, int32_date_int32,
                  Schema({ColumnDef::Int32("o"), ColumnDef::Date("d"),
                          ColumnDef::Int32("p")}));
BENCHMARK_CAPTURE(BM_KeyHash, char1x2,
                  Schema({ColumnDef::Char("rf", 1),
                          ColumnDef::Char("ls", 1)}));
BENCHMARK_CAPTURE(BM_KeyHash, char25, Schema({ColumnDef::Char("name", 25)}));
BENCHMARK_CAPTURE(BM_KeyHash, float64, Schema({ColumnDef::Float64("avg")}));

void BM_JoinHashTableProbe(benchmark::State& state) {
  Schema s({ColumnDef::Int32("k"), ColumnDef::Int64("v")});
  JoinHashTable table(&s, {0}, 1 << 16);
  std::vector<char> row(s.row_size());
  for (int i = 0; i < 100000; ++i) {
    s.SetInt32(row.data(), 0, i);
    table.Insert(row.data());
  }
  int32_t k = 0;
  for (auto _ : state) {
    s.SetInt32(row.data(), 0, (k++) % 100000);
    int64_t matches = 0;
    table.ForEachMatch(s, row.data(), {0},
                       [&](const char*) { ++matches; });
    benchmark::DoNotOptimize(matches);
  }
}
BENCHMARK(BM_JoinHashTableProbe);

void BM_AggHashTableUpdate(benchmark::State& state) {
  Schema group({ColumnDef::Int32("g")});
  AggHashTable table(group, 2, 1 << 12);
  std::vector<AggFn> fns = {AggFn::kSum, AggFn::kCount};
  std::vector<char> row(group.row_size());
  double values[2] = {1.0, 0};
  int64_t weights[2] = {1, 1};
  int32_t g = 0;
  const int32_t groups = static_cast<int32_t>(state.range(0));
  for (auto _ : state) {
    group.SetInt32(row.data(), 0, (g++) % groups);
    table.Update(row.data(), fns, values, weights);
  }
}
BENCHMARK(BM_AggHashTableUpdate)->Arg(4)->Arg(1 << 16);

void BM_DataBufferInsertPop(benchmark::State& state) {
  DataBuffer buf({.capacity_blocks = 1024});
  buf.AddProducer(0);
  auto block = MakeBlock(8, 64);
  block->AppendRow();
  for (auto _ : state) {
    buf.Insert(0, block);
    BlockPtr out;
    buf.Pop(&out);
  }
}
BENCHMARK(BM_DataBufferInsertPop);

void BM_ScanThroughput(benchmark::State& state) {
  Schema s({ColumnDef::Int32("k"), ColumnDef::Int64("v")});
  Table t("t", s, 1, {});
  for (int i = 0; i < 200000; ++i) {
    char* row = t.AppendRowSlotRoundRobin();
    s.SetInt32(row, 0, i);
    s.SetInt64(row, 1, i);
  }
  for (auto _ : state) {
    ScanIterator scan(&t.partition(0), &s);
    WorkerContext ctx;
    scan.Open(&ctx);
    BlockPtr b;
    int64_t rows = 0;
    while (scan.Next(&ctx, &b) == NextResult::kSuccess) rows += b->num_rows();
    benchmark::DoNotOptimize(rows);
    scan.Close();
  }
  state.SetItemsProcessed(state.iterations() * 200000);
}
BENCHMARK(BM_ScanThroughput);

void BM_ElasticExpandShrink(benchmark::State& state) {
  // Cost of one expand+shrink cycle on a live pipeline. A LIKE filter keeps
  // the pipeline busy long enough for a bounded number of cycles.
  Schema s({ColumnDef::Int32("k"), ColumnDef::Char("c", 32)});
  Table t("t", s, 1, {});
  for (int i = 0; i < 8000000; ++i) {
    char* row = t.AppendRowSlotRoundRobin();
    s.SetInt32(row, 0, i);
    s.SetString(row, 1, "the quick brown fox jumps");
  }
  ElasticIterator::Options opts;
  opts.initial_parallelism = 2;
  opts.buffer_capacity_blocks = 4096;
  auto scan = std::make_unique<ScanIterator>(&t.partition(0), &s);
  auto filter = std::make_unique<FilterIterator>(
      std::move(scan), &s,
      MakeLike(MakeColumnRef(1, DataType::kChar, "c"), "%quick%jumps%",
               /*negated=*/true));
  ElasticIterator it(std::move(filter), opts);
  WorkerContext ctx;
  it.Open(&ctx);
  std::thread consumer([&] {
    BlockPtr b;
    while (it.Next(&ctx, &b) == NextResult::kSuccess) {
    }
  });
  int core = 2;
  for (auto _ : state) {
    if (it.finished()) {
      state.SkipWithError("pipeline drained before the cycle budget");
      break;
    }
    benchmark::DoNotOptimize(it.ExpandMeasured(core++));
    benchmark::DoNotOptimize(it.ShrinkBlocking());
  }
  it.Close();
  consumer.join();
}
BENCHMARK(BM_ElasticExpandShrink)->Unit(benchmark::kMicrosecond)->Iterations(20);

// --- Batch kernels vs row-at-a-time references ---------------------------------
// Stable benchmark names: the CI perf-smoke job parses them by name and
// asserts each Batch variant beats its Scalar twin by >= 2x. The Scalar twins
// are row-at-a-time reference loops written here (Expr::Eval per row); the
// engine's operators no longer have such a loop.

/// One 64 KB block of {k: i%100, v: i, f: (i%7)*1.5}.
std::shared_ptr<Block> FillKVFBlock(const Schema& s) {
  auto b = MakeBlock(s.row_size());
  const int32_t n = b->capacity_rows();
  for (int32_t i = 0; i < n; ++i) {
    char* row = b->AppendRow();
    s.SetInt32(row, 0, i % 100);
    s.SetInt64(row, 1, i);
    s.SetFloat64(row, 2, (i % 7) * 1.5);
  }
  return b;
}

ExprPtr KVFPredicate() {
  // (k < 50 AND f < 6.0): ~29% selectivity, two typed compares.
  return MakeLogic(
      LogicOp::kAnd,
      MakeCompare(CompareOp::kLt, MakeColumnRef(0, DataType::kInt32),
                  MakeLiteral(Value::Int32(50))),
      MakeCompare(CompareOp::kLt, MakeColumnRef(2, DataType::kFloat64),
                  MakeLiteral(Value::Float64(6.0))));
}

void BM_FilterBlockScalar(benchmark::State& state) {
  Schema s({ColumnDef::Int32("k"), ColumnDef::Int64("v"),
            ColumnDef::Float64("f")});
  BlockPtr in = FillKVFBlock(s);
  ExprPtr pred = KVFPredicate();
  auto out = MakeBlock(s.row_size());
  const int32_t n = in->num_rows();
  for (auto _ : state) {
    out->Clear();
    for (int32_t i = 0; i < n; ++i) {
      if (pred->EvalBool(s, in->RowAt(i))) out->AppendRowCopy(in->RowAt(i));
    }
    benchmark::DoNotOptimize(out->num_rows());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_FilterBlockScalar);

void BM_FilterBlockBatch(benchmark::State& state) {
  Schema s({ColumnDef::Int32("k"), ColumnDef::Int64("v"),
            ColumnDef::Float64("f")});
  BlockPtr in = FillKVFBlock(s);
  auto bp = BatchPredicate::Compile(s, KVFPredicate());
  if (!bp->fully_compiled()) {
    state.SkipWithError("predicate fell back to the scalar node");
    return;
  }
  auto out = MakeBlock(s.row_size());
  const int32_t n = in->num_rows();
  std::vector<int32_t> sel(static_cast<size_t>(n));
  for (auto _ : state) {
    out->Clear();
    int32_t k = bp->FilterBlock(*in, nullptr, n, sel.data());
    out->AppendGather(*in, sel.data(), k);
    benchmark::DoNotOptimize(out->num_rows());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_FilterBlockBatch);

/// Replays fixed blocks (copies, so the consumer may not mutate the shared
/// originals across iterations).
class BlocksIterator : public Iterator {
 public:
  explicit BlocksIterator(const std::vector<BlockPtr>* blocks)
      : blocks_(blocks) {}
  NextResult Open(WorkerContext*) override { return NextResult::kSuccess; }
  NextResult Next(WorkerContext*, BlockPtr* out) override {
    size_t i = cursor_.fetch_add(1, std::memory_order_relaxed);
    if (i >= blocks_->size()) return NextResult::kEndOfFile;
    *out = std::make_shared<Block>(*(*blocks_)[i]);
    return NextResult::kSuccess;
  }
  void Close() override {}

 private:
  const std::vector<BlockPtr>* blocks_;
  std::atomic<size_t> cursor_{0};
};

/// A TPC-H Q1-shaped fold: CHAR group keys and a computed aggregate argument,
/// the workload where a row-at-a-time fold boxes a Value (with a string
/// allocation per group column) per row.
struct Q1Fold {
  Schema schema{{ColumnDef::Char("rf", 1), ColumnDef::Char("ls", 1),
                 ColumnDef::Float64("qty"), ColumnDef::Float64("price"),
                 ColumnDef::Float64("disc")}};
  std::vector<BlockPtr> blocks;
  int64_t rows = 0;
  std::vector<ExprPtr> group_exprs = {MakeColumnRef(0, DataType::kChar, "rf"),
                                      MakeColumnRef(1, DataType::kChar, "ls")};
  std::vector<HashAggIterator::Aggregate> aggregates = {
      {AggFn::kSum, MakeColumnRef(2, DataType::kFloat64, "qty"), "sum_qty"},
      {AggFn::kSum,
       MakeArith(ArithOp::kMul, MakeColumnRef(3, DataType::kFloat64, "price"),
                 MakeArith(ArithOp::kSub, MakeLiteral(Value::Float64(1.0)),
                           MakeColumnRef(4, DataType::kFloat64, "disc"))),
       "sum_disc_price"},
      {AggFn::kAvg, MakeColumnRef(4, DataType::kFloat64, "disc"), "avg_disc"},
      {AggFn::kCount, nullptr, "cnt"},
  };

  Q1Fold() {
    const char* flags[] = {"A", "N", "R"};
    const char* status[] = {"F", "O"};
    for (int i = 0; i < 16; ++i) {
      auto b = MakeBlock(schema.row_size());
      const int32_t cap = b->capacity_rows();
      for (int32_t r = 0; r < cap; ++r) {
        char* row = b->AppendRow();
        schema.SetString(row, 0, flags[r % 3]);
        schema.SetString(row, 1, status[r % 2]);
        schema.SetFloat64(row, 2, (r % 50) + 1.0);
        schema.SetFloat64(row, 3, 900.0 + (r % 1000));
        schema.SetFloat64(row, 4, (r % 11) / 100.0);
      }
      b->set_sequence_number(i);
      rows += cap;
      blocks.push_back(std::move(b));
    }
  }
};

// Reference fold: Eval per group expression and per argument, boxed through
// Value, then a locked AggHashTable::Update per row. Input comes through the
// same BlocksIterator as the batch twin, so the ratio compares fold loops.
void BM_HashAggFoldScalar(benchmark::State& state) {
  const Q1Fold q;
  const Schema group({ColumnDef::Char("rf", 1), ColumnDef::Char("ls", 1)});
  std::vector<AggFn> fns;
  for (const auto& a : q.aggregates) fns.push_back(a.fn);
  std::vector<char> group_row(group.row_size());
  std::vector<double> values(fns.size());
  std::vector<int64_t> weights(fns.size(), 1);
  for (auto _ : state) {
    AggHashTable table(group, static_cast<int>(fns.size()), 1 << 14);
    BlocksIterator input(&q.blocks);
    WorkerContext ctx;
    BlockPtr b;
    while (input.Next(&ctx, &b) == NextResult::kSuccess) {
      for (int32_t r = 0; r < b->num_rows(); ++r) {
        const char* row = b->RowAt(r);
        for (size_t g = 0; g < q.group_exprs.size(); ++g) {
          group.SetValue(group_row.data(), static_cast<int>(g),
                         q.group_exprs[g]->Eval(q.schema, row));
        }
        for (size_t a = 0; a < fns.size(); ++a) {
          const ExprPtr& arg = q.aggregates[a].arg;
          values[a] = arg != nullptr ? arg->Eval(q.schema, row).ToDouble() : 0;
        }
        table.Update(group_row.data(), fns, values.data(), weights.data());
      }
    }
    benchmark::DoNotOptimize(table.size());
  }
  state.SetItemsProcessed(state.iterations() * q.rows);
}
BENCHMARK(BM_HashAggFoldScalar);

void BM_HashAggFoldBatch(benchmark::State& state) {
  const Q1Fold q;
  HashAggIterator::Spec spec;
  spec.input_schema = &q.schema;
  spec.group_exprs = q.group_exprs;
  spec.group_names = {"rf", "ls"};
  spec.aggregates = q.aggregates;
  // kHybrid — the planner's default: workers fold into private tables, which
  // lets the fold take the exclusive (lock-free) update path.
  spec.mode = HashAggIterator::Mode::kHybrid;
  for (auto _ : state) {
    HashAggIterator agg(std::make_unique<BlocksIterator>(&q.blocks), spec);
    WorkerContext ctx;
    agg.Open(&ctx);
    BlockPtr b;
    int64_t groups = 0;
    while (agg.Next(&ctx, &b) == NextResult::kSuccess) groups += b->num_rows();
    benchmark::DoNotOptimize(groups);
    agg.Close();
  }
  state.SetItemsProcessed(state.iterations() * q.rows);
}
BENCHMARK(BM_HashAggFoldBatch);

// One aggregation instance over a small input (300 rows, 4 groups, one
// worker, kHybrid): the fixed cost every grouped query pays per HashAgg on
// session-sized data. Table set-up, the merge into the global table and the
// snapshot walk dominate here, not the fold.
void BM_HashAggSmallInput(benchmark::State& state) {
  Schema s({ColumnDef::Int32("k"), ColumnDef::Float64("v")});
  auto block = MakeBlock(s.row_size());
  for (int32_t r = 0; r < 300; ++r) {
    char* row = block->AppendRow();
    s.SetInt32(row, 0, r % 4);
    s.SetFloat64(row, 1, r);
  }
  const std::vector<BlockPtr> blocks = {std::move(block)};
  HashAggIterator::Spec spec;
  spec.input_schema = &s;
  spec.group_exprs = {MakeColumnRef(0, DataType::kInt32, "k")};
  spec.group_names = {"k"};
  spec.aggregates = {
      {AggFn::kSum, MakeColumnRef(1, DataType::kFloat64, "v"), "sum_v"},
      {AggFn::kCount, nullptr, "cnt"}};
  spec.mode = HashAggIterator::Mode::kHybrid;
  spec.pool = BlockPool::Global();
  for (auto _ : state) {
    HashAggIterator agg(std::make_unique<BlocksIterator>(&blocks), spec);
    WorkerContext ctx;
    agg.Open(&ctx);
    BlockPtr b;
    int64_t groups = 0;
    while (agg.Next(&ctx, &b) == NextResult::kSuccess) groups += b->num_rows();
    benchmark::DoNotOptimize(groups);
    agg.Close();
  }
  state.SetItemsProcessed(state.iterations() * 300);
}
BENCHMARK(BM_HashAggSmallInput);

// An SSE-Q7-shaped fold: 200 000 rows grouped on one INT32 key over about
// 20 000 groups, one SUM over INT64, one worker, kHybrid. The table grows
// from its starting size to tens of thousands of slots, and every lookup
// misses the L1 cache.
void BM_HashAggFoldManyGroups(benchmark::State& state) {
  Schema s({ColumnDef::Int32("sec"), ColumnDef::Int64("qty")});
  constexpr int32_t kRows = 200000;
  constexpr uint32_t kGroups = 20000;
  std::vector<BlockPtr> blocks;
  uint64_t rng = 1;
  for (int32_t done = 0; done < kRows;) {
    auto b = MakeBlock(s.row_size());
    for (int32_t r = 0; r < b->capacity_rows() && done < kRows; ++r, ++done) {
      rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
      char* row = b->AppendRow();
      s.SetInt32(row, 0, static_cast<int32_t>((rng >> 33) % kGroups));
      s.SetInt64(row, 1, static_cast<int64_t>(rng >> 54));
    }
    b->set_sequence_number(blocks.size());
    blocks.push_back(std::move(b));
  }
  HashAggIterator::Spec spec;
  spec.input_schema = &s;
  spec.group_exprs = {MakeColumnRef(0, DataType::kInt32, "sec")};
  spec.group_names = {"sec"};
  spec.aggregates = {
      {AggFn::kSum, MakeColumnRef(1, DataType::kInt64, "qty"), "sum_qty"}};
  spec.mode = HashAggIterator::Mode::kHybrid;
  spec.pool = BlockPool::Global();
  for (auto _ : state) {
    HashAggIterator agg(std::make_unique<BlocksIterator>(&blocks), spec);
    WorkerContext ctx;
    agg.Open(&ctx);
    BlockPtr b;
    int64_t groups = 0;
    while (agg.Next(&ctx, &b) == NextResult::kSuccess) groups += b->num_rows();
    benchmark::DoNotOptimize(groups);
    agg.Close();
  }
  state.SetItemsProcessed(state.iterations() * kRows);
}
BENCHMARK(BM_HashAggFoldManyGroups)->Unit(benchmark::kMillisecond);

void BM_HashJoinProbeBatch(benchmark::State& state) {
  Schema s({ColumnDef::Int32("k"), ColumnDef::Int64("v"),
            ColumnDef::Float64("f")});
  // Build: unique keys; probe: the kvf blocks (k in 0..99, all matching).
  std::vector<BlockPtr> build;
  {
    auto b = MakeBlock(s.row_size());
    for (int32_t i = 0; i < 100; ++i) {
      char* row = b->AppendRow();
      s.SetInt32(row, 0, i);
      s.SetInt64(row, 1, i);
      s.SetFloat64(row, 2, 0.0);
    }
    build.push_back(std::move(b));
  }
  std::vector<BlockPtr> probe;
  int64_t rows = 0;
  for (int i = 0; i < 8; ++i) {
    auto b = FillKVFBlock(s);
    b->set_sequence_number(i);
    rows += b->num_rows();
    probe.push_back(std::move(b));
  }
  HashJoinIterator::Spec spec;
  spec.build_schema = &s;
  spec.probe_schema = &s;
  spec.build_keys = {0};
  spec.probe_keys = {0};
  for (auto _ : state) {
    HashJoinIterator join(std::make_unique<BlocksIterator>(&build),
                          std::make_unique<BlocksIterator>(&probe), spec);
    WorkerContext ctx;
    join.Open(&ctx);
    BlockPtr b;
    int64_t matched = 0;
    while (join.Next(&ctx, &b) == NextResult::kSuccess) matched += b->num_rows();
    benchmark::DoNotOptimize(matched);
    join.Close();
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_HashJoinProbeBatch);

// The fixed cost of one join with a tiny build (TPC-H's nation or region):
// construct, open (a 25-row build whose spec carries its estimate), probe
// one block, close. The slot array follows the estimate: 128 slots here,
// where a fixed 64 K would zero 512 KiB per join.
void BM_HashJoinSmallBuild(benchmark::State& state) {
  Schema s({ColumnDef::Int32("k"), ColumnDef::Int64("v"),
            ColumnDef::Float64("f")});
  std::vector<BlockPtr> build;
  {
    auto b = MakeBlock(s.row_size());
    for (int32_t i = 0; i < 25; ++i) {
      char* row = b->AppendRow();
      s.SetInt32(row, 0, i);
      s.SetInt64(row, 1, i);
      s.SetFloat64(row, 2, 0.0);
    }
    build.push_back(std::move(b));
  }
  const std::vector<BlockPtr> probe = {FillKVFBlock(s)};
  HashJoinIterator::Spec spec;
  spec.build_schema = &s;
  spec.probe_schema = &s;
  spec.build_keys = {0};
  spec.probe_keys = {0};
  spec.expected_build_rows = 25;
  spec.pool = BlockPool::Global();
  for (auto _ : state) {
    HashJoinIterator join(std::make_unique<BlocksIterator>(&build),
                          std::make_unique<BlocksIterator>(&probe), spec);
    WorkerContext ctx;
    join.Open(&ctx);
    BlockPtr b;
    int64_t matched = 0;
    while (join.Next(&ctx, &b) == NextResult::kSuccess) matched += b->num_rows();
    benchmark::DoNotOptimize(matched);
    join.Close();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HashJoinSmallBuild);

// A join with a large build, the shape of Q9's orders build at SF 0.1: 150 000
// unique INT32 keys (every fourth integer, shuffled) sized from the
// estimate, then 600 000 probe rows drawn uniformly from four times the key
// range, so about a quarter of them match. One worker; the build and the
// probe both miss the L1 cache on nearly every row.
void BM_HashJoinManyKeys(benchmark::State& state) {
  Schema s({ColumnDef::Int32("k"), ColumnDef::Int64("v")});
  constexpr int32_t kBuildRows = 150000;
  constexpr int32_t kProbeRows = 600000;
  std::vector<int32_t> keys(kBuildRows);
  for (int32_t i = 0; i < kBuildRows; ++i) keys[i] = 4 * i;
  uint64_t rng = 7;
  auto next = [&] {
    rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
    return rng >> 33;
  };
  for (int32_t i = kBuildRows - 1; i > 0; --i) {
    std::swap(keys[i], keys[next() % static_cast<uint64_t>(i + 1)]);
  }
  auto fill = [&](int32_t rows, auto key_of) {
    std::vector<BlockPtr> blocks;
    for (int32_t done = 0; done < rows;) {
      auto b = MakeBlock(s.row_size());
      for (int32_t r = 0; r < b->capacity_rows() && done < rows; ++r, ++done) {
        char* row = b->AppendRow();
        s.SetInt32(row, 0, key_of(done));
        s.SetInt64(row, 1, done);
      }
      b->set_sequence_number(blocks.size());
      blocks.push_back(std::move(b));
    }
    return blocks;
  };
  const std::vector<BlockPtr> build =
      fill(kBuildRows, [&](int32_t i) { return keys[i]; });
  const std::vector<BlockPtr> probe = fill(kProbeRows, [&](int32_t) {
    return static_cast<int32_t>(next() % (4 * kBuildRows));
  });
  HashJoinIterator::Spec spec;
  spec.build_schema = &s;
  spec.probe_schema = &s;
  spec.build_keys = {0};
  spec.probe_keys = {0};
  spec.expected_build_rows = kBuildRows;
  spec.pool = BlockPool::Global();
  for (auto _ : state) {
    HashJoinIterator join(std::make_unique<BlocksIterator>(&build),
                          std::make_unique<BlocksIterator>(&probe), spec);
    WorkerContext ctx;
    join.Open(&ctx);
    BlockPtr b;
    int64_t matched = 0;
    while (join.Next(&ctx, &b) == NextResult::kSuccess) matched += b->num_rows();
    benchmark::DoNotOptimize(matched);
    join.Close();
  }
  state.SetItemsProcessed(state.iterations() * (kBuildRows + kProbeRows));
}
BENCHMARK(BM_HashJoinManyKeys)->Unit(benchmark::kMillisecond);

// --- The exchange's cross-host path: the shuffle's split and wire frames ------

/// One 64 KiB block of SSE-Q7's partial rows, (acct_id INT32, sum INT64):
/// the first block a kHybrid partial aggregation of 200 000 generated
/// trades emits, as a node of sse-netbound ships it to the final merge.
const Block& Q7PartialBlock(const Schema** schema) {
  static const auto* made = [] {
    auto* out = new std::pair<Schema, BlockPtr>();
    Catalog catalog;
    SseConfig sse;
    sse.trades_rows = 200000;
    sse.securities_rows = 1000;
    if (!GenerateSse(sse, &catalog).ok()) std::abort();
    TablePtr trades = *catalog.GetTable("trades");
    const Schema& ts = trades->schema();
    std::vector<BlockPtr> blocks = trades->partition(0).blocks();
    HashAggIterator::Spec spec;
    spec.input_schema = &ts;
    spec.group_exprs = {MakeColumnRef(0, DataType::kInt32, "acct_id")};
    spec.group_names = {"acct_id"};
    spec.aggregates = {{AggFn::kSum,
                        MakeColumnRef(5, DataType::kInt64, "trade_volume"),
                        "sum"}};
    spec.mode = HashAggIterator::Mode::kHybrid;
    spec.pool = BlockPool::Global();
    HashAggIterator agg(std::make_unique<BlocksIterator>(&blocks), spec);
    WorkerContext ctx;
    agg.Open(&ctx);
    if (agg.Next(&ctx, &out->second) != NextResult::kSuccess ||
        !out->second->full()) {
      std::abort();
    }
    agg.Close();
    out->first = agg.output_schema();
    return out;
  }();
  *schema = &made->first;
  return *made->second;
}

/// One 64 KiB storage block of TPC-H lineitem (141-byte rows, SF 0.01).
const Block& LineitemBlock(const Schema** schema) {
  static const auto* made = [] {
    auto* out = new std::pair<Schema, BlockPtr>();
    Catalog catalog;
    if (!GenerateTpch(TpchConfig{}, &catalog).ok()) std::abort();
    TablePtr lineitem = *catalog.GetTable("lineitem");
    out->first = lineitem->schema();
    out->second = lineitem->partition(0).block(0);
    return out;
  }();
  *schema = &made->first;
  return *made->second;
}

using SampleBlock = const Block& (*)(const Schema**);

// Encoding one block as the frame it crosses hosts in: ns/row is 1e9 over
// items_per_second, and bytes_ratio the rows' bytes over the frame's.
void BM_WireEncode(benchmark::State& state, SampleBlock sample) {
  const Schema* schema = nullptr;
  const Block& block = sample(&schema);
  int64_t frame_bytes = 0;
  for (auto _ : state) {
    FramePtr frame = WireFrame::Encode(*schema, block);
    frame_bytes = frame->bytes();
    benchmark::DoNotOptimize(frame.get());
  }
  state.SetItemsProcessed(state.iterations() * block.num_rows());
  state.counters["bytes_ratio"] =
      static_cast<double>(block.payload_bytes()) / frame_bytes;
}
BENCHMARK_CAPTURE(BM_WireEncode, sse_q7_partial, &Q7PartialBlock);
BENCHMARK_CAPTURE(BM_WireEncode, lineitem, &LineitemBlock);

// Decoding it into a fresh pooled block, as the receiving channel does.
void BM_WireDecode(benchmark::State& state, SampleBlock sample) {
  const Schema* schema = nullptr;
  const Block& block = sample(&schema);
  const FramePtr frame = WireFrame::Encode(*schema, block);
  for (auto _ : state) {
    BlockPtr decoded = frame->Decode();
    benchmark::DoNotOptimize(decoded->RowAt(0));
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * block.num_rows());
  state.counters["bytes_ratio"] =
      static_cast<double>(block.payload_bytes()) / frame->bytes();
}
BENCHMARK_CAPTURE(BM_WireDecode, sse_q7_partial, &Q7PartialBlock);
BENCHMARK_CAPTURE(BM_WireDecode, lineitem, &LineitemBlock);

// A shuffle's split of SSE-Q7's partial rows by acct_id over 2 and 4
// destinations (HashSplit), each filled destination block handed on and
// dropped.
void BM_ExchangeSplit(benchmark::State& state) {
  const Schema* schema = nullptr;
  const Block& block = Q7PartialBlock(&schema);
  HashSplit split(schema, {0}, static_cast<int>(state.range(0)));
  const HashSplit::Emit emit = [](int, BlockPtr full) {
    benchmark::DoNotOptimize(full.get());
    return true;
  };
  for (auto _ : state) split.Add(block, emit);
  state.SetItemsProcessed(state.iterations() * block.num_rows());
}
BENCHMARK(BM_ExchangeSplit)->Arg(2)->Arg(4);

}  // namespace
}  // namespace claims

BENCHMARK_MAIN();
