// Batch-kernel reference suite. The selection-vector kernels compiled by
// exec/expr/batch_expr.* must select, compute and materialize exactly what the
// row-at-a-time Expr::Eval / EvalBool evaluator does: same survivors in the
// same order, bit-identical doubles, byte-identical materialized rows. The
// operators built on them (scan with pushdown, filter, project, hash join,
// hash aggregation) are checked against row-at-a-time references written in
// this file, which share no code with the operators' inner loops. Random
// schemas / blocks / predicate trees are generated from fixed seeds so every
// failure is reproducible; uncompilable shapes (CASE) are mixed in to verify
// the per-node scalar fallback keeps the equivalence.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "exec/expr/batch_expr.h"
#include "exec/expr/expr.h"
#include "exec/ops/filter.h"
#include "exec/ops/hash_agg.h"
#include "exec/ops/hash_join.h"
#include "exec/ops/scan.h"
#include "storage/block.h"
#include "storage/table.h"
#include "storage/types.h"

namespace claims {
namespace {

struct Gen {
  std::mt19937 rng;
  explicit Gen(uint32_t seed) : rng(seed) {}
  int I(int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  }
  bool B(double p = 0.5) {
    return std::uniform_real_distribution<double>(0, 1)(rng) < p;
  }
};

// Small value domains so equality predicates and IN lists actually hit.
const char* kStrings[] = {"", "a", "ab", "abc", "ba", "b", "zz"};
const char* kPatterns[] = {"a%", "%b", "%a%", "a_", "%", "z%"};

Value RandomValueFor(Gen& g, const ColumnDef& col) {
  switch (col.type) {
    case DataType::kInt32:
      return Value::Int32(g.I(-4, 4));
    case DataType::kInt64:
      return Value::Int64(g.I(-4, 4));
    case DataType::kFloat64:
      return Value::Float64(g.I(-8, 8) / 2.0);
    case DataType::kDate:
      // 1995-01-01 .. ~1999: spans year boundaries for YEAR() predicates.
      return Value::Date(DaysFromCivil(1995, 1, 1) + g.I(0, 1500));
    case DataType::kChar:
      return Value::String(kStrings[g.I(0, 6)]);
  }
  return Value::Int64(0);
}

Schema RandomSchema(Gen& g) {
  int n = g.I(2, 6);
  std::vector<ColumnDef> cols;
  for (int i = 0; i < n; ++i) {
    std::string name = "c" + std::to_string(i);
    switch (g.I(0, 4)) {
      case 0: cols.push_back(ColumnDef::Int32(name)); break;
      case 1: cols.push_back(ColumnDef::Int64(name)); break;
      case 2: cols.push_back(ColumnDef::Float64(name)); break;
      case 3: cols.push_back(ColumnDef::Date(name)); break;
      default: cols.push_back(ColumnDef::Char(name, 8)); break;
    }
  }
  return Schema(std::move(cols));
}

std::shared_ptr<Block> RandomBlock(Gen& g, const Schema& s, int rows) {
  auto b = MakeBlock(s.row_size(),
                     std::max<int32_t>(kDefaultBlockBytes,
                                       (rows + 1) * s.row_size()));
  for (int i = 0; i < rows; ++i) {
    char* row = b->AppendRow();
    for (int c = 0; c < s.num_columns(); ++c) {
      s.SetValue(row, c, RandomValueFor(g, s.column(c)));
    }
  }
  return b;
}

std::vector<int> ColumnsWhere(const Schema& s, bool (*pred)(DataType)) {
  std::vector<int> out;
  for (int c = 0; c < s.num_columns(); ++c) {
    if (pred(s.column(c).type)) out.push_back(c);
  }
  return out;
}

bool IsNumericType(DataType t) { return t != DataType::kChar; }
bool IsCharType(DataType t) { return t == DataType::kChar; }
bool IsDateType(DataType t) { return t == DataType::kDate; }
bool IsIntOrFloatType(DataType t) { return IsNumericType(t) && !IsDateType(t); }

ExprPtr ColRef(const Schema& s, int c) {
  return MakeColumnRef(c, s.column(c).type, s.column(c).name);
}

CompareOp RandomCmp(Gen& g) { return static_cast<CompareOp>(g.I(0, 5)); }

/// An opaque boolean leaf: CASE WHEN col >= lit THEN 1 ELSE 0 END. Its Shape
/// is kOpaque, so the batch compiler must emit a scalar-fallback node.
ExprPtr OpaqueLeaf(Gen& g, const Schema& s) {
  auto numeric = ColumnsWhere(s, IsNumericType);
  int c = numeric.empty() ? 0 : numeric[g.I(0, numeric.size() - 1)];
  ExprPtr cond = MakeCompare(CompareOp::kGe, ColRef(s, c),
                             MakeLiteral(RandomValueFor(g, s.column(c))));
  std::vector<std::pair<ExprPtr, ExprPtr>> branches;
  branches.emplace_back(std::move(cond), MakeLiteral(Value::Int64(1)));
  return MakeCase(std::move(branches), MakeLiteral(Value::Int64(0)));
}

ExprPtr RandomLeaf(Gen& g, const Schema& s, bool allow_opaque) {
  if (allow_opaque && g.B(0.15)) return OpaqueLeaf(g, s);
  int c = g.I(0, s.num_columns() - 1);
  const ColumnDef& col = s.column(c);

  if (col.type == DataType::kChar) {
    switch (g.I(0, 3)) {
      case 0:
        return MakeLike(ColRef(s, c), kPatterns[g.I(0, 5)], g.B(0.3));
      case 1: {
        std::vector<Value> vals;
        for (int i = g.I(1, 3); i >= 0; --i) {
          vals.push_back(Value::String(kStrings[g.I(0, 6)]));
        }
        return MakeInList(ColRef(s, c), std::move(vals), g.B(0.3));
      }
      case 2: {
        auto chars = ColumnsWhere(s, IsCharType);
        int other = chars[g.I(0, chars.size() - 1)];
        return MakeCompare(RandomCmp(g), ColRef(s, c), ColRef(s, other));
      }
      default:
        return MakeCompare(RandomCmp(g), ColRef(s, c),
                           MakeLiteral(Value::String(kStrings[g.I(0, 6)])));
    }
  }

  if (col.type == DataType::kDate && g.B(0.5)) {
    // YEAR(date) CMP year-literal — compiled to a day-range test.
    return MakeCompare(RandomCmp(g), MakeYear(ColRef(s, c)),
                       MakeLiteral(Value::Int32(g.I(1994, 2000))));
  }

  switch (g.I(0, 3)) {
    case 0: {
      auto numeric = ColumnsWhere(s, IsNumericType);
      int other = numeric[g.I(0, numeric.size() - 1)];
      return MakeCompare(RandomCmp(g), ColRef(s, c), ColRef(s, other));
    }
    case 1: {
      std::vector<Value> vals;
      for (int i = g.I(1, 3); i >= 0; --i) {
        // Occasionally mix a float into an int list — the compiler must fall
        // back to the scalar node for that leaf, keeping equivalence.
        vals.push_back(g.B(0.2) ? Value::Float64(g.I(-8, 8) / 2.0)
                                : Value::Int64(g.I(-4, 4)));
      }
      return MakeInList(ColRef(s, c), std::move(vals), g.B(0.3));
    }
    case 2:
      return MakeCompare(RandomCmp(g), ColRef(s, c),
                         MakeLiteral(g.B(0.3) ? Value::Float64(g.I(-8, 8) / 2.0)
                                              : Value::Int64(g.I(-4, 4))));
    default:
      // Literal on the left: the compiler normalizes by flipping the compare.
      return MakeCompare(RandomCmp(g),
                         MakeLiteral(RandomValueFor(g, s.column(c))),
                         ColRef(s, c));
  }
}

ExprPtr RandomPredicate(Gen& g, const Schema& s, int depth, bool allow_opaque) {
  if (depth > 0 && g.B(0.6)) {
    if (g.B(0.25)) return MakeNot(RandomPredicate(g, s, depth - 1,
                                                  allow_opaque));
    return MakeLogic(g.B() ? LogicOp::kAnd : LogicOp::kOr,
                     RandomPredicate(g, s, depth - 1, allow_opaque),
                     RandomPredicate(g, s, depth - 1, allow_opaque));
  }
  return RandomLeaf(g, s, allow_opaque);
}

/// Reference implementation: row-at-a-time EvalBool over the selection.
std::vector<int32_t> ScalarSelect(const Expr& pred, const Schema& s,
                                  const Block& b, const int32_t* sel,
                                  int32_t n) {
  std::vector<int32_t> out;
  for (int32_t i = 0; i < n; ++i) {
    int32_t r = sel != nullptr ? sel[i] : i;
    if (pred.EvalBool(s, b.RowAt(r))) out.push_back(r);
  }
  return out;
}

void ExpectSameSelection(const std::vector<int32_t>& expect,
                         const int32_t* got, int32_t got_n,
                         const std::string& what) {
  ASSERT_EQ(static_cast<size_t>(got_n), expect.size()) << what;
  for (int32_t i = 0; i < got_n; ++i) {
    ASSERT_EQ(got[i], expect[i]) << what << " at survivor " << i;
  }
}

// --- BatchPredicate property tests ----------------------------------------------

TEST(BatchPredicateProperty, MatchesScalarOnRandomTrees) {
  for (uint32_t seed = 0; seed < 80; ++seed) {
    Gen g(seed);
    Schema s = RandomSchema(g);
    BlockPtr b = RandomBlock(g, s, g.I(0, 300));
    const bool allow_opaque = seed % 4 == 0;
    ExprPtr pred = RandomPredicate(g, s, 3, allow_opaque);
    auto bp = BatchPredicate::Compile(s, pred);
    ASSERT_NE(bp, nullptr);
    const int32_t n = b->num_rows();
    std::string what = "seed " + std::to_string(seed) + " pred " +
                       pred->ToString();

    // Dense (sel == nullptr): full block.
    std::vector<int32_t> out(static_cast<size_t>(n) + 1);
    int32_t k = bp->FilterBlock(*b, nullptr, n, out.data());
    ExpectSameSelection(ScalarSelect(*pred, s, *b, nullptr, n), out.data(), k,
                        what + " [dense]");

    // Sparse random subset, filtered *in place* (out aliases sel) — the
    // aliasing contract every AND chain relies on.
    std::vector<int32_t> sel;
    for (int32_t i = 0; i < n; ++i) {
      if (g.B(0.5)) sel.push_back(i);
    }
    auto expect = ScalarSelect(*pred, s, *b, sel.data(),
                               static_cast<int32_t>(sel.size()));
    sel.reserve(sel.size() + 1);  // keep data() valid for empty selections
    int32_t k2 = bp->FilterBlock(*b, sel.data(),
                                 static_cast<int32_t>(sel.size()), sel.data());
    ExpectSameSelection(expect, sel.data(), k2, what + " [sparse in-place]");
  }
}

TEST(BatchPredicateEdge, EmptyFullSingleRowAllFalse) {
  Schema s({ColumnDef::Int32("k"), ColumnDef::Int64("v")});
  auto b = MakeBlock(s.row_size());
  for (int i = 0; i < 100; ++i) {
    char* row = b->AppendRow();
    s.SetInt32(row, 0, i % 10);
    s.SetInt64(row, 1, i);
  }
  ExprPtr all_true = MakeCompare(CompareOp::kGe, ColRef(s, 0),
                                 MakeLiteral(Value::Int32(0)));
  ExprPtr all_false = MakeCompare(CompareOp::kEq, ColRef(s, 0),
                                  MakeLiteral(Value::Int32(99)));
  auto bp_true = BatchPredicate::Compile(s, all_true);
  auto bp_false = BatchPredicate::Compile(s, all_false);
  std::vector<int32_t> out(101);

  // Empty input selection.
  EXPECT_EQ(bp_true->FilterBlock(*b, nullptr, 0, out.data()), 0);

  // Full block, everything passes: identity selection.
  int32_t k = bp_true->FilterBlock(*b, nullptr, 100, out.data());
  ASSERT_EQ(k, 100);
  for (int32_t i = 0; i < 100; ++i) EXPECT_EQ(out[i], i);

  // All-false: zero survivors.
  EXPECT_EQ(bp_false->FilterBlock(*b, nullptr, 100, out.data()), 0);

  // Single-row selections, both outcomes.
  int32_t one = 42;
  EXPECT_EQ(bp_true->FilterBlock(*b, &one, 1, out.data()), 1);
  EXPECT_EQ(out[0], 42);
  EXPECT_EQ(bp_false->FilterBlock(*b, &one, 1, out.data()), 0);
}

TEST(BatchPredicateEdge, FullyCompiledFlagAndCaseFallback) {
  Schema s({ColumnDef::Int32("k"), ColumnDef::Int64("v")});
  ExprPtr compiled = MakeLogic(
      LogicOp::kOr,
      MakeLogic(LogicOp::kAnd,
                MakeCompare(CompareOp::kLt, ColRef(s, 0),
                            MakeLiteral(Value::Int32(3))),
                MakeCompare(CompareOp::kGe, ColRef(s, 1),
                            MakeLiteral(Value::Int64(10)))),
      MakeInList(ColRef(s, 0), {Value::Int64(7), Value::Int64(8)}, false));
  EXPECT_TRUE(BatchPredicate::Compile(s, compiled)->fully_compiled());

  std::vector<std::pair<ExprPtr, ExprPtr>> branches;
  branches.emplace_back(MakeCompare(CompareOp::kLt, ColRef(s, 0),
                                    MakeLiteral(Value::Int32(5))),
                        MakeLiteral(Value::Int64(1)));
  ExprPtr opaque = MakeLogic(LogicOp::kAnd,
                             MakeCase(std::move(branches),
                                      MakeLiteral(Value::Int64(0))),
                             MakeCompare(CompareOp::kGe, ColRef(s, 1),
                                         MakeLiteral(Value::Int64(0))));
  auto bp = BatchPredicate::Compile(s, opaque);
  EXPECT_FALSE(bp->fully_compiled());

  // The fallback still produces the scalar selection exactly.
  auto b = MakeBlock(s.row_size());
  for (int i = 0; i < 50; ++i) {
    char* row = b->AppendRow();
    s.SetInt32(row, 0, i % 10);
    s.SetInt64(row, 1, i - 25);
  }
  std::vector<int32_t> out(51);
  int32_t k = bp->FilterBlock(*b, nullptr, 50, out.data());
  ExpectSameSelection(ScalarSelect(*opaque, s, *b, nullptr, 50), out.data(), k,
                      "case fallback");
}

// --- BatchCompute property tests ------------------------------------------------

ExprPtr RandomNumericExpr(Gen& g, const Schema& s, int depth) {
  if (depth > 0 && g.B(0.55)) {
    return MakeArith(static_cast<ArithOp>(g.I(0, 3)),
                     RandomNumericExpr(g, s, depth - 1),
                     RandomNumericExpr(g, s, depth - 1));
  }
  auto numeric = ColumnsWhere(s, IsNumericType);
  auto dates = ColumnsWhere(s, IsDateType);
  switch (g.I(0, 3)) {
    case 0:
      return MakeLiteral(Value::Int64(g.I(-4, 4)));
    case 1:
      return MakeLiteral(Value::Float64(g.I(-8, 8) / 2.0));
    case 2:
      if (!dates.empty()) {
        return MakeYear(ColRef(s, dates[g.I(0, dates.size() - 1)]));
      }
      [[fallthrough]];
    default:
      if (numeric.empty()) return MakeLiteral(Value::Int64(1));
      return ColRef(s, numeric[g.I(0, numeric.size() - 1)]);
  }
}

TEST(BatchComputeProperty, EvalDoubleMatchesScalarBitIdentical) {
  for (uint32_t seed = 100; seed < 160; ++seed) {
    Gen g(seed);
    Schema s = RandomSchema(g);
    BlockPtr b = RandomBlock(g, s, g.I(1, 200));
    ExprPtr expr = RandomNumericExpr(g, s, 3);
    auto bc = BatchCompute::Compile(s, expr);
    ASSERT_NE(bc, nullptr);
    const int32_t n = b->num_rows();
    std::string what = "seed " + std::to_string(seed) + " expr " +
                       expr->ToString();

    std::vector<double> got(n);
    bc->EvalDouble(*b, nullptr, n, got.data());
    for (int32_t i = 0; i < n; ++i) {
      double want = expr->Eval(s, b->RowAt(i)).ToDouble();
      ASSERT_EQ(got[i], want) << what << " row " << i;  // exact, not NEAR
    }

    // Sparse selection.
    std::vector<int32_t> sel;
    for (int32_t i = 0; i < n; ++i) {
      if (g.B(0.4)) sel.push_back(i);
    }
    std::vector<double> got2(sel.size() + 1);
    bc->EvalDouble(*b, sel.data(), static_cast<int32_t>(sel.size()),
                   got2.data());
    for (size_t i = 0; i < sel.size(); ++i) {
      double want = expr->Eval(s, b->RowAt(sel[i])).ToDouble();
      ASSERT_EQ(got2[i], want) << what << " sparse row " << sel[i];
    }
  }
}

TEST(BatchComputeProperty, MaterializeMatchesSetValueByteIdentical) {
  for (uint32_t seed = 200; seed < 260; ++seed) {
    Gen g(seed);
    Schema s = RandomSchema(g);
    BlockPtr b = RandomBlock(g, s, g.I(1, 200));
    const int32_t n = b->num_rows();

    // Expression pool: bare columns of every type (the strided-copy fast
    // path, including CHAR), YEAR(), and a computed arith tree.
    std::vector<ExprPtr> exprs;
    for (int c = 0; c < s.num_columns(); ++c) exprs.push_back(ColRef(s, c));
    auto dates = ColumnsWhere(s, IsDateType);
    if (!dates.empty()) exprs.push_back(MakeYear(ColRef(s, dates[0])));
    exprs.push_back(RandomNumericExpr(g, s, 2));

    for (const ExprPtr& expr : exprs) {
      int32_t width = 0;
      if (expr->type() == DataType::kChar) {
        width = s.column(AsColumnRef(*expr)).char_width;
      }
      // out_col = 1 so non-zero in-row offsets are exercised.
      Schema out({ColumnDef::Int32("pad"),
                  ColumnDef{"x", expr->type(), width}});
      auto bc = BatchCompute::Compile(s, expr);
      const size_t bytes = static_cast<size_t>(out.row_size()) * n;
      std::vector<char> got(bytes, 0);
      std::vector<char> want(bytes, 0);
      bc->Materialize(*b, nullptr, n, out, 1, got.data());
      for (int32_t i = 0; i < n; ++i) {
        out.SetValue(want.data() + static_cast<size_t>(i) * out.row_size(), 1,
                     expr->Eval(s, b->RowAt(i)));
      }
      ASSERT_EQ(std::memcmp(got.data(), want.data(), bytes), 0)
          << "seed " << seed << " expr " << expr->ToString();
    }
  }
}

TEST(BatchComputeProperty, ComputedCharKeyMaterializesNulPadded) {
  // The aggregation table compares CHAR group rows bytewise, so a computed
  // CHAR key (a CASE, which the scalar fallback evaluates) must write every
  // byte of its column: the string, then NULs to the width the aggregation
  // gives it (64), whatever the buffer held before.
  Schema s({ColumnDef::Int32("k")});
  auto b = MakeBlock(s.row_size());
  for (int32_t r = 0; r < 100; ++r) s.SetInt32(b->AppendRow(), 0, r);
  std::vector<std::pair<ExprPtr, ExprPtr>> branches;
  branches.emplace_back(
      MakeCompare(CompareOp::kLt, MakeColumnRef(0, DataType::kInt32, "k"),
                  MakeLiteral(Value::Int32(50))),
      MakeLiteral(Value::String("A")));
  const ExprPtr key =
      MakeCase(std::move(branches), MakeLiteral(Value::String("BBBB")));
  ASSERT_EQ(key->type(), DataType::kChar);
  const Schema group({ColumnDef::Char("key", 64)});
  std::vector<char> rows(100 * 64, '\xA5');
  BatchCompute::Compile(s, key)->Materialize(*b, nullptr, 100, group, 0,
                                             rows.data());
  for (int32_t r = 0; r < 100; ++r) {
    const std::string want = r < 50 ? "A" : "BBBB";
    std::string expect(64, '\0');
    expect.replace(0, want.size(), want);
    EXPECT_EQ(std::string(&rows[static_cast<size_t>(r) * 64], 64), expect)
        << "row " << r;
  }
}

// --- Operators vs row-at-a-time references ------------------------------------

/// Replays a fixed list of blocks, handed on read-only; thread-safe like a
/// stage beginner.
class BlocksIterator : public Iterator {
 public:
  explicit BlocksIterator(const std::vector<std::shared_ptr<Block>>& blocks)
      : blocks_(blocks.begin(), blocks.end()) {}

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

/// Random blocks with dense sequence numbers; block 1 is always empty. They
/// stay writable until a BlocksIterator hands them on.
std::vector<std::shared_ptr<Block>> RandomBlocks(Gen& g, const Schema& s,
                                                 int nblocks) {
  std::vector<std::shared_ptr<Block>> blocks;
  for (int i = 0; i < nblocks; ++i) {
    auto b = RandomBlock(g, s, i == 1 ? 0 : g.I(0, 200));
    b->set_sequence_number(static_cast<uint64_t>(i));
    blocks.push_back(std::move(b));
  }
  return blocks;
}

using SeqRows = std::vector<std::pair<uint64_t, std::string>>;

/// Drains `it` with one worker, returning every emitted block as
/// (sequence number, raw row bytes) — empty watermark blocks included.
SeqRows DrainBlocks(Iterator* it) {
  WorkerContext ctx;
  EXPECT_EQ(it->Open(&ctx), NextResult::kSuccess);
  SeqRows out;
  BlockPtr b;
  while (it->Next(&ctx, &b) == NextResult::kSuccess) {
    out.emplace_back(b->sequence_number(),
                     std::string(b->RowAt(0), b->payload_bytes()));
  }
  it->Close();
  return out;
}

/// Reference filter: the bytes of the rows of `b` for which EvalBool holds,
/// in input order.
std::string EvalBoolRows(const Expr& pred, const Schema& s, const Block& b) {
  std::string rows;
  for (int32_t r = 0; r < b.num_rows(); ++r) {
    if (pred.EvalBool(s, b.RowAt(r))) rows.append(b.RowAt(r), s.row_size());
  }
  return rows;
}

/// Random predicate, or (every third seed) one no row satisfies, so whole
/// blocks go out as empty watermarks.
ExprPtr PredicateForSeed(Gen& g, const Schema& s, uint32_t seed) {
  ExprPtr pred = RandomPredicate(g, s, 3, /*allow_opaque=*/seed % 2 == 0);
  if (seed % 3 != 0) return pred;
  return MakeLogic(LogicOp::kAnd, pred, MakeNot(pred));
}

TEST(OperatorReference, FilterMatchesEvalBoolLoop) {
  for (uint32_t seed = 0; seed < 24; ++seed) {
    Gen g(seed);
    Schema s = RandomSchema(g);
    auto blocks = RandomBlocks(g, s, 6);
    ExprPtr pred = PredicateForSeed(g, s, seed);

    SeqRows want;
    for (const auto& b : blocks) {
      want.emplace_back(b->sequence_number(), EvalBoolRows(*pred, s, *b));
    }
    FilterIterator f(std::make_unique<BlocksIterator>(blocks), &s, pred);
    EXPECT_EQ(DrainBlocks(&f), want)
        << "seed " << seed << " pred " << pred->ToString();
  }
}

TEST(OperatorReference, ScanPushdownMatchesEvalBoolLoop) {
  for (uint32_t seed = 300; seed < 312; ++seed) {
    Gen g(seed);
    Schema s = RandomSchema(g);
    Table t("t", s, 1, {});
    // Two to three storage blocks.
    for (int i = 2 * kDefaultBlockBytes / s.row_size() + g.I(1, 500); i > 0;
         --i) {
      char* row = t.AppendRowSlotRoundRobin();
      for (int c = 0; c < s.num_columns(); ++c) {
        s.SetValue(row, c, RandomValueFor(g, s.column(c)));
      }
    }
    const TablePartition& part = t.partition(0);
    ASSERT_GT(part.num_blocks(), 1);
    ExprPtr pred = PredicateForSeed(g, s, seed);

    SeqRows want;
    for (int i = 0; i < part.num_blocks(); ++i) {
      want.emplace_back(static_cast<uint64_t>(i),
                        EvalBoolRows(*pred, s, *part.block(i)));
    }
    ScanIterator::Options opts;
    opts.predicate = pred;
    ScanIterator scan(&part, &s, opts);
    EXPECT_EQ(DrainBlocks(&scan), want)
        << "seed " << seed << " pred " << pred->ToString();
  }
}

/// A non-opaque numeric expression whose values stay small (no YEAR, depth
/// 2), so any int or float output column can hold them without overflow.
ExprPtr SmallNumericExpr(Gen& g, const Schema& s, int depth) {
  if (depth > 0 && g.B(0.6)) {
    return MakeArith(static_cast<ArithOp>(g.I(0, 3)),
                     SmallNumericExpr(g, s, depth - 1),
                     SmallNumericExpr(g, s, depth - 1));
  }
  auto numeric = ColumnsWhere(s, IsIntOrFloatType);
  if (numeric.empty() || g.B(0.3)) {
    return g.B() ? MakeLiteral(Value::Int64(g.I(-4, 4)))
                 : MakeLiteral(Value::Float64(g.I(-8, 8) / 2.0));
  }
  return ColRef(s, numeric[g.I(0, numeric.size() - 1)]);
}

/// CASE WHEN <random predicate> THEN a ELSE b END: opaque to the compiler,
/// so BatchCompute must fall back to Eval for it.
ExprPtr OpaqueCase(Gen& g, const Schema& s, ExprPtr then, ExprPtr otherwise) {
  std::vector<std::pair<ExprPtr, ExprPtr>> branches;
  branches.emplace_back(RandomPredicate(g, s, 1, false), std::move(then));
  return MakeCase(std::move(branches), std::move(otherwise));
}

ColumnDef RandomIntOrFloatColumn(Gen& g, const std::string& name) {
  switch (g.I(0, 3)) {
    case 0: return ColumnDef::Int32(name);
    case 1: return ColumnDef::Int64(name);
    case 2: return ColumnDef::Date(name);
    default: return ColumnDef::Float64(name);
  }
}

TEST(OperatorReference, ProjectMatchesSetValueEval) {
  for (uint32_t seed = 400; seed < 440; ++seed) {
    Gen g(seed);
    Schema s = RandomSchema(g);
    auto blocks = RandomBlocks(g, s, 4);

    // Output columns: every input column as itself (strided copy), every
    // column once more into another type or CHAR width, YEAR(), computed
    // and opaque expressions into their own type and into a different one.
    std::vector<ExprPtr> exprs;
    std::vector<ColumnDef> cols;
    auto add = [&](ExprPtr e, ColumnDef def) {
      def.name = "o" + std::to_string(cols.size());
      exprs.push_back(std::move(e));
      cols.push_back(std::move(def));
    };
    for (int c = 0; c < s.num_columns(); ++c) {
      const ColumnDef& col = s.column(c);
      add(ColRef(s, c), col);
      if (col.type == DataType::kChar) {
        add(ColRef(s, c), ColumnDef::Char("", g.B() ? 2 : 12));
      } else {
        add(ColRef(s, c), RandomIntOrFloatColumn(g, ""));
      }
    }
    auto dates = ColumnsWhere(s, IsDateType);
    if (!dates.empty()) {
      add(MakeYear(ColRef(s, dates[0])), ColumnDef::Int32(""));
      add(MakeYear(ColRef(s, dates[0])), ColumnDef::Float64(""));
    }
    ExprPtr computed = RandomNumericExpr(g, s, 2);
    add(computed, ColumnDef{"", computed->type(), 0});
    add(computed, ColumnDef::Float64(""));
    add(computed, ColumnDef::Int64(""));
    add(SmallNumericExpr(g, s, 2), RandomIntOrFloatColumn(g, ""));
    ExprPtr opaque = OpaqueCase(g, s, SmallNumericExpr(g, s, 1),
                                SmallNumericExpr(g, s, 1));
    add(opaque, ColumnDef{"", opaque->type(), 0});
    add(opaque, RandomIntOrFloatColumn(g, ""));
    add(OpaqueCase(g, s, MakeLiteral(Value::String("yes")),
                   MakeLiteral(Value::String("no"))),
        ColumnDef::Char("", 4));
    const Schema out(cols);

    SeqRows want;
    for (const auto& b : blocks) {
      std::string rows(static_cast<size_t>(out.row_size()) * b->num_rows(),
                       '\0');
      for (int32_t r = 0; r < b->num_rows(); ++r) {
        char* dst = rows.data() + static_cast<size_t>(r) * out.row_size();
        for (size_t c = 0; c < exprs.size(); ++c) {
          out.SetValue(dst, static_cast<int>(c),
                       exprs[c]->Eval(s, b->RowAt(r)));
        }
      }
      want.emplace_back(b->sequence_number(), std::move(rows));
    }
    ProjectIterator project(std::make_unique<BlocksIterator>(blocks), &s, out,
                            exprs);
    EXPECT_EQ(DrainBlocks(&project), want) << "seed " << seed;
  }
}

/// A multiset of rows as one string: the rows concatenated in sorted order.
std::string SortedConcat(std::vector<std::string> rows) {
  std::sort(rows.begin(), rows.end());
  std::string out;
  for (const std::string& r : rows) out += r;
  return out;
}

/// Reference equi-join key match: key values compared as Values, not through
/// the engine's hashing or key packing.
bool KeysEqual(const Schema& ls, const char* l, const std::vector<int>& lk,
               const Schema& rs, const char* r, const std::vector<int>& rk) {
  for (size_t i = 0; i < lk.size(); ++i) {
    if (ls.GetValue(l, lk[i]).Compare(rs.GetValue(r, rk[i])) != 0) {
      return false;
    }
  }
  return true;
}

TEST(OperatorReference, HashJoinMatchesNestedLoop) {
  // A single INT32 key, a composite (CHAR, DATE) key, then an INT32 build
  // key against an INT64 probe key, which match by value. Small value
  // domains give duplicate keys on both sides (fan-out) and misses.
  Schema bs({ColumnDef::Int32("k"), ColumnDef::Char("tag", 8),
             ColumnDef::Date("d"), ColumnDef::Float64("f")});
  Schema ps({ColumnDef::Date("d"), ColumnDef::Int64("v"),
             ColumnDef::Char("tag", 8), ColumnDef::Int32("k")});
  struct Keys {
    std::vector<int> build, probe;
  };
  const Keys key_sets[] = {{{0}, {3}}, {{1, 2}, {2, 0}}, {{0}, {1}}};
  for (uint32_t seed = 500; seed < 506; ++seed) {
    const Keys& keys = key_sets[seed % 3];
    Gen g(seed);
    auto build = RandomBlocks(g, bs, 3);
    auto probe = RandomBlocks(g, ps, 5);
    for (auto* side : {&build, &probe}) {
      // Narrow the dates so (CHAR, DATE) keys collide often enough.
      const Schema& s = side == &build ? bs : ps;
      const int dcol = side == &build ? 2 : 0;
      for (const auto& b : *side) {
        for (int32_t r = 0; r < b->num_rows(); ++r) {
          s.SetInt32(b->MutableRowAt(r), dcol,
                     DaysFromCivil(1995, 1, 1) + g.I(0, 3));
        }
      }
    }

    // Nested loop per probe block: [build row | probe row] for every pair
    // with equal keys, as a sorted multiset.
    SeqRows want;
    for (const auto& p : probe) {
      std::vector<std::string> rows;
      for (int32_t pr = 0; pr < p->num_rows(); ++pr) {
        for (const auto& b : build) {
          for (int32_t br = 0; br < b->num_rows(); ++br) {
            if (KeysEqual(bs, b->RowAt(br), keys.build, ps, p->RowAt(pr),
                          keys.probe)) {
              rows.push_back(std::string(b->RowAt(br), bs.row_size()) +
                             std::string(p->RowAt(pr), ps.row_size()));
            }
          }
        }
      }
      want.emplace_back(p->sequence_number(), SortedConcat(std::move(rows)));
    }

    HashJoinIterator::Spec spec;
    spec.build_schema = &bs;
    spec.probe_schema = &ps;
    spec.build_keys = keys.build;
    spec.probe_keys = keys.probe;
    HashJoinIterator join(std::make_unique<BlocksIterator>(build),
                          std::make_unique<BlocksIterator>(probe), spec);
    const int out_size = join.output_schema().row_size();
    SeqRows got = DrainBlocks(&join);
    for (auto& [seq, bytes] : got) {
      std::vector<std::string> rows;
      for (size_t off = 0; off < bytes.size(); off += out_size) {
        rows.push_back(bytes.substr(off, out_size));
      }
      bytes = SortedConcat(std::move(rows));
    }
    EXPECT_EQ(got, want) << "seed " << seed;
  }
}

TEST(OperatorReference, HashAggMatchesRowAtATimeFold) {
  Schema s({ColumnDef::Int32("k"), ColumnDef::Int64("v"),
            ColumnDef::Float64("f"), ColumnDef::Char("tag", 8),
            ColumnDef::Date("d")});
  for (uint32_t seed = 600; seed < 606; ++seed) {
    Gen g(seed);
    auto blocks = RandomBlocks(g, s, 5);

    HashAggIterator::Spec spec;
    spec.input_schema = &s;
    spec.group_exprs = {ColRef(s, 0), ColRef(s, 3), MakeYear(ColRef(s, 4))};
    spec.group_names = {"k", "tag", "y"};
    spec.aggregates = {
        {AggFn::kSum, ColRef(s, 1), "sum_v"},
        {AggFn::kCount, nullptr, "cnt"},
        {AggFn::kAvg, ColRef(s, 2), "avg_f"},
        {AggFn::kMin, MakeArith(ArithOp::kAdd, ColRef(s, 1), ColRef(s, 2)),
         "min_vf"},
        {AggFn::kMax, ColRef(s, 1), "max_v"},
        {AggFn::kSum, OpaqueCase(g, s, ColRef(s, 2), ColRef(s, 1)), "sum_case"},
        {AggFn::kMax, ColRef(s, 4), "max_d"},
    };
    // One worker on the shared table folds rows in input order, so the
    // reference's double sums match bit for bit.
    spec.mode = HashAggIterator::Mode::kShared;
    HashAggIterator agg(std::make_unique<BlocksIterator>(blocks), spec);
    const Schema& out = agg.output_schema();
    const int ngroup = static_cast<int>(spec.group_exprs.size());
    const size_t naggs = spec.aggregates.size();

    // Reference fold: group key built with SetValue(Eval) into the output
    // row's group prefix; per aggregate a running (sum-or-extreme, count).
    const size_t key_bytes = static_cast<size_t>(out.offset(ngroup));
    std::map<std::string, std::vector<std::pair<double, int64_t>>> groups;
    for (const auto& b : blocks) {
      for (int32_t r = 0; r < b->num_rows(); ++r) {
        const char* row = b->RowAt(r);
        std::string key_row(static_cast<size_t>(out.row_size()), '\0');
        for (int c = 0; c < ngroup; ++c) {
          out.SetValue(key_row.data(), c, spec.group_exprs[c]->Eval(s, row));
        }
        auto& states = groups[key_row.substr(0, key_bytes)];
        states.resize(naggs, {0.0, 0});
        for (size_t a = 0; a < naggs; ++a) {
          const HashAggIterator::Aggregate& ag = spec.aggregates[a];
          const double v =
              ag.arg != nullptr ? ag.arg->Eval(s, row).ToDouble() : 0.0;
          auto& [acc, count] = states[a];
          if (ag.fn == AggFn::kSum || ag.fn == AggFn::kAvg) acc += v;
          if (ag.fn == AggFn::kMin && (count == 0 || v < acc)) acc = v;
          if (ag.fn == AggFn::kMax && (count == 0 || v > acc)) acc = v;
          ++count;
        }
      }
    }
    std::vector<std::string> want;
    for (const auto& [key, states] : groups) {
      std::string row = key;
      row.resize(static_cast<size_t>(out.row_size()), '\0');
      for (size_t a = 0; a < naggs; ++a) {
        const int col = ngroup + static_cast<int>(a);
        const auto& [acc, count] = states[a];
        Value v;
        if (spec.aggregates[a].fn == AggFn::kCount) {
          v = Value::Int64(count);
        } else if (spec.aggregates[a].fn == AggFn::kAvg) {
          v = Value::Float64(acc / count);
        } else if (out.column(col).type == DataType::kFloat64) {
          v = Value::Float64(acc);
        } else {
          v = Value::Int64(static_cast<int64_t>(acc));
        }
        out.SetValue(row.data(), col, v);
      }
      want.push_back(std::move(row));
    }
    std::sort(want.begin(), want.end());

    WorkerContext ctx;
    ASSERT_EQ(agg.Open(&ctx), NextResult::kSuccess);
    std::vector<std::string> got;
    BlockPtr b;
    while (agg.Next(&ctx, &b) == NextResult::kSuccess) {
      for (int32_t r = 0; r < b->num_rows(); ++r) {
        got.emplace_back(b->RowAt(r), out.row_size());
      }
    }
    agg.Close();
    std::sort(got.begin(), got.end());
    ASSERT_FALSE(want.empty());
    EXPECT_EQ(got, want) << "seed " << seed;
  }
}

}  // namespace
}  // namespace claims
