// Lexer, parser, binder, and planner unit tests.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <thread>

#include "common/string_util.h"
#include "engine/workloads.h"
#include "exec/expr/batch_expr.h"
#include "sql/binder.h"
#include "sql/lexer.h"
#include "sql/parser.h"
#include "sql/planner.h"
#include "storage/datagen/sse_gen.h"
#include "storage/datagen/tpch_gen.h"

namespace claims {
namespace {

// --- Lexer -----------------------------------------------------------------------

TEST(LexerTest, BasicTokens) {
  auto r = Tokenize("SELECT a1, 'str''x' FROM t WHERE x <= 3.5 -- comment\n");
  ASSERT_TRUE(r.ok());
  const auto& t = *r;
  ASSERT_GE(t.size(), 10u);
  EXPECT_EQ(t[0].text, "SELECT");
  EXPECT_EQ(t[1].text, "a1");
  EXPECT_EQ(t[2].text, ",");
  EXPECT_EQ(t[3].type, TokenType::kString);
  EXPECT_EQ(t[3].text, "str'x");
  EXPECT_EQ(t[8].text, "<=");
  EXPECT_EQ(t[9].type, TokenType::kFloat);
  EXPECT_DOUBLE_EQ(t[9].float_value, 3.5);
  EXPECT_EQ(t.back().type, TokenType::kEnd);
}

TEST(LexerTest, Numbers) {
  auto r = Tokenize("42 0.05 1e3 600036");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)[0].int_value, 42);
  EXPECT_DOUBLE_EQ((*r)[1].float_value, 0.05);
  EXPECT_DOUBLE_EQ((*r)[2].float_value, 1000.0);
  EXPECT_EQ((*r)[3].int_value, 600036);
}

TEST(LexerTest, Errors) {
  EXPECT_FALSE(Tokenize("SELECT 'unterminated").ok());
  EXPECT_FALSE(Tokenize("SELECT a # b").ok());
}

// --- Parser -----------------------------------------------------------------------

TEST(ParserTest, SimpleSelect) {
  auto r = ParseSelect("SELECT a, b AS bee FROM t WHERE a > 5 LIMIT 3;");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const SelectStmt& s = **r;
  ASSERT_EQ(s.items.size(), 2u);
  EXPECT_EQ(s.items[1].alias, "bee");
  ASSERT_EQ(s.from.size(), 1u);
  EXPECT_EQ(s.from[0].table, "t");
  ASSERT_NE(s.where, nullptr);
  EXPECT_EQ(s.limit, 3);
}

TEST(ParserTest, StarAndGroupOrder) {
  auto r = ParseSelect(
      "SELECT * FROM t GROUP BY a, b HAVING count(*) > 1 "
      "ORDER BY a DESC, b ASC");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const SelectStmt& s = **r;
  EXPECT_TRUE(s.items[0].star);
  EXPECT_EQ(s.group_by.size(), 2u);
  ASSERT_NE(s.having, nullptr);
  ASSERT_EQ(s.order_by.size(), 2u);
  EXPECT_FALSE(s.order_by[0].ascending);
  EXPECT_TRUE(s.order_by[1].ascending);
}

TEST(ParserTest, JoinSyntaxFoldsIntoWhere) {
  auto r = ParseSelect(
      "SELECT * FROM a JOIN b ON a.x = b.y INNER JOIN c ON b.z = c.w "
      "WHERE a.k = 1");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const SelectStmt& s = **r;
  EXPECT_EQ(s.from.size(), 3u);
  ASSERT_NE(s.where, nullptr);  // three conjuncts folded
}

TEST(ParserTest, DerivedTable) {
  auto r = ParseSelect(
      "SELECT m.k FROM (SELECT k, min(v) AS mv FROM t GROUP BY k) m");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_NE((*r)->from[0].subquery, nullptr);
  EXPECT_EQ((*r)->from[0].alias, "m");
}

TEST(ParserTest, PredicatesAndCase) {
  auto r = ParseSelect(
      "SELECT CASE WHEN a = 1 THEN 'one' ELSE 'other' END "
      "FROM t WHERE a IN (1,2,3) AND b BETWEEN 0.05 AND 0.07 "
      "AND c NOT LIKE '%x%' AND NOT (d = 4 OR e <> 5)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
}

TEST(ParserTest, OperatorPrecedence) {
  auto r = ParseSelect("SELECT a + b * c - d / e FROM t");
  ASSERT_TRUE(r.ok());
  // ((a + (b*c)) - (d/e))
  const SqlExpr& top = *(*r)->items[0].expr;
  EXPECT_EQ(top.op, "-");
  EXPECT_EQ(top.args[0]->op, "+");
  EXPECT_EQ(top.args[0]->args[1]->op, "*");
  EXPECT_EQ(top.args[1]->op, "/");
}

TEST(ParserTest, Errors) {
  EXPECT_FALSE(ParseSelect("SELECT FROM t").ok());
  EXPECT_FALSE(ParseSelect("SELECT a").ok());
  EXPECT_FALSE(ParseSelect("SELECT a FROM t WHERE").ok());
  EXPECT_FALSE(ParseSelect("SELECT a FROM t GROUP a").ok());
  EXPECT_FALSE(ParseSelect("SELECT a FROM (SELECT b FROM t)").ok());  // alias
  EXPECT_FALSE(ParseSelect("SELECT a FROM t; SELECT b FROM t").ok());
}

TEST(ParserTest, AllWorkloadQueriesParse) {
  for (int q = 1; q <= 5; ++q) {
    auto sql = SyntheticQuery(q);
    ASSERT_TRUE(sql.ok());
    EXPECT_TRUE(ParseSelect(*sql).ok()) << "S-Q" << q;
  }
  for (int q = 6; q <= 9; ++q) {
    auto sql = SseQuery(q);
    ASSERT_TRUE(sql.ok());
    EXPECT_TRUE(ParseSelect(*sql).ok()) << "SSE-Q" << q;
  }
  for (int q : SupportedTpchQueries()) {
    auto sql = TpchQuery(q);
    ASSERT_TRUE(sql.ok());
    auto parsed = ParseSelect(*sql);
    EXPECT_TRUE(parsed.ok()) << "Q" << q << ": " << parsed.status().ToString();
  }
}

// --- Binder -----------------------------------------------------------------------

class BinderTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog_ = new Catalog;
    TpchConfig tpch;
    tpch.scale_factor = 0.001;
    tpch.num_partitions = 2;
    ASSERT_TRUE(GenerateTpch(tpch, catalog_).ok());
    SseConfig sse;
    sse.securities_rows = 100;
    sse.trades_rows = 100;
    sse.num_partitions = 2;
    ASSERT_TRUE(GenerateSse(sse, catalog_).ok());
  }
  static void TearDownTestSuite() { delete catalog_; }

  static Result<std::unique_ptr<BoundQuery>> Bind(std::string_view sql) {
    auto stmt = ParseSelect(sql);
    if (!stmt.ok()) return stmt.status();
    return BindSelect(**stmt, *catalog_);
  }

  static Catalog* catalog_;
};

Catalog* BinderTest::catalog_ = nullptr;

TEST_F(BinderTest, ResolvesColumnsAndTypes) {
  auto q = Bind("SELECT o_orderkey, o_totalprice FROM orders WHERE "
                "o_orderdate < '1995-01-01'");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ((*q)->select_exprs[0]->type, DataType::kInt32);
  EXPECT_EQ((*q)->select_exprs[1]->type, DataType::kFloat64);
  ASSERT_EQ((*q)->conjuncts.size(), 1u);
  // The date literal must have been coerced.
  EXPECT_EQ((*q)->conjuncts[0]->children[1]->literal.type(), DataType::kDate);
}

TEST_F(BinderTest, QualifiedAndAliasResolution) {
  auto q = Bind("SELECT T.acct_id, S.acct_id FROM trades T, securities S "
                "WHERE T.acct_id = S.acct_id");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_NE((*q)->select_exprs[0]->column, (*q)->select_exprs[1]->column);
}

TEST_F(BinderTest, AmbiguousColumnRejected) {
  auto q = Bind("SELECT acct_id FROM trades, securities");
  EXPECT_FALSE(q.ok());
}

TEST_F(BinderTest, UnknownColumnAndTable) {
  EXPECT_FALSE(Bind("SELECT nope FROM orders").ok());
  EXPECT_FALSE(Bind("SELECT 1 FROM nonexistent").ok());
}

TEST_F(BinderTest, AggregatesCollected) {
  auto q = Bind("SELECT l_returnflag, sum(l_quantity), count(*), "
                "avg(l_discount) FROM lineitem GROUP BY l_returnflag");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ((*q)->aggregates.size(), 3u);
  EXPECT_EQ((*q)->aggregates[0].fn, AggFn::kSum);
  EXPECT_EQ((*q)->aggregates[1].fn, AggFn::kCount);
  EXPECT_EQ((*q)->aggregates[2].fn, AggFn::kAvg);
  EXPECT_TRUE((*q)->has_aggregation());
}

TEST_F(BinderTest, NonGroupColumnRejected) {
  EXPECT_FALSE(
      Bind("SELECT l_orderkey, sum(l_quantity) FROM lineitem "
           "GROUP BY l_returnflag")
          .ok());
}

TEST_F(BinderTest, AggregateInWhereRejected) {
  EXPECT_FALSE(Bind("SELECT 1 FROM orders WHERE sum(o_totalprice) > 5").ok());
}

TEST_F(BinderTest, OrderByBinding) {
  auto q = Bind("SELECT l_returnflag, sum(l_quantity) AS qty FROM lineitem "
                "GROUP BY l_returnflag ORDER BY qty DESC, 1");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ((*q)->order_by.size(), 2u);
  EXPECT_EQ((*q)->order_by[0].output_index, 1);
  EXPECT_FALSE((*q)->order_by[0].ascending);
  EXPECT_EQ((*q)->order_by[1].output_index, 0);
}

TEST_F(BinderTest, DuplicateAliasRejected) {
  EXPECT_FALSE(Bind("SELECT 1 FROM orders o, lineitem o").ok());
}

TEST_F(BinderTest, AllWorkloadQueriesBind) {
  for (int q = 1; q <= 5; ++q) {
    auto b = Bind(*SyntheticQuery(q));
    EXPECT_TRUE(b.ok()) << "S-Q" << q << ": " << b.status().ToString();
  }
  for (int q = 6; q <= 9; ++q) {
    auto b = Bind(*SseQuery(q));
    EXPECT_TRUE(b.ok()) << "SSE-Q" << q << ": " << b.status().ToString();
  }
  for (int q : SupportedTpchQueries()) {
    auto b = Bind(*TpchQuery(q));
    EXPECT_TRUE(b.ok()) << "Q" << q << ": " << b.status().ToString();
  }
}

// --- Planner ----------------------------------------------------------------------

class PlannerTest : public BinderTest {
 protected:
  static Result<PhysicalPlan> Plan(std::string_view sql) {
    PlannerOptions opts;
    opts.num_nodes = 2;
    Planner planner(catalog_, opts);
    return planner.PlanSql(sql);
  }
};

TEST_F(PlannerTest, SingleTableGather) {
  auto p = Plan("SELECT o_orderkey FROM orders WHERE o_totalprice > 1000");
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  EXPECT_EQ(p->fragments.size(), 1u);
  EXPECT_EQ(p->result_schema.num_columns(), 1);
  std::string text = p->ToString();
  EXPECT_NE(text.find("Scan(orders)"), std::string::npos);
  EXPECT_NE(text.find("Filter"), std::string::npos);
}

TEST_F(PlannerTest, CoLocatedJoinHasNoShuffle) {
  // orders and lineitem are both partitioned on the order key.
  auto p = Plan("SELECT count(*) FROM orders, lineitem "
                "WHERE l_orderkey = o_orderkey");
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  // One compute fragment + master final-aggregation fragment; no shuffle.
  std::string text = p->ToString();
  EXPECT_EQ(text.find("hash on"), std::string::npos) << text;
}

TEST_F(PlannerTest, RepartitionJoinWhenNotColocated) {
  // securities partitioned on acct_id; trades on sec_code ⇒ a repartition is
  // required (the paper's Fig. 1 plan). Disable broadcasting (the test
  // catalog is tiny) to force the shuffle path.
  PlannerOptions opts;
  opts.num_nodes = 2;
  opts.broadcast_threshold_rows = 0;
  Planner planner(catalog_, opts);
  auto p = planner.PlanSql(*SseQuery(9));
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  std::string text = p->ToString();
  EXPECT_NE(text.find("hash on"), std::string::npos) << text;
  EXPECT_NE(text.find("HashJoin"), std::string::npos);
  EXPECT_NE(text.find("HashAgg"), std::string::npos);
}

TEST_F(PlannerTest, BroadcastSmallBuildSide) {
  auto p = Plan("SELECT count(*) FROM lineitem, nation "
                "WHERE l_suppkey = n_nationkey");
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  std::string text = p->ToString();
  EXPECT_NE(text.find("broadcast"), std::string::npos) << text;
}

TEST_F(PlannerTest, ScalarAggTwoPhase) {
  auto p = Plan("SELECT count(*), avg(o_totalprice) FROM orders");
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  // Local partial fragment + master final fragment.
  EXPECT_EQ(p->fragments.size(), 2u);
  std::string text = p->ToString();
  // Two HashAgg stages.
  size_t first = text.find("HashAgg");
  ASSERT_NE(first, std::string::npos);
  EXPECT_NE(text.find("HashAgg", first + 1), std::string::npos);
}

/// The first operator of `kind` in `op`'s subtree (pre-order), or null.
const POp* FindOp(const POp& op, POp::Kind kind) {
  if (op.kind == kind) return &op;
  for (const auto& child : op.children) {
    if (const POp* found = FindOp(*child, kind)) return found;
  }
  return nullptr;
}

std::vector<AggFn> AggFns(const POp& agg) {
  std::vector<AggFn> fns;
  for (const auto& a : agg.aggregates) fns.push_back(a.fn);
  return fns;
}

TEST_F(PlannerTest, GroupedAggTwoPhase) {
  // lineitem is partitioned on l_orderkey, so grouping by l_suppkey needs
  // an exchange: only partial states cross it.
  auto p = Plan("SELECT l_suppkey, avg(l_quantity), min(l_shipdate), "
                "count(*) FROM lineitem GROUP BY l_suppkey");
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  ASSERT_EQ(p->fragments.size(), 2u) << p->ToString();
  // Partial: AVG splits into SUM and COUNT, below a hash exchange on the
  // group column.
  const Fragment& partial = *p->fragments[0];
  ASSERT_EQ(partial.root->kind, POp::Kind::kHashAgg) << p->ToString();
  EXPECT_EQ(partial.root->group_exprs.size(), 1u);
  EXPECT_EQ(AggFns(*partial.root),
            (std::vector<AggFn>{AggFn::kSum, AggFn::kCount, AggFn::kMin,
                                AggFn::kCount}));
  EXPECT_EQ(partial.partitioning, Partitioning::kHash);
  EXPECT_EQ(partial.hash_cols, std::vector<int>{0});
  EXPECT_EQ(partial.consumer_nodes, (std::vector<int>{0, 1}));
  // Final: merges the partial columns on every node (COUNT and SUM by SUM,
  // MIN kept), straight off the exchange.
  const POp* final_agg = FindOp(*p->fragments[1]->root, POp::Kind::kHashAgg);
  ASSERT_NE(final_agg, nullptr) << p->ToString();
  EXPECT_EQ(AggFns(*final_agg),
            (std::vector<AggFn>{AggFn::kSum, AggFn::kSum, AggFn::kMin,
                                AggFn::kSum}));
  ASSERT_EQ(final_agg->children.size(), 1u);
  EXPECT_EQ(final_agg->children[0]->kind, POp::Kind::kMerger);
  EXPECT_EQ(p->fragments[1]->nodes, (std::vector<int>{0, 1}));
  EXPECT_EQ(p->result_schema.column(1).type, DataType::kFloat64);
}

TEST_F(PlannerTest, CoLocatedGroupByAggregatesLocally) {
  // Grouping on lineitem's partition key: one local HashAgg, no exchange
  // below the result gather.
  auto p = Plan("SELECT l_orderkey, sum(l_quantity), avg(l_discount) "
                "FROM lineitem GROUP BY l_orderkey");
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  ASSERT_EQ(p->fragments.size(), 1u) << p->ToString();
  const POp* agg = FindOp(*p->fragments[0]->root, POp::Kind::kHashAgg);
  ASSERT_NE(agg, nullptr) << p->ToString();
  EXPECT_EQ(AggFns(*agg), (std::vector<AggFn>{AggFn::kSum, AggFn::kAvg}));
  EXPECT_EQ(FindOp(*agg, POp::Kind::kMerger), nullptr) << p->ToString();
  EXPECT_EQ(p->ToString().find("hash on"), std::string::npos);
}

TEST_F(PlannerTest, OrderByAddsMasterSortFragment) {
  auto p = Plan("SELECT o_orderkey FROM orders ORDER BY o_orderkey LIMIT 5");
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  EXPECT_EQ(p->limit, 5);
  std::string text = p->ToString();
  EXPECT_NE(text.find("Sort"), std::string::npos);
}

TEST_F(PlannerTest, CrossJoinRejected) {
  EXPECT_FALSE(Plan("SELECT 1 FROM orders, customer").ok());
}

TEST_F(PlannerTest, AllWorkloadQueriesPlan) {
  for (int q = 1; q <= 5; ++q) {
    auto p = Plan(*SyntheticQuery(q));
    EXPECT_TRUE(p.ok()) << "S-Q" << q << ": " << p.status().ToString();
  }
  for (int q = 6; q <= 9; ++q) {
    auto p = Plan(*SseQuery(q));
    EXPECT_TRUE(p.ok()) << "SSE-Q" << q << ": " << p.status().ToString();
  }
  for (int q : SupportedTpchQueries()) {
    auto p = Plan(*TpchQuery(q));
    EXPECT_TRUE(p.ok()) << "Q" << q << ": " << p.status().ToString();
  }
}

// --- Selectivity sample ---------------------------------------------------------

/// The planner's sample budget: one row from each of this many strata.
constexpr int64_t kSampleRows = 4000;

/// Row-at-a-time reference for SampleSelectivity: EvalBool over the rows at
/// SelectivitySamplePositions, partition by partition, block by block, row
/// by row.
SelectivitySample RowAtATimeSample(const Table& table, const Expr& pred) {
  const std::vector<int64_t> positions =
      SelectivitySamplePositions(table.num_rows());
  SelectivitySample sample;
  size_t next = 0;
  int64_t position = 0;
  for (int p = 0; p < table.num_partitions(); ++p) {
    const TablePartition& part = table.partition(p);
    for (int b = 0; b < part.num_blocks(); ++b) {
      const Block& block = *part.block(b);
      for (int32_t r = 0; r < block.num_rows(); ++r, ++position) {
        // A row two slices drew counts twice.
        for (; next < positions.size() && positions[next] == position;
             ++next) {
          ++sample.rows;
          sample.hits += pred.EvalBool(table.schema(), block.RowAt(r));
        }
      }
    }
  }
  return sample;
}

/// Appends the scans in `op`'s subtree that carry a pushed-down predicate.
void CollectFilteredScans(const POp& op, std::vector<const POp*>* scans) {
  if (op.kind == POp::Kind::kScan && op.predicate != nullptr) {
    scans->push_back(&op);
  }
  for (const auto& child : op.children) CollectFilteredScans(*child, scans);
}

/// The data of the workload-sized planner tests: TPC-H SF 0.005 (lineitem
/// holds about 30 000 rows in 2 partitions) and SSE with 40 000 trades and
/// 20 000 securities, seed 1, two partitions each, planned for 2 nodes.
class WorkloadDataTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog_ = new Catalog;
    TpchConfig tpch;
    tpch.scale_factor = 0.005;
    tpch.num_partitions = 2;
    tpch.seed = 1;
    ASSERT_TRUE(GenerateTpch(tpch, catalog_).ok());
    SseConfig sse;
    sse.trades_rows = 40000;
    sse.securities_rows = 20000;
    sse.num_partitions = 2;
    sse.seed = 1;
    ASSERT_TRUE(GenerateSse(sse, catalog_).ok());
  }
  static void TearDownTestSuite() { delete catalog_; }

  static Result<PhysicalPlan> Plan(std::string_view sql) {
    PlannerOptions opts;
    opts.num_nodes = 2;
    Planner planner(catalog_, opts);
    return planner.PlanSql(sql);
  }

  /// The workload queries by name: the 11 TPC-H benchmark queries, then
  /// SSE-Q6..Q9.
  static std::vector<std::pair<std::string, std::string_view>>
  WorkloadQueries() {
    std::vector<std::pair<std::string, std::string_view>> queries;
    for (int q : SupportedTpchQueries()) {
      queries.emplace_back(StrFormat("TPC-H Q%d", q), *TpchQuery(q));
    }
    for (int q = 6; q <= 9; ++q) {
      queries.emplace_back(StrFormat("SSE-Q%d", q), *SseQuery(q));
    }
    return queries;
  }

  /// The filter the planner pushes into `table`'s scan for `where`; null,
  /// with a test failure, unless the plan has exactly one filtered scan.
  static ExprPtr PushedDownFilter(const std::string& table,
                                  const std::string& where) {
    auto plan = Plan("SELECT count(*) FROM " + table + " WHERE " + where);
    if (!plan.ok()) {
      ADD_FAILURE() << where << ": " << plan.status().ToString();
      return nullptr;
    }
    std::vector<const POp*> scans;
    for (const auto& f : plan->fragments) {
      CollectFilteredScans(*f->root, &scans);
    }
    if (scans.size() != 1) {
      ADD_FAILURE() << where << ": " << scans.size() << " filtered scans";
      return nullptr;
    }
    return scans[0]->predicate;
  }

  /// Checks SampleSelectivity against the row-at-a-time reference for the
  /// filter the planner pushes into `table`'s scan for `where`.
  static void ExpectExactSample(const std::string& table,
                                const std::string& where) {
    const ExprPtr pred = PushedDownFilter(table, where);
    ASSERT_NE(pred, nullptr);
    const Table& t = **catalog_->GetTable(table);
    const SelectivitySample expected = RowAtATimeSample(t, *pred);
    const SelectivitySample sample = SampleSelectivity(t, pred);
    EXPECT_EQ(sample.rows, std::min<int64_t>(t.num_rows(), kSampleRows));
    EXPECT_EQ(sample.rows, expected.rows) << where;
    EXPECT_EQ(sample.hits, expected.hits) << where;
    EXPECT_GT(expected.hits, 0) << where << ": pick a predicate rows pass";
    EXPECT_LT(expected.hits, expected.rows) << where << ": and some fail";
  }

  static Catalog* catalog_;
};

Catalog* WorkloadDataTest::catalog_ = nullptr;

class SelectivitySampleTest : public WorkloadDataTest {};

TEST_F(SelectivitySampleTest, TenValueColumnLessThanThree) {
  Schema s({ColumnDef::Int32("k"), ColumnDef::Int64("v")});
  Table t("t", s, 1, {0});
  for (int i = 0; i < 10000; ++i) {
    t.AppendValues({Value::Int32(i % 10), Value::Int64(i)});
  }
  ExprPtr pred = MakeCompare(CompareOp::kLt, MakeColumnRef(0, DataType::kInt32),
                             MakeLiteral(Value::Int32(3)));
  EXPECT_NEAR(SampleSelectivity(t, pred).fraction(), 0.3, 0.02);
}

TEST_F(SelectivitySampleTest, EmptyTableSamplesZero) {
  Schema s({ColumnDef::Int32("k")});
  Table t("empty", s, 2, {0});
  ExprPtr pred = MakeCompare(CompareOp::kLt, MakeColumnRef(0, DataType::kInt32),
                             MakeLiteral(Value::Int32(3)));
  const SelectivitySample sample = SampleSelectivity(t, pred);
  EXPECT_EQ(sample.rows, 0);
  EXPECT_EQ(sample.hits, 0);
  EXPECT_EQ(sample.fraction(), 0.0);
}

TEST_F(SelectivitySampleTest, EveryBlockContributesInProportion) {
  const Table& lineitem = **catalog_->GetTable("lineitem");
  ASSERT_GT(lineitem.num_rows(), kSampleRows);
  ASSERT_EQ(lineitem.num_partitions(), 2);
  const std::vector<int64_t> positions =
      SelectivitySamplePositions(lineitem.num_rows());
  ASSERT_EQ(static_cast<int64_t>(positions.size()), kSampleRows);
  EXPECT_TRUE(std::is_sorted(positions.begin(), positions.end()));
  // A block of R rows holds R x kSampleRows / N of the strata, give or take
  // the two it shares with its neighbours.
  const double per_row = static_cast<double>(kSampleRows) /
                         static_cast<double>(lineitem.num_rows());
  int64_t base = 0;
  int blocks = 0;
  for (int p = 0; p < lineitem.num_partitions(); ++p) {
    const TablePartition& part = lineitem.partition(p);
    for (int b = 0; b < part.num_blocks(); ++b, ++blocks) {
      const int64_t end = base + part.block(b)->num_rows();
      const auto in_block =
          std::lower_bound(positions.begin(), positions.end(), end) -
          std::lower_bound(positions.begin(), positions.end(), base);
      const double share = per_row * static_cast<double>(end - base);
      EXPECT_GE(static_cast<double>(in_block), share - 2) << p << "/" << b;
      EXPECT_LE(static_cast<double>(in_block), share + 2) << p << "/" << b;
      base = end;
    }
  }
  EXPECT_GT(blocks, 2);
  ExpectExactSample("lineitem", "l_quantity < 25");
}

TEST_F(SelectivitySampleTest, TableWithinTheBudgetIsReadWhole) {
  const Table& part = **catalog_->GetTable("part");
  ASSERT_LE(part.num_rows(), kSampleRows);
  const std::vector<int64_t> positions =
      SelectivitySamplePositions(part.num_rows());
  ASSERT_EQ(static_cast<int64_t>(positions.size()), part.num_rows());
  for (size_t i = 0; i < positions.size(); ++i) {
    ASSERT_EQ(positions[i], static_cast<int64_t>(i));
  }
  ExpectExactSample("part", "p_size < 20");
}

TEST_F(SelectivitySampleTest, OnePercentFiltersWithinThirtyPercent) {
  // 100 000 rows sorted on k, with v a scattered permutation of k: a 1%
  // range in the middle of the sorted data (which a prefix sample misses
  // entirely) and a 1% filter spread over the table.
  Schema s({ColumnDef::Int32("k"), ColumnDef::Int32("v")});
  Table t("t", s, 2, {});
  for (int32_t i = 0; i < 100000; ++i) {
    t.AppendValues({Value::Int32(i), Value::Int32((i * 7919) % 100000)});
  }
  auto range = MakeLogic(
      LogicOp::kAnd,
      MakeCompare(CompareOp::kGe, MakeColumnRef(0, DataType::kInt32),
                  MakeLiteral(Value::Int32(60000))),
      MakeCompare(CompareOp::kLt, MakeColumnRef(0, DataType::kInt32),
                  MakeLiteral(Value::Int32(61000))));
  auto scattered =
      MakeCompare(CompareOp::kLt, MakeColumnRef(1, DataType::kInt32),
                  MakeLiteral(Value::Int32(1000)));
  for (const ExprPtr& pred : {range, scattered}) {
    const SelectivitySample sample = SampleSelectivity(t, pred);
    EXPECT_EQ(sample.rows, kSampleRows);
    EXPECT_NEAR(sample.fraction(), 0.01, 0.003) << pred->ToString();
    const SelectivitySample expected = RowAtATimeSample(t, *pred);
    EXPECT_EQ(sample.hits, expected.hits) << pred->ToString();
  }
}

TEST_F(SelectivitySampleTest, ScalarFallbackNode) {
  const std::string where = "CASE WHEN l_quantity < 10 THEN 1 ELSE 0 END = 1";
  const ExprPtr pred = PushedDownFilter("lineitem", where);
  ASSERT_NE(pred, nullptr);
  const Schema& schema = (*catalog_->GetTable("lineitem"))->schema();
  EXPECT_FALSE(BatchPredicate::Compile(schema, pred)->fully_compiled());
  ExpectExactSample("lineitem", where);
}

TEST_F(SelectivitySampleTest, WorkloadPredicateShapes) {
  // Q12: IN list plus column-column compares.
  ExpectExactSample("lineitem",
                    "l_shipmode IN ('MAIL', 'SHIP') "
                    "AND l_commitdate < l_receiptdate "
                    "AND l_shipdate < l_commitdate "
                    "AND l_receiptdate >= '1994-01-01' "
                    "AND l_receiptdate < '1995-01-01'");
  // Q10: CHAR equality.
  ExpectExactSample("lineitem", "l_returnflag = 'R'");
  // Q9: LIKE.
  ExpectExactSample("part", "p_name LIKE '%green%'");
}

TEST_F(SelectivitySampleTest, WorkloadScanPredicatesFullyCompile) {
  // The sample runs every scan predicate through the batch kernels; a
  // scalar fallback node would put per-row evaluation back into planning.
  int checked = 0;
  for (const auto& [name, sql] : WorkloadQueries()) {
    auto plan = Plan(sql);
    ASSERT_TRUE(plan.ok()) << name << ": " << plan.status().ToString();
    std::vector<const POp*> scans;
    for (const auto& f : plan->fragments) {
      CollectFilteredScans(*f->root, &scans);
    }
    for (const POp* scan : scans) {
      EXPECT_TRUE(BatchPredicate::Compile(scan->output_schema, scan->predicate)
                      ->fully_compiled())
          << name << ": " << scan->ToString();
      ++checked;
    }
  }
  EXPECT_GT(checked, 0);
}

// --- Join order -----------------------------------------------------------------

/// Base tables in the order `op`'s left-deep join tree adds them to the
/// stream: the probe side first, then the build side; a merger continues in
/// the fragment feeding its exchange.
std::vector<std::string> JoinedTables(const PhysicalPlan& plan,
                                      const POp& op) {
  switch (op.kind) {
    case POp::Kind::kScan:
      return {op.table_name};
    case POp::Kind::kMerger:
      for (const auto& f : plan.fragments) {
        if (f->out_exchange_id == op.exchange_id) {
          return JoinedTables(plan, *f->root);
        }
      }
      return {};
    case POp::Kind::kHashJoin: {
      std::vector<std::string> tables = JoinedTables(plan, *op.children[1]);
      for (std::string& t : JoinedTables(plan, *op.children[0])) {
        tables.push_back(std::move(t));
      }
      return tables;
    }
    default:
      return JoinedTables(plan, *op.children[0]);
  }
}

/// The plan's join order: the longest JoinedTables over its fragments.
std::vector<std::string> JoinOrder(const PhysicalPlan& plan) {
  std::vector<std::string> longest;
  for (const auto& f : plan.fragments) {
    std::vector<std::string> tables = JoinedTables(plan, *f->root);
    if (tables.size() > longest.size()) longest = std::move(tables);
  }
  return longest;
}

/// Appends the hash joins in `op`'s subtree, pre-order.
void CollectJoins(const POp& op, std::vector<const POp*>* joins) {
  if (op.kind == POp::Kind::kHashJoin) joins->push_back(&op);
  for (const auto& child : op.children) CollectJoins(*child, joins);
}

std::vector<const POp*> Joins(const PhysicalPlan& plan) {
  std::vector<const POp*> joins;
  for (const auto& f : plan.fragments) CollectJoins(*f->root, &joins);
  return joins;
}

size_t IndexOf(const std::vector<std::string>& order, const std::string& t) {
  return static_cast<size_t>(std::find(order.begin(), order.end(), t) -
                             order.begin());
}

class JoinOrderTest : public WorkloadDataTest {};

TEST_F(JoinOrderTest, ForeignKeyChainJoinsTheSelectiveRelationFirst) {
  // Q5: orders, filtered to one year, shrinks the lineitem stream to about
  // a seventh; supplier and customer keep it whole. The parent order joined
  // customer on c_nationkey = s_nationkey (25 values) before orders.
  auto plan = Plan(*TpchQuery(5));
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const std::vector<std::string> order = JoinOrder(*plan);
  ASSERT_EQ(order.size(), 6u) << plan->ToString();
  EXPECT_EQ(order[0], "lineitem");
  EXPECT_EQ(order[1], "orders");
  EXPECT_LT(IndexOf(order, "orders"), IndexOf(order, "supplier"));
  EXPECT_LT(IndexOf(order, "orders"), IndexOf(order, "customer"));
}

TEST_F(JoinOrderTest, SingleCandidateDecisionsEstimateNothing) {
  // Every decision of Q3 (lineitem, then orders, then customer) and of the
  // two-relation SSE-Q9 has one candidate: no join carries an estimate,
  // while the scans carry their filtered rows.
  for (std::string_view sql : {*TpchQuery(3), *SseQuery(9)}) {
    auto plan = Plan(sql);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    for (const POp* join : Joins(*plan)) {
      EXPECT_EQ(join->est_rows, -1) << plan->ToString();
    }
    std::vector<const POp*> scans;
    for (const auto& f : plan->fragments) CollectFilteredScans(*f->root, &scans);
    ASSERT_FALSE(scans.empty());
    for (const POp* scan : scans) EXPECT_GT(scan->est_rows, 0);
  }
  // Q5 compares candidates until customer is the last one left.
  auto q5 = Plan(*TpchQuery(5));
  ASSERT_TRUE(q5.ok()) << q5.status().ToString();
  int estimated = 0;
  for (const POp* join : Joins(*q5)) estimated += join->est_rows >= 0;
  EXPECT_EQ(estimated, 4) << q5->ToString();
}

TEST_F(JoinOrderTest, ConcurrentPlannersShareTheDistinctCounts) {
  // Distinct counts are memoized in the shared catalog on first read; plans
  // made concurrently from a cold catalog agree with one made alone.
  Catalog catalog;
  for (const std::string& name : catalog_->TableNames()) {
    ASSERT_TRUE(catalog.RegisterTable(*catalog_->GetTable(name)).ok());
  }
  const std::string expected = Plan(*TpchQuery(9))->ToString();
  std::vector<std::string> plans(4);
  std::vector<std::thread> threads;
  for (size_t i = 0; i < plans.size(); ++i) {
    threads.emplace_back([&, i] {
      PlannerOptions opts;
      opts.num_nodes = 2;
      Planner planner(&catalog, opts);
      auto plan = planner.PlanSql(*TpchQuery(i % 2 == 0 ? 9 : 5));
      if (plan.ok()) plans[i] = plan->ToString();
    });
  }
  for (std::thread& t : threads) t.join();
  for (size_t i = 0; i < plans.size(); i += 2) EXPECT_EQ(plans[i], expected);
  EXPECT_EQ(plans[1], Plan(*TpchQuery(5))->ToString());
}

/// TPC-H SF 0.1 in two partitions, for the estimates whose choice only
/// flips at that scale.
class JoinOrderSf01Test : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog_ = new Catalog;
    TpchConfig tpch;
    tpch.scale_factor = 0.1;
    tpch.num_partitions = 2;
    tpch.seed = 1;
    ASSERT_TRUE(GenerateTpch(tpch, catalog_).ok());
  }
  static void TearDownTestSuite() { delete catalog_; }
  static Catalog* catalog_;
};

Catalog* JoinOrderSf01Test::catalog_ = nullptr;

TEST_F(JoinOrderSf01Test, TwoEdgeRelationIsEstimatedByItsMostSelectiveEdge) {
  // partsupp joins lineitem on ps_partkey and ps_suppkey. Its most selective
  // edge (partkey, 20 000 values) keeps 4 rows per stream row, so it joins
  // last. Dividing by both edges' distinct counts would estimate 0.004 of
  // lineitem and shuffle every lineitem row to partsupp first.
  PlannerOptions opts;
  opts.num_nodes = 2;
  Planner planner(catalog_, opts);
  auto plan = planner.PlanSql(*TpchQuery(9));
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const std::vector<std::string> order = JoinOrder(*plan);
  ASSERT_EQ(order.size(), 6u) << plan->ToString();
  EXPECT_EQ(order[0], "lineitem");
  EXPECT_EQ(order[1], "part") << plan->ToString();
  EXPECT_EQ(order.back(), "partsupp") << plan->ToString();
}

// --- Pinned plans ---------------------------------------------------------------

/// Reads tests/data/pinned_plans.txt: lines before the first "== <query>"
/// header are a preamble; each header starts that query's EXPLAIN text.
std::map<std::string, std::string> ReadPinnedPlans() {
  std::ifstream in(CLAIMS_PINNED_PLANS);
  std::map<std::string, std::string> plans;
  std::string line;
  std::string* current = nullptr;
  while (std::getline(in, line)) {
    if (line.rfind("== ", 0) == 0) {
      current = &plans[line.substr(3)];
    } else if (current != nullptr) {
      *current += line + "\n";
    }
  }
  return plans;
}

class PlannerPinTest : public WorkloadDataTest {};

TEST_F(PlannerPinTest, ExplainMatchesPinnedText) {
  const std::map<std::string, std::string> pinned = ReadPinnedPlans();
  const auto queries = WorkloadQueries();
  ASSERT_EQ(pinned.size(), queries.size()) << CLAIMS_PINNED_PLANS;
  for (const auto& [name, sql] : queries) {
    auto plan = Plan(sql);
    ASSERT_TRUE(plan.ok()) << name << ": " << plan.status().ToString();
    auto it = pinned.find(name);
    ASSERT_NE(it, pinned.end())
        << name << " missing from " << CLAIMS_PINNED_PLANS;
    EXPECT_EQ(plan->ToString(), it->second) << name;
  }
}

TEST_F(PlannerPinTest, EveryJoinCarriesItsBuildEstimate) {
  // The estimate sizes each join's bucket array; EXPLAIN does not print it
  // (ExplainMatchesPinnedText).
  int joins = 0;
  for (const auto& [name, sql] : WorkloadQueries()) {
    auto plan = Plan(sql);
    ASSERT_TRUE(plan.ok()) << name << ": " << plan.status().ToString();
    for (const POp* join : Joins(*plan)) {
      EXPECT_GE(join->build_rows, 1) << name;
      ++joins;
    }
  }
  EXPECT_GT(joins, 20);
}

}  // namespace
}  // namespace claims
