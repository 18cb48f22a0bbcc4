// End-to-end SQL execution: the full stack (parser → binder → planner →
// distributed elastic execution) against independently computed oracles and
// cross-mode consistency checks.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <thread>

#include "common/string_util.h"
#include "engine/database.h"
#include "engine/workloads.h"
#include "ledger_balance_check.h"
#include "obs/metrics_registry.h"
#include "obs/profile/assembler.h"
#include "obs/recorder.h"

namespace claims {
namespace {

/// Row-wise scan helper over every partition of a table.
template <typename Fn>
void ForEachRow(const Table& table, Fn&& fn) {
  for (int p = 0; p < table.num_partitions(); ++p) {
    const TablePartition& part = table.partition(p);
    for (int b = 0; b < part.num_blocks(); ++b) {
      const Block& blk = *part.block(b);
      for (int r = 0; r < blk.num_rows(); ++r) fn(blk.RowAt(r));
    }
  }
}

class SqlExecTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DatabaseOptions options;
    options.cluster.num_nodes = 3;
    options.cluster.cores_per_node = 4;
    db_ = new Database(options);
    TpchConfig tpch;
    tpch.scale_factor = 0.002;
    ASSERT_TRUE(db_->LoadTpch(tpch).ok());
    SseConfig sse;
    sse.securities_rows = 4000;
    sse.trades_rows = 6000;
    sse.num_accounts = 300;
    sse.num_securities = 50;
    ASSERT_TRUE(db_->LoadSse(sse).ok());
  }
  static void TearDownTestSuite() { delete db_; }

  static ResultSet Run(std::string_view sql, ExecMode mode = ExecMode::kStatic,
                       int parallelism = 2) {
    ExecOptions opts;
    opts.mode = mode;
    opts.parallelism = parallelism;
    auto r = db_->Query(sql, opts);
    EXPECT_TRUE(r.ok()) << sql << "\n" << r.status().ToString();
    return r.ok() ? std::move(*r) : ResultSet();
  }

  /// Runs `sql` under EP, SP p=4 and ME and hands each result to `check`.
  template <typename Check>
  static void ForEachMode(std::string_view sql, Check&& check) {
    for (auto [mode, parallelism] : {std::pair{ExecMode::kElastic, 1},
                                     std::pair{ExecMode::kStatic, 4},
                                     std::pair{ExecMode::kMaterialized, 2}}) {
      SCOPED_TRACE(StrFormat("%s p=%d", ExecModeName(mode), parallelism));
      check(Run(sql, mode, parallelism));
    }
  }

  static Database* db_;
};

Database* SqlExecTest::db_ = nullptr;

TEST_F(SqlExecTest, NegativeZeroKeysFormOneGroup) {
  // The key is 0.0 where l_tax >= 0.04 and -0.0 where it is lower. The two
  // compare equal, so SQL has one group, in every mode: the aggregation
  // tables, the shuffle's partitioning and the final merge must all put
  // -0.0 with 0.0.
  const ResultSet filtered =
      Run("SELECT count(*) FROM lineitem WHERE l_discount = 0.0");
  ASSERT_EQ(filtered.Rows().size(), 1u);
  const int64_t want = filtered.Rows()[0][0].AsInt64();
  ASSERT_GT(want, 0);
  const std::string_view sql =
      "SELECT l_discount * (l_tax - 0.04), count(*) FROM lineitem "
      "WHERE l_discount = 0.0 GROUP BY l_discount * (l_tax - 0.04)";
  for (auto [mode, parallelism] : {std::pair{ExecMode::kElastic, 1},
                                   std::pair{ExecMode::kStatic, 1},
                                   std::pair{ExecMode::kStatic, 2},
                                   std::pair{ExecMode::kMaterialized, 2}}) {
    SCOPED_TRACE(StrFormat("%s p=%d", ExecModeName(mode), parallelism));
    const auto rows = Run(sql, mode, parallelism).Rows();
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0][0].AsFloat64(), 0.0);
    EXPECT_EQ(rows[0][1].AsInt64(), want);
  }
}

TEST_F(SqlExecTest, CountStar) {
  ResultSet r = Run("SELECT count(*) FROM orders");
  ASSERT_EQ(r.num_rows(), 1);
  EXPECT_EQ(r.Get(0, 0).AsInt64(),
            (*db_->catalog()->GetTable("orders"))->num_rows());
}

TEST_F(SqlExecTest, FilterCountMatchesOracle) {
  TablePtr orders = *db_->catalog()->GetTable("orders");
  const Schema& s = orders->schema();
  int col = s.FindColumn("o_totalprice");
  int64_t expected = 0;
  ForEachRow(*orders, [&](const char* row) {
    if (s.GetFloat64(row, col) > 150000.0) ++expected;
  });
  ResultSet r =
      Run("SELECT count(*) FROM orders WHERE o_totalprice > 150000.0");
  EXPECT_EQ(r.Get(0, 0).AsInt64(), expected);
}

TEST_F(SqlExecTest, ScalarAggregatesMatchOracle) {
  TablePtr lineitem = *db_->catalog()->GetTable("lineitem");
  const Schema& s = lineitem->schema();
  int qty = s.FindColumn("l_quantity");
  double sum = 0, mn = 1e18, mx = -1e18;
  int64_t count = 0;
  ForEachRow(*lineitem, [&](const char* row) {
    double v = s.GetFloat64(row, qty);
    sum += v;
    mn = std::min(mn, v);
    mx = std::max(mx, v);
    ++count;
  });
  ResultSet r = Run(
      "SELECT sum(l_quantity), avg(l_quantity), min(l_quantity), "
      "max(l_quantity), count(*) FROM lineitem");
  ASSERT_EQ(r.num_rows(), 1);
  EXPECT_NEAR(r.Get(0, 0).ToDouble(), sum, 1e-6 * sum);
  EXPECT_NEAR(r.Get(0, 1).AsFloat64(), sum / count, 1e-6);
  EXPECT_DOUBLE_EQ(r.Get(0, 2).ToDouble(), mn);
  EXPECT_DOUBLE_EQ(r.Get(0, 3).ToDouble(), mx);
  EXPECT_EQ(r.Get(0, 4).AsInt64(), count);
}

TEST_F(SqlExecTest, GroupByMatchesOracle) {
  TablePtr lineitem = *db_->catalog()->GetTable("lineitem");
  const Schema& s = lineitem->schema();
  int rf = s.FindColumn("l_returnflag");
  int qty = s.FindColumn("l_quantity");
  std::map<std::string, std::pair<double, int64_t>> oracle;
  ForEachRow(*lineitem, [&](const char* row) {
    auto& agg = oracle[std::string(s.GetString(row, rf))];
    agg.first += s.GetFloat64(row, qty);
    agg.second += 1;
  });
  ResultSet r = Run(
      "SELECT l_returnflag, sum(l_quantity), count(*) FROM lineitem "
      "GROUP BY l_returnflag ORDER BY l_returnflag");
  ASSERT_EQ(r.num_rows(), static_cast<int64_t>(oracle.size()));
  int64_t i = 0;
  for (const auto& [flag, agg] : oracle) {  // map iterates sorted
    EXPECT_EQ(r.Get(i, 0).AsString(), flag);
    EXPECT_NEAR(r.Get(i, 1).ToDouble(), agg.first, 1e-6 * agg.first);
    EXPECT_EQ(r.Get(i, 2).AsInt64(), agg.second);
    ++i;
  }
}

TEST_F(SqlExecTest, TwoPhaseGroupedAggregatesMatchOracle) {
  // Neither grouping below is co-located with its table's partitioning, so
  // each runs as partial HashAgg -> shuffle on the group keys -> final merge.
  TablePtr lineitem = *db_->catalog()->GetTable("lineitem");
  const Schema& ls = lineitem->schema();
  const int supp = ls.FindColumn("l_suppkey");
  const int qty = ls.FindColumn("l_quantity");
  const int price = ls.FindColumn("l_extendedprice");
  const int disc = ls.FindColumn("l_discount");
  struct Supp {
    double qty = 0, disc = 0, min_price = 1e300, max_price = -1e300;
    int64_t count = 0;
  };
  std::map<int64_t, Supp> by_supp;
  ForEachRow(*lineitem, [&](const char* row) {
    Supp& g = by_supp[ls.GetInt32(row, supp)];
    g.qty += ls.GetFloat64(row, qty);
    g.disc += ls.GetFloat64(row, disc);
    g.min_price = std::min(g.min_price, ls.GetFloat64(row, price));
    g.max_price = std::max(g.max_price, ls.GetFloat64(row, price));
    ++g.count;
  });
  ForEachMode(
      "SELECT l_suppkey, avg(l_quantity), min(l_extendedprice), "
      "max(l_extendedprice), count(*), sum(l_discount) FROM lineitem "
      "GROUP BY l_suppkey",
      [&](const ResultSet& r) {
        auto rows = r.Rows(/*sorted=*/true);
        ASSERT_EQ(rows.size(), by_supp.size());
        size_t i = 0;
        for (const auto& [key, g] : by_supp) {
          EXPECT_EQ(rows[i][0].AsInt64(), key);
          EXPECT_NEAR(rows[i][1].AsFloat64(), g.qty / g.count,
                      1e-9 * g.qty / g.count);
          EXPECT_EQ(rows[i][2].ToDouble(), g.min_price);
          EXPECT_EQ(rows[i][3].ToDouble(), g.max_price);
          EXPECT_EQ(rows[i][4].AsInt64(), g.count);
          EXPECT_NEAR(rows[i][5].ToDouble(), g.disc, 1e-9 * g.disc);
          ++i;
        }
      });

  // A YEAR() group expression, a CHAR key, and MIN/MAX of a DATE.
  TablePtr orders = *db_->catalog()->GetTable("orders");
  const Schema& os = orders->schema();
  const int date = os.FindColumn("o_orderdate");
  const int prio = os.FindColumn("o_orderpriority");
  struct Span {
    int32_t first = INT32_MAX, last = INT32_MIN;
    int64_t count = 0;
  };
  std::map<std::pair<int64_t, std::string>, Span> by_year;
  ForEachRow(*orders, [&](const char* row) {
    const int32_t d = os.GetInt32(row, date);
    int y, m, day;
    CivilFromDays(d, &y, &m, &day);
    Span& g = by_year[{y, std::string(os.GetString(row, prio))}];
    g.first = std::min(g.first, d);
    g.last = std::max(g.last, d);
    ++g.count;
  });
  ForEachMode(
      "SELECT YEAR(o_orderdate), o_orderpriority, min(o_orderdate), "
      "max(o_orderdate), count(*) FROM orders "
      "GROUP BY YEAR(o_orderdate), o_orderpriority ORDER BY 1, 2",
      [&](const ResultSet& r) {
        ASSERT_EQ(r.num_rows(), static_cast<int64_t>(by_year.size()));
        ASSERT_EQ(r.schema().column(2).type, DataType::kDate);
        int64_t i = 0;
        for (const auto& [key, g] : by_year) {  // map iterates sorted
          EXPECT_EQ(r.Get(i, 0).AsInt64(), key.first);
          EXPECT_EQ(r.Get(i, 1).AsString(), key.second);
          EXPECT_EQ(r.Get(i, 2).AsInt64(), g.first);
          EXPECT_EQ(r.Get(i, 3).AsInt64(), g.last);
          EXPECT_EQ(r.Get(i, 4).AsInt64(), g.count);
          ++i;
        }
      });

  // HAVING on an AVG, ORDER BY an aggregate. l_quantity holds whole
  // numbers, so each part's sum is exact in any fold order and equal
  // averages tie exactly: the order, ties broken by key, is deterministic.
  const int part = ls.FindColumn("l_partkey");
  std::map<int64_t, std::pair<double, int64_t>> by_part;
  ForEachRow(*lineitem, [&](const char* row) {
    auto& g = by_part[ls.GetInt32(row, part)];
    g.first += ls.GetFloat64(row, qty);
    ++g.second;
  });
  std::vector<std::pair<double, int64_t>> want;  // (avg, partkey)
  for (const auto& [key, g] : by_part) {
    const double avg = g.first / g.second;
    if (avg > 30) want.emplace_back(avg, key);
  }
  std::sort(want.begin(), want.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  ASSERT_GT(want.size(), 0u);
  ASSERT_LT(want.size(), by_part.size());
  ForEachMode(
      "SELECT l_partkey, avg(l_quantity) AS aq FROM lineitem "
      "GROUP BY l_partkey HAVING avg(l_quantity) > 30 ORDER BY aq DESC, 1",
      [&](const ResultSet& r) {
        ASSERT_EQ(r.num_rows(), static_cast<int64_t>(want.size()));
        for (size_t i = 0; i < want.size(); ++i) {
          EXPECT_EQ(r.Get(i, 0).AsInt64(), want[i].second) << "row " << i;
          EXPECT_DOUBLE_EQ(r.Get(i, 1).AsFloat64(), want[i].first)
              << "row " << i;
        }
      });
}

TEST_F(SqlExecTest, SeventeenScalarAggregateSlotsMatchOracle) {
  // Scalar aggregation splits each AVG into SUM + COUNT partial slots, so
  // count(*) plus eight AVGs fold 17 slots per row.
  TablePtr lineitem = *db_->catalog()->GetTable("lineitem");
  const Schema& s = lineitem->schema();
  const int qty = s.FindColumn("l_quantity");
  const int price = s.FindColumn("l_extendedprice");
  const int disc = s.FindColumn("l_discount");
  const int tax = s.FindColumn("l_tax");
  const int line = s.FindColumn("l_linenumber");
  double sums[8] = {};
  int64_t count = 0;
  ForEachRow(*lineitem, [&](const char* row) {
    const double q = s.GetFloat64(row, qty), p = s.GetFloat64(row, price),
                 d = s.GetFloat64(row, disc), t = s.GetFloat64(row, tax);
    const double terms[8] = {q, p, d, t, static_cast<double>(s.GetInt32(row, line)),
                             q * d, p * (1 - d), q + t};
    for (int i = 0; i < 8; ++i) sums[i] += terms[i];
    ++count;
  });
  ResultSet r = Run(
      "SELECT count(*), avg(l_quantity), avg(l_extendedprice), "
      "avg(l_discount), avg(l_tax), avg(l_linenumber), "
      "avg(l_quantity * l_discount), avg(l_extendedprice * (1 - l_discount)), "
      "avg(l_quantity + l_tax) FROM lineitem");
  ASSERT_EQ(r.num_rows(), 1);
  ASSERT_GT(count, 0);
  EXPECT_EQ(r.Get(0, 0).AsInt64(), count);
  for (int i = 0; i < 8; ++i) {
    const double want = sums[i] / count;
    EXPECT_NEAR(r.Get(0, 1 + i).AsFloat64(), want, 1e-9 * std::fabs(want))
        << "avg term " << i;
  }
}

TEST_F(SqlExecTest, SeventeenGroupedSumsMatchOracle) {
  // 17 aggregate slots in a grouped aggregation: sum(l_quantity + k) for
  // k = 1..17 is sum(l_quantity) + k * count per group.
  TablePtr lineitem = *db_->catalog()->GetTable("lineitem");
  const Schema& s = lineitem->schema();
  const int rf = s.FindColumn("l_returnflag");
  const int qty = s.FindColumn("l_quantity");
  std::map<std::string, std::pair<double, int64_t>> oracle;
  ForEachRow(*lineitem, [&](const char* row) {
    auto& agg = oracle[std::string(s.GetString(row, rf))];
    agg.first += s.GetFloat64(row, qty);
    agg.second += 1;
  });
  std::string sql = "SELECT l_returnflag";
  for (int k = 1; k <= 17; ++k) sql += StrFormat(", sum(l_quantity + %d)", k);
  sql += " FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag";
  ResultSet r = Run(sql);
  ASSERT_EQ(r.num_rows(), static_cast<int64_t>(oracle.size()));
  int64_t i = 0;
  for (const auto& [flag, agg] : oracle) {  // map iterates sorted
    EXPECT_EQ(r.Get(i, 0).AsString(), flag);
    for (int k = 1; k <= 17; ++k) {
      const double want = agg.first + static_cast<double>(k) * agg.second;
      EXPECT_NEAR(r.Get(i, k).ToDouble(), want, 1e-9 * want)
          << flag << " k=" << k;
    }
    ++i;
  }
}

TEST_F(SqlExecTest, RepartitionJoinMatchesOracle) {
  // SSE-Q6: count matching (trades ⋈ securities on acct_id) pairs.
  TablePtr trades = *db_->catalog()->GetTable("trades");
  TablePtr securities = *db_->catalog()->GetTable("securities");
  const Schema& ts = trades->schema();
  const Schema& ss = securities->schema();
  int32_t date = DaysFromCivil(2010, 10, 30);
  std::map<int32_t, int64_t> trade_accts;  // acct → #trades on date
  ForEachRow(*trades, [&](const char* row) {
    if (ts.GetInt32(row, ts.FindColumn("trade_date")) == date) {
      trade_accts[ts.GetInt32(row, ts.FindColumn("acct_id"))]++;
    }
  });
  int64_t expected = 0;
  ForEachRow(*securities, [&](const char* row) {
    if (ss.GetInt32(row, ss.FindColumn("sec_code")) == 600036) {
      auto it = trade_accts.find(ss.GetInt32(row, ss.FindColumn("acct_id")));
      if (it != trade_accts.end()) expected += it->second;
    }
  });
  ResultSet r = Run(*SseQuery(6));
  ASSERT_EQ(r.num_rows(), 1);
  EXPECT_EQ(r.Get(0, 0).AsInt64(), expected);
}

TEST_F(SqlExecTest, SseQ9MatchesOracle) {
  TablePtr trades = *db_->catalog()->GetTable("trades");
  TablePtr securities = *db_->catalog()->GetTable("securities");
  const Schema& ts = trades->schema();
  const Schema& ss = securities->schema();
  int32_t date = DaysFromCivil(2010, 10, 30);
  struct Group {
    int64_t trade_volume = 0;
    int64_t entry_volume = 0;
  };
  // Join on acct_id, group by (sec_code of trade, acct_id).
  std::map<int32_t, std::vector<std::pair<int32_t, int64_t>>> secs_by_acct;
  ForEachRow(*securities, [&](const char* row) {
    if (ss.GetInt32(row, 3) == date) {  // entry_date
      secs_by_acct[ss.GetInt32(row, 1)].emplace_back(
          ss.GetInt32(row, 1), ss.GetInt64(row, 4));
    }
  });
  std::map<std::pair<int32_t, int32_t>, Group> oracle;
  ForEachRow(*trades, [&](const char* row) {
    if (ts.GetInt32(row, 2) != date) return;  // trade_date
    int32_t acct = ts.GetInt32(row, 0);
    auto it = secs_by_acct.find(acct);
    if (it == secs_by_acct.end()) return;
    int32_t sec = ts.GetInt32(row, 1);
    for (const auto& [s_acct, entry_vol] : it->second) {
      Group& g = oracle[{sec, s_acct}];
      g.trade_volume += ts.GetInt64(row, 5);
      g.entry_volume += entry_vol;
    }
  });
  ResultSet r = Run(*SseQuery(9));
  ASSERT_EQ(r.num_rows(), static_cast<int64_t>(oracle.size()));
  auto rows = r.Rows(/*sorted=*/true);
  int64_t i = 0;
  for (const auto& [key, g] : oracle) {
    EXPECT_EQ(rows[i][0].AsInt64(), key.first);
    EXPECT_EQ(rows[i][1].AsInt64(), key.second);
    EXPECT_EQ(rows[i][2].AsInt64(), g.trade_volume);
    EXPECT_EQ(rows[i][3].AsInt64(), g.entry_volume);
    ++i;
  }
}

TEST_F(SqlExecTest, OrderByAndLimit) {
  ResultSet r = Run(
      "SELECT o_orderkey, o_totalprice FROM orders "
      "ORDER BY o_totalprice DESC LIMIT 10");
  ASSERT_EQ(r.num_rows(), 10);
  double prev = 1e18;
  for (int i = 0; i < 10; ++i) {
    double v = r.Get(i, 1).AsFloat64();
    EXPECT_LE(v, prev);
    prev = v;
  }
  // Top value matches the oracle max.
  TablePtr orders = *db_->catalog()->GetTable("orders");
  const Schema& s = orders->schema();
  double mx = 0;
  ForEachRow(*orders, [&](const char* row) {
    mx = std::max(mx, s.GetFloat64(row, s.FindColumn("o_totalprice")));
  });
  EXPECT_DOUBLE_EQ(r.Get(0, 1).AsFloat64(), mx);
}

TEST_F(SqlExecTest, HavingFiltersGroups) {
  ResultSet all = Run(
      "SELECT l_suppkey, count(*) AS c FROM lineitem GROUP BY l_suppkey");
  // Split on the median group size so both sides are non-empty.
  std::vector<int64_t> counts;
  for (const auto& row : all.Rows()) counts.push_back(row[1].AsInt64());
  std::sort(counts.begin(), counts.end());
  int64_t threshold = counts[counts.size() / 2];
  ResultSet filtered = Run(StrFormat(
      "SELECT l_suppkey, count(*) AS c FROM lineitem GROUP BY l_suppkey "
      "HAVING count(*) > %lld",
      static_cast<long long>(threshold)));
  int64_t expected = 0;
  for (int64_t c : counts) {
    if (c > threshold) ++expected;
  }
  EXPECT_EQ(filtered.num_rows(), expected);
  EXPECT_LT(filtered.num_rows(), all.num_rows());
  EXPECT_GT(filtered.num_rows(), 0);
}

TEST_F(SqlExecTest, CaseExpressionInAggregate) {
  // Q12 shape: the two CASE sums must add up to the plain count.
  ResultSet r = Run(
      "SELECT sum(CASE WHEN o_orderpriority = '1-URGENT' THEN 1 ELSE 0 END), "
      "sum(CASE WHEN o_orderpriority <> '1-URGENT' THEN 1 ELSE 0 END), "
      "count(*) FROM orders");
  ASSERT_EQ(r.num_rows(), 1);
  EXPECT_EQ(r.Get(0, 0).AsInt64() + r.Get(0, 1).AsInt64(),
            r.Get(0, 2).AsInt64());
  EXPECT_GT(r.Get(0, 0).AsInt64(), 0);
}

TEST_F(SqlExecTest, DerivedTableJoin) {
  // Q2's decorrelated shape on SSE data: per-account minimum price joined
  // back to find rows at that minimum.
  ResultSet r = Run(
      "SELECT count(*) FROM trades t, "
      "(SELECT acct_id AS m_acct, min(order_price) AS m_price FROM trades "
      " GROUP BY acct_id) m "
      "WHERE t.acct_id = m_acct AND t.order_price = m_price");
  ASSERT_EQ(r.num_rows(), 1);
  // At least one minimal-price trade per distinct account.
  TablePtr trades = *db_->catalog()->GetTable("trades");
  const Schema& ts = trades->schema();
  std::map<int32_t, double> min_price;
  std::map<std::pair<int32_t, double>, int64_t> count_at;
  ForEachRow(*trades, [&](const char* row) {
    int32_t acct = ts.GetInt32(row, 0);
    double price = ts.GetFloat64(row, 4);
    auto it = min_price.find(acct);
    if (it == min_price.end() || price < it->second) min_price[acct] = price;
    count_at[{acct, price}]++;
  });
  int64_t expected = 0;
  for (const auto& [acct, price] : min_price) {
    expected += count_at[{acct, price}];
  }
  EXPECT_EQ(r.Get(0, 0).AsInt64(), expected);
}

TEST_F(SqlExecTest, MixedWidthJoinKeysMatchByValue) {
  // Each derived table's INT64 count(*) joins an INT32 key. The join builds
  // on the INT64 side and compares the pair by value, in every mode: every
  // region has 5 nations, and every nation key appears once.
  const std::pair<std::string_view, int64_t> queries[] = {
      {"SELECT count(*) FROM nation, "
       "(SELECT n_regionkey AS rk, count(*) AS c FROM nation "
       "GROUP BY n_regionkey) t WHERE n_nationkey = t.c",
       5},
      {"SELECT count(*) FROM region, "
       "(SELECT n_nationkey AS nk, count(*) AS c FROM nation "
       "GROUP BY n_nationkey) t WHERE r_regionkey = t.c",
       25}};
  for (const auto& [sql, want] : queries) {
    for (auto [mode, parallelism] : {std::pair{ExecMode::kElastic, 1},
                                     std::pair{ExecMode::kStatic, 1},
                                     std::pair{ExecMode::kStatic, 2},
                                     std::pair{ExecMode::kMaterialized, 2}}) {
      SCOPED_TRACE(StrFormat("%s p=%d: %s", ExecModeName(mode), parallelism,
                             std::string(sql).c_str()));
      const auto rows = Run(sql, mode, parallelism).Rows();
      ASSERT_EQ(rows.size(), 1u);
      EXPECT_EQ(rows[0][0].AsInt64(), want);
    }
  }
}

// --- Routing across node counts ----------------------------------------------

/// A result's rows, sorted and rendered.
std::string Rendered(const ResultSet& result) {
  std::string text;
  for (const auto& row : result.Rows(/*sorted=*/true)) {
    for (const Value& v : row) text += v.ToString() + " ";
    text += "\n";
  }
  return text;
}

TEST(RoutingTest, JoinsMatchOneNodeAtEveryNodeCount) {
  // The two sides of a join meet on one node only if the tables and every
  // exchange route a key by one hash of its value. Each query runs on 2, 3
  // and 4 nodes, with every join shuffled and with the default broadcast
  // threshold, and must return what one node returns.
  struct Case {
    std::string_view sql;
    bool at_default_threshold;
  };
  const Case cases[] = {
      // lineitem streams partitioned on l_orderkey, one of its two probe
      // keys. The build side lives partitioned on its paired key, so the
      // join runs where the rows are ...
      {"SELECT count(*) FROM lineitem a, lineitem b "
       "WHERE a.l_orderkey = b.l_orderkey AND a.l_linenumber = b.l_linenumber",
       true},
      // ... or moves to meet the stream, hashed on b.l_partkey alone.
      {"SELECT count(*) FROM lineitem a, lineitem b "
       "WHERE a.l_orderkey = b.l_partkey AND a.l_linenumber = b.l_linenumber",
       true},
      // A FLOAT64 key shuffled to customer, partitioned on INT32 c_custkey.
      {"SELECT count(*) FROM customer, "
       "(SELECT o_orderkey AS k, avg(o_custkey) AS a FROM orders "
       "GROUP BY o_orderkey) t WHERE c_custkey = t.a",
       true},
      // MixedWidthJoinKeysMatchByValue's joins, shuffled: an INT64 count(*)
      // meets INT32 keys.
      {"SELECT count(*) FROM nation, "
       "(SELECT n_regionkey AS rk, count(*) AS c FROM nation "
       "GROUP BY n_regionkey) t WHERE n_nationkey = t.c",
       false},
      {"SELECT count(*) FROM region, "
       "(SELECT n_nationkey AS nk, count(*) AS c FROM nation "
       "GROUP BY n_nationkey) t WHERE r_regionkey = t.c",
       false}};
  const int64_t default_threshold = PlannerOptions().broadcast_threshold_rows;
  std::vector<std::string> want;  // one node's results
  int64_t lineitem_rows = 0;
  int64_t orders_rows = 0;
  for (const int nodes : {1, 2, 3, 4}) {
    for (const int64_t threshold : {int64_t{0}, default_threshold}) {
      if (nodes == 1 && threshold == 0) continue;
      DatabaseOptions options;
      options.cluster.num_nodes = nodes;
      options.cluster.cores_per_node = 2;
      options.planner.broadcast_threshold_rows = threshold;
      Database db(options);
      ASSERT_TRUE(db.LoadTpch({.scale_factor = 0.005}).ok());
      lineitem_rows = (*db.catalog()->GetTable("lineitem"))->num_rows();
      orders_rows = (*db.catalog()->GetTable("orders"))->num_rows();
      for (size_t q = 0; q < std::size(cases); ++q) {
        const Case& c = cases[q];
        if (threshold != 0 && !c.at_default_threshold && nodes > 1) continue;
        for (auto [mode, parallelism] :
             {std::pair{ExecMode::kElastic, 1}, std::pair{ExecMode::kStatic, 2},
              std::pair{ExecMode::kMaterialized, 2}}) {
          SCOPED_TRACE(StrFormat("%d nodes, threshold %lld, %s p=%d: %s",
                                 nodes, static_cast<long long>(threshold),
                                 ExecModeName(mode), parallelism,
                                 std::string(c.sql).c_str()));
          ExecOptions exec;
          exec.mode = mode;
          exec.parallelism = parallelism;
          auto result = db.Query(c.sql, exec);
          ASSERT_TRUE(result.ok()) << result.status().ToString();
          if (want.size() <= q) want.push_back(Rendered(*result));
          EXPECT_EQ(Rendered(*result), want[q]);
        }
      }
    }
  }
  // Independent counts: (l_orderkey, l_linenumber) is lineitem's key, and
  // each order's avg(o_custkey) is its customer key.
  EXPECT_EQ(want[0], std::to_string(lineitem_rows) + " \n");
  EXPECT_EQ(want[2], std::to_string(orders_rows) + " \n");
}

// --- Join order: bounded intermediate rows -------------------------------------

/// Runs `sql` with the event recorder on and returns its assembled profile.
std::shared_ptr<const QueryProfile> ProfiledRun(Database* db,
                                                std::string_view sql) {
  EventRecorder* recorder = EventRecorder::Global();
  recorder->Clear();
  recorder->Enable();
  auto r = db->Query(sql);
  recorder->Disable();
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  auto profile = recorder->GetProfile(db->executor()->report().profile_query_id);
  recorder->Clear();
  return profile;
}

TEST_F(SqlExecTest, JoinsStreamAtMostLineitemRows) {
  // Q5 and Q9 join five relations into the lineitem stream. Joining the
  // selective relations first keeps every intermediate result below
  // lineitem; joining customer on c_nationkey = s_nationkey (25 values)
  // before orders made Q5's customer join alone emit more rows than
  // lineitem holds.
  const int64_t lineitem = (*db_->catalog()->GetTable("lineitem"))->num_rows();
  for (int q : {5, 9}) {
    SCOPED_TRACE(StrFormat("Q%d", q));
    auto profile = ProfiledRun(db_, *TpchQuery(q));
    ASSERT_NE(profile, nullptr);
    int64_t joined = 0;
    int joins = 0;
    for (const ProfOperatorStat& op : profile->operators) {
      if (op.name != "hash-join") continue;
      joined += op.rows;
      ++joins;
    }
    EXPECT_GE(joins, 5);
    EXPECT_LE(joined, lineitem) << profile->ToText();
  }
  // The first join of Q5, lineitem with a year of orders: the operator whose
  // children include the lineitem scan. Its estimate is within 2x of the
  // rows it produced over all nodes.
  auto profile = ProfiledRun(db_, *TpchQuery(5));
  ASSERT_NE(profile, nullptr);
  const ProfOperatorStat* first = nullptr;
  for (const ProfOperatorStat& scan : profile->operators) {
    if (scan.name != "scan(lineitem)") continue;
    for (const ProfOperatorStat& op : profile->operators) {
      if (op.segment == scan.segment && op.op_id == scan.parent_op) first = &op;
    }
  }
  ASSERT_NE(first, nullptr) << profile->ToText();
  ASSERT_EQ(first->name, "hash-join") << profile->ToText();
  ASSERT_GE(first->est_rows, 0) << profile->ToText();
  EXPECT_LE(QError(first->est_rows, profile->ActualRows(*first)), 2.0)
      << profile->ToText();
}

// --- Aggregation traffic -----------------------------------------------------

/// Remote bytes of grouped aggregation `sql` on `db` against what a
/// two-phase plan may ship: every node's partial rows (one per group it saw)
/// into the hash exchange, then the final rows to the master. Block payloads
/// are counted as rows x row size, so these two terms are the whole
/// allowance.
void ExpectPartialRowTraffic(Database* db, std::string_view sql) {
  auto plan = db->Plan(sql);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  int64_t shuffled_row = 0;
  for (const auto& f : plan->fragments) {
    if (f->partitioning == Partitioning::kHash) {
      shuffled_row = std::max<int64_t>(shuffled_row,
                                       f->root->output_schema.row_size());
    }
  }
  ASSERT_GT(shuffled_row, 0) << plan->ToString();
  auto r = db->Query(sql);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const int64_t groups = r->num_rows();
  ASSERT_GT(groups, 0);
  const int64_t nodes = db->options().cluster.num_nodes;
  const int64_t allowance =
      nodes * groups * shuffled_row + groups * r->schema().row_size();
  const int64_t remote = db->executor()->report().remote_bytes;
  EXPECT_GT(remote, 0) << sql;
  EXPECT_LE(remote, allowance) << sql;
}

TEST(AggregationTrafficTest, OnlyPartialRowsCrossTheNetwork) {
  DatabaseOptions options;
  options.cluster.num_nodes = 2;
  options.cluster.cores_per_node = 2;
  Database db(options);
  TpchConfig tpch;
  tpch.scale_factor = 0.002;
  ASSERT_TRUE(db.LoadTpch(tpch).ok());
  SseConfig sse;
  sse.securities_rows = 4000;
  sse.trades_rows = 6000;
  sse.num_accounts = 300;
  ASSERT_TRUE(db.LoadSse(sse).ok());
  ExpectPartialRowTraffic(&db, *TpchQuery(1));
  ExpectPartialRowTraffic(&db, *SseQuery(7));
}

TEST(EmptyScalarAggregateTest, ReturnsOneRowOfZeros) {
  // An aggregate without GROUP BY returns one row even over no rows. The
  // engine has no NULL, so every aggregate of it is 0. A node whose partial
  // aggregation saw no rows adds nothing: MIN and MAX over rows that all
  // live on one node keep their value.
  for (const int nodes : {1, 2}) {
    DatabaseOptions options;
    options.cluster.num_nodes = nodes;
    options.cluster.cores_per_node = 2;
    Database db(options);
    ASSERT_TRUE(db.LoadTpch({.scale_factor = 0.001}).ok());
    for (auto [mode, parallelism] :
         {std::pair{ExecMode::kElastic, 1}, std::pair{ExecMode::kStatic, 2},
          std::pair{ExecMode::kMaterialized, 2}}) {
      SCOPED_TRACE(StrFormat("%d nodes, %s p=%d", nodes, ExecModeName(mode),
                             parallelism));
      ExecOptions exec;
      exec.mode = mode;
      exec.parallelism = parallelism;
      auto count =
          db.Query("SELECT count(*) FROM nation WHERE n_nationkey = 99", exec);
      ASSERT_TRUE(count.ok()) << count.status().ToString();
      EXPECT_EQ(Rendered(*count), "0 \n");
      auto all = db.Query(
          "SELECT count(*), sum(n_regionkey), min(n_regionkey), "
          "max(n_nationkey), avg(n_regionkey), sum(n_nationkey) / count(*) "
          "FROM nation WHERE n_nationkey = 99",
          exec);
      ASSERT_TRUE(all.ok()) << all.status().ToString();
      EXPECT_EQ(Rendered(*all), "0 0 0 0 0.0000 0.0000 \n");
      auto one = db.Query(
          "SELECT count(*), min(n_nationkey), max(n_nationkey) FROM nation "
          "WHERE n_nationkey = 24",
          exec);
      ASSERT_TRUE(one.ok()) << one.status().ToString();
      EXPECT_EQ(Rendered(*one), "1 24 24 \n");
    }
  }
}

// --- A build that outgrows its estimate ------------------------------------------

/// The planner's estimate of `table`'s filtered rows: the est_rows of its
/// scan in `op`'s subtree, -1 when there is none.
int64_t ScanEstimate(const POp& op, const std::string& table) {
  if (op.kind == POp::Kind::kScan && op.table_name == table) {
    return op.est_rows;
  }
  for (const auto& child : op.children) {
    const int64_t est = ScanEstimate(*child, table);
    if (est >= 0) return est;
  }
  return -1;
}

TEST(SortedTradesTest, SseQ9MatchesUnsortedData) {
  // With trades sorted by date (the Fig. 11 set-up), the selectivity sample
  // must still see SSE-Q9's trading day: it draws from every block, so the
  // plan is the one unsorted data gets, the trades estimate stays within 2x
  // of the rows the filter keeps, and the result does not change.
  struct Run {
    std::string explain;
    int64_t estimate = -1;
    int64_t filtered = -1;
    std::vector<std::vector<Value>> rows;
  };
  auto run = [&](bool sorted) {
    Run out;
    DatabaseOptions options;
    options.cluster.num_nodes = 2;
    options.cluster.cores_per_node = 2;
    Database db(options);
    SseConfig sse;
    sse.securities_rows = 20000;
    sse.trades_rows = 60000;
    sse.num_accounts = 300;
    sse.sort_trades_by_date = sorted;
    sse.seed = 1;
    EXPECT_TRUE(db.LoadSse(sse).ok());
    auto explain = db.Explain(*SseQuery(9));
    EXPECT_TRUE(explain.ok());
    if (explain.ok()) out.explain = *explain;
    auto plan = db.Plan(*SseQuery(9));
    EXPECT_TRUE(plan.ok());
    if (plan.ok()) {
      for (const auto& f : plan->fragments) {
        out.estimate = std::max(out.estimate, ScanEstimate(*f->root, "trades"));
      }
    }
    auto count = db.Query(
        "SELECT count(*) FROM trades WHERE trade_date = '2010-10-30'");
    EXPECT_TRUE(count.ok());
    if (count.ok()) out.filtered = count->Rows()[0][0].AsInt64();
    ExecOptions opts;
    opts.mode = ExecMode::kStatic;
    opts.parallelism = 2;
    auto r = db.Query(*SseQuery(9), opts);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (r.ok()) out.rows = r->Rows(/*sorted=*/true);
    return out;
  };
  const Run unsorted = run(false);
  const Run sorted = run(true);
  EXPECT_EQ(sorted.explain, unsorted.explain);
  for (const Run* r : {&unsorted, &sorted}) {
    ASSERT_GT(r->filtered, 0);
    EXPECT_GE(r->estimate, r->filtered / 2);
    EXPECT_LE(r->estimate, r->filtered * 2);
  }
  ASSERT_FALSE(unsorted.rows.empty());
  ASSERT_EQ(sorted.rows.size(), unsorted.rows.size());
  for (size_t i = 0; i < sorted.rows.size(); ++i) {
    ASSERT_EQ(sorted.rows[i].size(), unsorted.rows[i].size());
    for (size_t c = 0; c < sorted.rows[i].size(); ++c) {
      EXPECT_EQ(sorted.rows[i][c].ToString(), unsorted.rows[i][c].ToString())
          << "row " << i << " col " << c;
    }
  }
}

// --- Cross-mode / cross-parallelism consistency over the full workload ---------

struct ModeParam {
  ExecMode mode;
  int parallelism;
};

class WorkloadConsistencyTest
    : public SqlExecTest,
      public ::testing::WithParamInterface<const char*> {};

TEST_P(WorkloadConsistencyTest, AllModesAgree) {
  std::string_view sql;
  std::string name = GetParam();
  if (name[0] == 'S' && name[1] == 'Q') {
    sql = *SyntheticQuery(name[2] - '0');
  } else if (name[0] == 'E') {
    sql = *SseQuery(name[1] - '0');
  } else {
    sql = *TpchQuery(std::atoi(name.c_str() + 1));
  }
  ResultSet baseline = Run(sql, ExecMode::kStatic, 1);
  auto expect = baseline.Rows(/*sorted=*/true);
  // Ledger balance: a finished query has handed back every byte its arenas,
  // buffers and exchange channels charged.
  EXPECT_EQ(QueryBudget::TotalChargedBytes(), 0);
  for (ModeParam mp : {ModeParam{ExecMode::kStatic, 4},
                       ModeParam{ExecMode::kMaterialized, 2},
                       ModeParam{ExecMode::kElastic, 1}}) {
    ResultSet r = Run(sql, mp.mode, mp.parallelism);
    EXPECT_EQ(QueryBudget::TotalChargedBytes(), 0)
        << ExecModeName(mp.mode) << " p=" << mp.parallelism;
    auto rows = r.Rows(/*sorted=*/true);
    ASSERT_EQ(rows.size(), expect.size())
        << ExecModeName(mp.mode) << " p=" << mp.parallelism;
    for (size_t i = 0; i < rows.size(); ++i) {
      ASSERT_EQ(rows[i].size(), expect[i].size());
      for (size_t c = 0; c < rows[i].size(); ++c) {
        if (rows[i][c].type() == DataType::kFloat64) {
          double a = rows[i][c].AsFloat64();
          double b = expect[i][c].AsFloat64();
          ASSERT_NEAR(a, b, 1e-6 * std::max(1.0, std::fabs(b)))
              << "row " << i << " col " << c;
        } else {
          ASSERT_EQ(rows[i][c].ToString(), expect[i][c].ToString())
              << "row " << i << " col " << c;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Workload, WorkloadConsistencyTest,
    ::testing::Values("SQ1", "SQ2", "SQ3", "SQ4", "SQ5",  // synthetic
                      "E6", "E7", "E8", "E9",             // SSE
                      "Q1", "Q2", "Q3", "Q5", "Q6", "Q7", "Q8", "Q9", "Q10",
                      "Q12", "Q14"));

// --- Scheduler lifecycle ------------------------------------------------------
// Each node's control loop lives as long as its cluster and parks while the
// node has no segment registered, so a query neither starts nor stops it.

DatabaseOptions LifecycleOptions(int64_t period_ms) {
  DatabaseOptions options;
  options.cluster.num_nodes = 2;
  options.cluster.cores_per_node = 2;
  options.cluster.scheduler_period_ms = period_ms;
  return options;
}

int64_t TotalTicks(Cluster* cluster) {
  int64_t ticks = 0;
  for (int n = 0; n < cluster->num_nodes(); ++n) {
    ticks += cluster->scheduler(n)->tick_count();
  }
  return ticks;
}

TEST(SchedulerLifecycleTest, QueryNeverWaitsOutTheSchedulerPeriod) {
  Database db(LifecycleOptions(10'000));
  ASSERT_TRUE(db.LoadTpch({.scale_factor = 0.002}).ok());
  const auto start = std::chrono::steady_clock::now();
  auto result = db.Query(*TpchQuery(6));  // EP: registers with the schedulers
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_LT(elapsed, std::chrono::seconds(2));
}

TEST(SchedulerLifecycleTest, IdleClusterNeverTicks) {
  Database db(LifecycleOptions(5));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));  // 10 periods
  EXPECT_EQ(TotalTicks(db.cluster()), 0);
}

TEST(SchedulerLifecycleTest, TicksStopWhenTheQuerySegmentsLeave) {
  Database db(LifecycleOptions(5));
  ASSERT_TRUE(db.LoadTpch({.scale_factor = 0.002}).ok());
  ASSERT_TRUE(db.Query(*TpchQuery(1)).ok());
  // The executor unregistered its segments before returning, and removal
  // waits out a tick in progress: no tick may follow.
  const int64_t after_query = TotalTicks(db.cluster());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(TotalTicks(db.cluster()), after_query);
}

TEST(SchedulerLifecycleTest, StoppedLoopsStayHaltedWhileSegmentsRun) {
  Database db(LifecycleOptions(1));
  ASSERT_TRUE(db.LoadTpch({.scale_factor = 0.002}).ok());
  db.cluster()->StopSchedulers();
  // The query still runs, at its initial parallelism, with no tick.
  ASSERT_TRUE(db.Query(*TpchQuery(1)).ok());
  EXPECT_EQ(TotalTicks(db.cluster()), 0);
}

// --- Thread reuse -------------------------------------------------------------
// Segment drivers and elastic workers run on parked threads, so once the park
// has grown to the peak concurrency of the mix, later passes start no
// threads. The count is sampled while the queries run: a query that started
// fresh threads would show them in /proc/self/status before joining them.

int ProcessThreads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::atoi(line.c_str() + 8);
  }
  return -1;
}

TEST(ThreadParkTest, RepeatedPassesOfTheMixStartNoNewThreads) {
  DatabaseOptions options = LifecycleOptions(50);
  Database db(options);
  ASSERT_TRUE(db.LoadTpch({.scale_factor = 0.002}).ok());
  auto run_mix = [&db] {
    for (int q : SupportedTpchQueries()) {
      auto result = db.Query(*TpchQuery(q));
      EXPECT_TRUE(result.ok()) << "Q" << q << ": "
                               << result.status().ToString();
    }
  };
  // Warm-up: repeat the mix until two passes in a row leave the thread count
  // where they found it, i.e. the park holds the mix's peak overlap. How
  // many tasks overlap varies with thread scheduling, so one pass is not
  // always enough.
  int settled = ProcessThreads();
  for (int pass = 0, quiet = 0; pass < 10 && quiet < 2; ++pass) {
    run_mix();
    const int now = ProcessThreads();
    quiet = now == settled ? quiet + 1 : 0;
    settled = now;
  }

  std::atomic<bool> done{false};
  std::atomic<int> peak{0};
  std::thread sampler([&] {
    while (!done.load(std::memory_order_acquire)) {
      const int now = ProcessThreads();
      if (now > peak.load(std::memory_order_relaxed)) {
        peak.store(now, std::memory_order_relaxed);
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  const int before = ProcessThreads();  // the sampler included
  for (int pass = 0; pass < 5; ++pass) run_mix();
  const int after = ProcessThreads();
  done.store(true, std::memory_order_release);
  sampler.join();
  EXPECT_GT(before, 0);
  // Parked threads never exit: no thread seen during the passes is gone.
  EXPECT_LE(peak.load(), after) << "threads started and exited mid-pass";
  const int cores =
      options.cluster.num_nodes * options.cluster.cores_per_node;
  EXPECT_LE(peak.load() - before, cores)
      << "before " << before << ", peak " << peak.load();
}

}  // namespace
}  // namespace claims
