// Self-tests of the benchmark's own arithmetic: percentile ranks and their
// tail guard, the geomean of per-type medians, digest invariance and span
// self time.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "src/digest.h"
#include "src/spans.h"
#include "src/stats.h"

namespace perfbench {
namespace {

using claims::Value;

std::vector<double> OneTo(int n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(PercentileTest, NearestRank) {
  std::vector<double> v = OneTo(200);
  std::reverse(v.begin(), v.end());
  EXPECT_EQ(Percentile(v, 95), 190);  // rank ceil(0.95 * 200) = 190
  EXPECT_EQ(Percentile(OneTo(10), 50), 5);
  EXPECT_EQ(Percentile(OneTo(10), 51), 6);
  EXPECT_EQ(Percentile(OneTo(10), 100), 10);
  EXPECT_EQ(Percentile(OneTo(1), 95), 1);
  EXPECT_EQ(Percentile({}, 95), 0);
}

TEST(PercentileTest, GuardNeedsTenBeyond) {
  EXPECT_EQ(SamplesBeyond(200, 95), 10);
  EXPECT_EQ(SamplesBeyond(199, 95), 9);  // rank 190 of 199
  EXPECT_FALSE(GuardedPercentile(OneTo(199), 95).has_value());
  ASSERT_TRUE(GuardedPercentile(OneTo(200), 95).has_value());
  EXPECT_EQ(*GuardedPercentile(OneTo(200), 95), 190);
  EXPECT_FALSE(GuardedPercentile({}, 95).has_value());
  for (int n = 1; n <= 5000; ++n) {  // no float residue in the rank
    EXPECT_EQ(SamplesBeyond(n, 95), n - (95 * n + 99) / 100) << n;
  }
}

TEST(StatsTest, MedianOddAndEven) {
  EXPECT_EQ(Median({3, 1, 2}), 2);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(Median({}), 0);
}

TEST(StatsTest, GeomeanOfPerTypeMedians) {
  // Medians 2 and 8: geomean 4, however many samples each type has.
  std::map<std::string, std::vector<double>> by_type = {
      {"a", {1, 2, 3}}, {"b", {8, 8, 8, 8, 8, 100, 0.5}}, {"empty", {}}};
  EXPECT_DOUBLE_EQ(GeomeanOfMedians(by_type), 4);
  EXPECT_EQ(GeomeanOfMedians({}), 0);
  // A failed query counts as infinitely slow and can dominate a median.
  by_type["a"] = {INFINITY, INFINITY, 1};
  EXPECT_TRUE(std::isinf(GeomeanOfMedians(by_type)));
}

TEST(StatsTest, GeomeanIgnoresTypeMixShare) {
  // The pooled median of an even mix sits between the clusters; the geomean
  // of per-type medians does not move when one type gets an extra sample.
  std::map<std::string, std::vector<double>> by_type = {
      {"fast", {10, 10, 10}}, {"slow", {1000, 1000, 1000}}};
  const double before = GeomeanOfMedians(by_type);
  by_type["slow"].push_back(1000);
  EXPECT_DOUBLE_EQ(GeomeanOfMedians(by_type), before);
  EXPECT_DOUBLE_EQ(before, 100);
}

std::vector<std::vector<Value>> Rows() {
  return {{Value::String("A"), Value::Int64(7), Value::Float64(0.1 + 0.2)},
          {Value::String("B"), Value::Int32(-3), Value::Float64(1e10 / 3)},
          {Value::String("B"), Value::Int32(-3), Value::Float64(1e10 / 3)},
          {Value::String("C"), Value::Date(9000), Value::Float64(-0.0)}};
}

TEST(DigestTest, IgnoresRowOrder) {
  auto rows = Rows();
  const std::string digest = DigestRows(rows);
  std::reverse(rows.begin(), rows.end());
  EXPECT_EQ(DigestRows(rows), digest);
  std::swap(rows[0], rows[2]);
  EXPECT_EQ(DigestRows(rows), digest);
  EXPECT_EQ(digest.size(), 16u);
}

TEST(DigestTest, IgnoresFloatSummationOrder) {
  // The same sum folded in two orders differs in the last bits only.
  std::vector<double> terms;
  for (int i = 0; i < 100000; ++i) terms.push_back(1.0 / (i + 3));
  const double forward = std::accumulate(terms.begin(), terms.end(), 0.0);
  const double backward = std::accumulate(terms.rbegin(), terms.rend(), 0.0);
  ASSERT_NE(forward, backward);
  EXPECT_EQ(DigestRows({{Value::Float64(forward)}}),
            DigestRows({{Value::Float64(backward)}}));
  EXPECT_EQ(CanonicalCell(Value::Float64(-0.0)),
            CanonicalCell(Value::Float64(0.0)));
}

TEST(DigestTest, DecimalMidpointsDoNotSplit) {
  // 696732.95 sits on a 7-digit decimal rounding midpoint; a sum that lands
  // one ulp either side of it must still digest the same.
  for (int64_t cents = 1; cents < 200'000'000; cents += 9973) {
    const double v = static_cast<double>(cents) / 100 + 696000;
    const std::string cell = CanonicalCell(Value::Float64(v));
    EXPECT_EQ(CanonicalCell(Value::Float64(std::nextafter(v, 1e300))), cell)
        << v;
    EXPECT_EQ(CanonicalCell(Value::Float64(std::nextafter(v, -1e300))), cell)
        << v;
  }
  EXPECT_EQ(CanonicalCell(Value::Float64(69673295.0 / 100)),
            CanonicalCell(Value::Float64(696732.95)));
}

TEST(DigestTest, DyadicDecimalsDoNotSplit) {
  // Sums of prices can end in .5, .25, .875, ...: the midpoints of a plain
  // binary grid. A sum one ulp off such a value must digest the same.
  for (double v : {2650766.875, 10603067.5, 1048577.0, 10603080.0, 0.5, 1.0,
                   1048576.0, 12.0625, -2650766.875, 3e9 + 0.25}) {
    const std::string cell = CanonicalCell(Value::Float64(v));
    EXPECT_EQ(CanonicalCell(Value::Float64(std::nextafter(v, 1e300))), cell)
        << v;
    EXPECT_EQ(CanonicalCell(Value::Float64(std::nextafter(v, -1e300))), cell)
        << v;
  }
}

TEST(DigestTest, SeesRealDifferences) {
  const std::string digest = DigestRows(Rows());
  auto dropped = Rows();
  dropped.pop_back();
  EXPECT_NE(DigestRows(dropped), digest);
  auto deduped = Rows();
  deduped.erase(deduped.begin() + 2);  // one of the duplicate rows
  EXPECT_NE(DigestRows(deduped), digest);
  auto changed = Rows();
  changed[0][2] = Value::Float64(0.3001);
  EXPECT_NE(DigestRows(changed), digest);
  auto swapped = Rows();
  std::swap(swapped[0][0], swapped[3][0]);  // same cells, different rows
  EXPECT_NE(DigestRows(swapped), digest);
}

Span MakeSpan(uint64_t id, uint64_t parent, const std::string& name,
              int64_t start, int64_t end) {
  Span s;
  s.id = id;
  s.parent = parent;
  s.name = name;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

TEST(SpanTest, SelfTimeSubtractsCoveredUnion) {
  const Span root = MakeSpan(1, 0, "query", 0, 100);
  const Span a = MakeSpan(2, 1, "sql.plan", 10, 30);
  const Span b = MakeSpan(3, 1, "wlm.queue", 20, 50);   // overlaps a
  const Span c = MakeSpan(4, 1, "cluster.execute", 90, 130);  // spills out
  EXPECT_EQ(SelfTimeNs(root, {}), 100);
  EXPECT_EQ(SelfTimeNs(root, {&a, &b, &c}), 100 - 40 - 10);
  EXPECT_EQ(SelfTimeNs(root, {&c, &b, &a}), 50);
}

TEST(SpanTest, SelfTimeByLayer) {
  const std::vector<Span> spans = {
      MakeSpan(1, 0, "query", 0, 100), MakeSpan(2, 1, "sql.plan", 0, 10),
      MakeSpan(3, 1, "cluster.execute", 40, 100),
      MakeSpan(4, 0, "query", 200, 260), MakeSpan(5, 4, "sql.plan", 200, 205),
      MakeSpan(6, 0, "exec.agg", 300, 310)};
  const auto self = SelfTimeByLayer(spans);
  EXPECT_EQ(self.at("query"), 30 + 55);
  EXPECT_EQ(self.at("sql"), 15);
  EXPECT_EQ(self.at("cluster"), 60);
  EXPECT_EQ(self.at("exec"), 10);
  EXPECT_EQ(LayerOf("query"), "query");
  EXPECT_EQ(LayerOf("cluster.execute"), "cluster");
}

TEST(SpanTest, RecorderAssignsIdsAndJsonEscapes) {
  SpanRecorder recorder;
  Span s = MakeSpan(0, 0, "query", 1000, 3000);
  s.args = {{"type", "q\"1"}};
  EXPECT_EQ(recorder.Add(s), 1u);
  EXPECT_EQ(recorder.Add(s), 2u);
  const std::string json = ToChromeJson(recorder.spans());
  EXPECT_NE(json.find("\"ts\":1.000,\"dur\":2.000"), std::string::npos);
  EXPECT_NE(json.find("q\\\"1"), std::string::npos);
}

}  // namespace
}  // namespace perfbench
