#include "obs/prometheus.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "obs/metrics_registry.h"

namespace claims {
namespace {

// ---- A miniature scrape parser -------------------------------------------
// Implements just enough of the Prometheus text exposition format 0.0.4 to
// round-trip what PrometheusSnapshot emits: "# TYPE" lines plus
// "series{label=\"v\",...} value" samples. Unescapes label values, rejects
// anything malformed — a golden-file check that the exposition stays
// machine-readable, not merely human-plausible.

struct ParsedSample {
  std::string series;
  std::map<std::string, std::string> labels;
  double value = 0;
};

struct Scrape {
  std::map<std::string, std::string> types;  // series -> counter/gauge/...
  std::vector<ParsedSample> samples;
};

bool ParseLabels(const std::string& text,
                 std::map<std::string, std::string>* labels) {
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eq = text.find('=', pos);
    if (eq == std::string::npos || text[eq + 1] != '"') return false;
    std::string key = text.substr(pos, eq - pos);
    std::string value;
    size_t i = eq + 2;
    for (; i < text.size() && text[i] != '"'; ++i) {
      if (text[i] == '\\') {
        ++i;
        if (i >= text.size()) return false;
        switch (text[i]) {
          case 'n': value += '\n'; break;
          case '\\': value += '\\'; break;
          case '"': value += '"'; break;
          default: return false;
        }
      } else {
        value += text[i];
      }
    }
    if (i >= text.size()) return false;  // unterminated value
    (*labels)[key] = value;
    pos = i + 1;
    if (pos < text.size()) {
      if (text[pos] != ',') return false;
      ++pos;
    }
  }
  return true;
}

bool ParseScrape(const std::string& exposition, Scrape* out) {
  for (const std::string& line : Split(exposition, '\n')) {
    if (line.empty()) continue;
    if (line[0] == '#') {
      std::vector<std::string> parts = Split(line, ' ');
      if (parts.size() != 4 || parts[1] != "TYPE") return false;
      out->types[parts[2]] = parts[3];
      continue;
    }
    ParsedSample sample;
    size_t brace = line.find('{');
    size_t space;
    if (brace != std::string::npos) {
      size_t close = line.find('}', brace);
      if (close == std::string::npos) return false;
      sample.series = line.substr(0, brace);
      if (!ParseLabels(line.substr(brace + 1, close - brace - 1),
                       &sample.labels)) {
        return false;
      }
      space = close + 1;
    } else {
      space = line.find(' ');
      sample.series = line.substr(0, space);
    }
    if (space == std::string::npos || line[space] != ' ') return false;
    std::string value = line.substr(space + 1);
    if (value == "+Inf") return false;  // values are finite; le may be +Inf
    sample.value = std::stod(value);
    out->samples.push_back(std::move(sample));
  }
  return true;
}

const ParsedSample* FindSample(const Scrape& scrape, const std::string& series,
                               const std::map<std::string, std::string>& labels =
                                   {}) {
  for (const ParsedSample& s : scrape.samples) {
    if (s.series != series) continue;
    bool match = true;
    for (const auto& [k, v] : labels) {
      auto it = s.labels.find(k);
      if (it == s.labels.end() || it->second != v) {
        match = false;
        break;
      }
    }
    if (match) return &s;
  }
  return nullptr;
}

// ---- Name / label handling ------------------------------------------------

TEST(PrometheusNameTest, DotsBecomeUnderscores) {
  EXPECT_EQ(PrometheusSanitizeName("scheduler.pair_moves"),
            "scheduler_pair_moves");
  EXPECT_EQ(PrometheusSanitizeName("net.bytes_sent"), "net_bytes_sent");
}

TEST(PrometheusNameTest, InvalidCharactersAndLeadingDigit) {
  EXPECT_EQ(PrometheusSanitizeName("a-b c/d"), "a_b_c_d");
  EXPECT_EQ(PrometheusSanitizeName("9lives"), "_9lives");
  EXPECT_EQ(PrometheusSanitizeName(""), "_");
}

TEST(PrometheusLabelTest, EscapesQuotesBackslashesNewlines) {
  EXPECT_EQ(PrometheusEscapeLabel("S1@n0"), "S1@n0");
  EXPECT_EQ(PrometheusEscapeLabel("a\"b"), "a\\\"b");
  EXPECT_EQ(PrometheusEscapeLabel("a\\b"), "a\\\\b");
  EXPECT_EQ(PrometheusEscapeLabel("a\nb"), "a\\nb");
}

// ---- Exposition semantics --------------------------------------------------

TEST(PrometheusSnapshotTest, CounterAndGaugeWithInstanceLabels) {
  MetricsRegistry reg;
  reg.counter("scheduler.ticks")->Add(42);
  reg.gauge("buffer.peak:S1@n0")->Set(63);

  Scrape scrape;
  ASSERT_TRUE(ParseScrape(PrometheusSnapshot(reg), &scrape));
  EXPECT_EQ(scrape.types["scheduler_ticks"], "counter");
  EXPECT_EQ(scrape.types["buffer_peak"], "gauge");

  const ParsedSample* ticks = FindSample(scrape, "scheduler_ticks");
  ASSERT_NE(ticks, nullptr);
  EXPECT_EQ(ticks->value, 42);
  EXPECT_TRUE(ticks->labels.empty());

  const ParsedSample* peak =
      FindSample(scrape, "buffer_peak", {{"instance", "S1@n0"}});
  ASSERT_NE(peak, nullptr);
  EXPECT_EQ(peak->value, 63);
}

TEST(PrometheusSnapshotTest, HistogramBucketsAreCumulativeWithInf) {
  MetricsRegistry reg;
  MetricHistogram* h = reg.histogram("lat.ns");
  h->Record(1);   // bucket 1 (le 1)
  h->Record(3);   // bucket 2 (le 3)
  h->Record(3);
  h->Record(100);  // bucket 7 (le 127)

  Scrape scrape;
  ASSERT_TRUE(ParseScrape(PrometheusSnapshot(reg), &scrape));
  EXPECT_EQ(scrape.types["lat_ns"], "histogram");

  // Cumulative: le=1 -> 1, le=3 -> 3, le=127 -> 4, +Inf -> 4 == _count.
  const ParsedSample* le1 = FindSample(scrape, "lat_ns_bucket", {{"le", "1"}});
  const ParsedSample* le3 = FindSample(scrape, "lat_ns_bucket", {{"le", "3"}});
  const ParsedSample* le127 =
      FindSample(scrape, "lat_ns_bucket", {{"le", "127"}});
  const ParsedSample* inf =
      FindSample(scrape, "lat_ns_bucket", {{"le", "+Inf"}});
  const ParsedSample* count = FindSample(scrape, "lat_ns_count");
  const ParsedSample* sum = FindSample(scrape, "lat_ns_sum");
  ASSERT_NE(le1, nullptr);
  ASSERT_NE(le3, nullptr);
  ASSERT_NE(le127, nullptr);
  ASSERT_NE(inf, nullptr);
  ASSERT_NE(count, nullptr);
  ASSERT_NE(sum, nullptr);
  EXPECT_EQ(le1->value, 1);
  EXPECT_EQ(le3->value, 3);
  EXPECT_EQ(le127->value, 4);
  EXPECT_EQ(inf->value, 4);
  EXPECT_EQ(count->value, 4);
  EXPECT_EQ(sum->value, 1 + 3 + 3 + 100);

  // Monotone non-decreasing across every bucket line of the series, in
  // emission order — the property scrapers actually verify.
  double prev = 0;
  for (const ParsedSample& s : scrape.samples) {
    if (s.series != "lat_ns_bucket") continue;
    EXPECT_GE(s.value, prev);
    prev = s.value;
  }
}

TEST(PrometheusSnapshotTest, EmptyHistogramStillWellFormed) {
  MetricsRegistry reg;
  reg.histogram("empty.h");
  Scrape scrape;
  ASSERT_TRUE(ParseScrape(PrometheusSnapshot(reg), &scrape));
  const ParsedSample* inf =
      FindSample(scrape, "empty_h_bucket", {{"le", "+Inf"}});
  const ParsedSample* count = FindSample(scrape, "empty_h_count");
  ASSERT_NE(inf, nullptr);
  ASSERT_NE(count, nullptr);
  EXPECT_EQ(inf->value, 0);
  EXPECT_EQ(count->value, 0);
}

TEST(PrometheusSnapshotTest, OneTypeLinePerSeriesAcrossInstances) {
  MetricsRegistry reg;
  reg.gauge("buffer.peak:S1@n0")->Set(1);
  reg.gauge("buffer.peak:S2@n1")->Set(2);
  std::string text = PrometheusSnapshot(reg);
  size_t first = text.find("# TYPE buffer_peak gauge");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(text.find("# TYPE buffer_peak gauge", first + 1),
            std::string::npos);
}

// Golden-file round trip: the full exposition of a representative registry
// parses, and every metric value survives.
TEST(PrometheusSnapshotTest, GoldenRoundTrip) {
  MetricsRegistry reg;
  reg.counter("wlm.submitted")->Add(128);
  reg.counter("trace.dropped_events");
  reg.gauge("scheduler.node0.cores_in_use")->Set(17);
  reg.gauge("odd.gauge:with\"quote")->Set(2.5);
  MetricHistogram* h = reg.histogram("wlm.latency_ns:node0");
  for (int i = 0; i < 1000; ++i) h->Record(i * 1000);

  std::string text = PrometheusSnapshot(reg);
  Scrape scrape;
  ASSERT_TRUE(ParseScrape(text, &scrape)) << text;

  EXPECT_EQ(FindSample(scrape, "wlm_submitted")->value, 128);
  EXPECT_EQ(FindSample(scrape, "trace_dropped_events")->value, 0);
  EXPECT_EQ(FindSample(scrape, "scheduler_node0_cores_in_use")->value, 17);
  const ParsedSample* odd =
      FindSample(scrape, "odd_gauge", {{"instance", "with\"quote"}});
  ASSERT_NE(odd, nullptr);
  EXPECT_EQ(odd->value, 2.5);
  const ParsedSample* count =
      FindSample(scrape, "wlm_latency_ns_count", {{"instance", "node0"}});
  ASSERT_NE(count, nullptr);
  EXPECT_EQ(count->value, 1000);
}

// ---- Satellite fix: MetricHistogram::max on empty --------------------------

TEST(MetricHistogramTest, EmptyMaxIsZeroNotSentinel) {
  MetricHistogram h;
  EXPECT_EQ(h.max(), 0);
  EXPECT_EQ(h.min(), 0);
  h.Record(5);
  EXPECT_EQ(h.max(), 5);
}

TEST(MetricsRegistryTest, TextSnapshotIncludesP99) {
  MetricsRegistry reg;
  MetricHistogram* h = reg.histogram("x");
  for (int i = 0; i < 100; ++i) h->Record(10);
  std::string text = reg.TextSnapshot();
  EXPECT_NE(text.find("p99="), std::string::npos) << text;
}

TEST(MetricsRegistryTest, TextSnapshotEmptyHistogramMaxZero) {
  MetricsRegistry reg;
  reg.histogram("never.recorded");
  std::string text = reg.TextSnapshot();
  EXPECT_NE(text.find("max=0"), std::string::npos) << text;
  EXPECT_EQ(text.find("-9223372036854775808"), std::string::npos) << text;
}

// Figures kept elsewhere are copied in by a refresh hook just before each
// read, so both read paths see the value current at the read.
TEST(MetricsRegistryTest, RefreshHooksFillMetricsOnEveryRead) {
  MetricsRegistry reg;
  int64_t source = 7;
  int runs = 0;
  reg.AddRefreshHook([&] {
    ++runs;
    reg.gauge("filled.on_read")->Set(static_cast<double>(source));
  });
  EXPECT_EQ(runs, 0);  // registering does not run it
  EXPECT_NE(reg.TextSnapshot().find("filled.on_read 7"), std::string::npos);
  source = 9;
  EXPECT_NE(PrometheusSnapshot(reg).find("filled_on_read 9"),
            std::string::npos);
  EXPECT_EQ(runs, 2);
}

}  // namespace
}  // namespace claims
