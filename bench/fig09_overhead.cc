// Reproduces paper Figure 9: the latency of expansion and shrinkage — on the
// REAL multithreaded engine (this is the one paper experiment that needs no
// multicore speedup, only latency, so it runs natively; DESIGN.md §3).
//
//  (a) expansion delay vs the number of iterators in the segment;
//  (b) shrinkage delay vs segment composition (deeper/heavier active stages
//      take longer to finish the in-flight block).

// Each delay is the median over repeated expand/shrink trials, with the
// quartiles beside it.
//
// Also reports the cost of the live introspection plane itself: the same
// pipeline timed with monitoring off, with the event recorder armed but
// unscraped (records stored in the flight-recorder ring, never served — the
// acceptance bar is < 3%), with the 1 s time-series sampler, with the
// monitor endpoint up over the armed recorder, and with a scraper hammering
// /metrics and flight-recorder dumps mid-query. The configs run in
// kRounds interleaved rounds, rotating the order each round; each config's
// overhead is paired with the same round's monitoring-off time, and the
// median and quartiles of those paired overheads are reported, so one noisy
// stretch of the machine cannot decide the result. The paper's elasticity
// machinery only pays off if watching it is ~free.
//
// --json prints the introspection-overhead section alone as one JSON object
// (and skips the slow Fig. 9(a)/(b) sweeps) — the CI build artifact.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>

#include "bench/bench_util.h"
#include "common/random.h"
#include "core/elastic_iterator.h"
#include "exec/ops/filter.h"
#include "exec/ops/hash_agg.h"
#include "exec/ops/hash_join.h"
#include "exec/ops/profiling_iterator.h"
#include "exec/ops/scan.h"
#include "net/socket_util.h"
#include "obs/monitor_server.h"
#include "obs/recorder.h"
#include "obs/timeseries/timeseries.h"
#include "storage/table.h"

namespace claims {
namespace {

// Driving table: an int key plus a comment column so LIKE filters are
// realistically expensive.
std::unique_ptr<Table> MakeBig(int64_t rows) {
  Schema schema({ColumnDef::Int32("k"), ColumnDef::Char("c", 44)});
  auto t = std::make_unique<Table>("big", schema, 1, std::vector<int>{});
  const char* words[] = {"furiously", "special", "requests", "sleep",
                         "carefully", "ironic", "deposits"};
  Rng rng(7);
  for (int64_t i = 0; i < rows; ++i) {
    std::string c = StrFormat("%s %s %s", words[rng.Uniform(7)],
                              words[rng.Uniform(7)], words[rng.Uniform(7)]);
    t->AppendValues({Value::Int32(static_cast<int32_t>(i % 1000)),
                     Value::String(c)});
  }
  return t;
}

std::unique_ptr<Table> MakeSmall(int rows) {
  Schema schema({ColumnDef::Int32("k"), ColumnDef::Int64("v")});
  auto t = std::make_unique<Table>("small", schema, 1, std::vector<int>{});
  for (int i = 0; i < rows; ++i) {
    t->AppendValues({Value::Int32(i % 1000), Value::Int64(i)});
  }
  return t;
}

ExprPtr Col(const Schema& s, int i) {
  return MakeColumnRef(i, s.column(i).type, s.column(i).name);
}

/// Builds scan → (num_filters × LIKE-filter) over `big`. A non-null `owner`
/// wraps every operator in a ProfilingIterator exactly the way the executor
/// does while the recorder is on, so the armed configs below pay the real
/// per-operator hook cost.
std::unique_ptr<Iterator> FilterChain(const Table& big, int num_filters,
                                      const RecordOwner* owner = nullptr) {
  const Schema* s = &big.schema();
  // Ids by depth from the chain root (the outermost filter), so parent links
  // point consumer-ward as the assembler expects; built deepest-first.
  int depth = num_filters;
  auto wrap = [&](std::unique_ptr<Iterator> it, const char* name) {
    if (owner == nullptr) return it;
    ProfilingIterator::Identity id;
    id.owner = *owner;
    id.op_name = name;
    id.op_id = depth;
    id.parent_op = depth - 1;  // -1 at the root
    --depth;
    return std::unique_ptr<Iterator>(
        std::make_unique<ProfilingIterator>(std::move(it), std::move(id)));
  };
  std::unique_ptr<Iterator> it =
      wrap(std::make_unique<ScanIterator>(&big.partition(0), s), "scan(big)");
  for (int f = 0; f < num_filters; ++f) {
    it = wrap(std::make_unique<FilterIterator>(
                  std::move(it), s,
                  MakeLike(Col(*s, 1), "%furiously%sleep%", true)),
              "filter");
  }
  return it;
}

/// scan-filter [-join]*n [-agg] per the Fig. 9(b) compositions. `smalls`
/// holds one build table per join (kept alive by the caller).
std::unique_ptr<Iterator> Composition(
    const Table& big, int joins, bool agg,
    std::vector<std::unique_ptr<Table>>* smalls, const Schema** out_schema) {
  const Schema* s = &big.schema();
  std::unique_ptr<Iterator> it = FilterChain(big, 1);
  // Join output schemas must outlive the iterators; lease them statically.
  static std::vector<std::unique_ptr<Schema>> schemas;
  for (int j = 0; j < joins; ++j) {
    smalls->push_back(MakeSmall(2000));
    Table* small = smalls->back().get();
    HashJoinIterator::Spec spec;
    spec.build_schema = &small->schema();
    spec.probe_schema = s;
    spec.build_keys = {0};
    spec.probe_keys = {0};
    auto build =
        std::make_unique<ScanIterator>(&small->partition(0), &small->schema());
    auto join = std::make_unique<HashJoinIterator>(std::move(build),
                                                   std::move(it), spec);
    schemas.push_back(std::make_unique<Schema>(join->output_schema()));
    s = schemas.back().get();
    it = std::move(join);
  }
  if (agg) {
    HashAggIterator::Spec spec;
    spec.input_schema = s;
    spec.group_exprs = {Col(*s, 0)};
    spec.group_names = {"k"};
    spec.aggregates = {{AggFn::kCount, nullptr, "cnt"}};
    spec.mode = HashAggIterator::Mode::kIndependent;
    auto a = std::make_unique<HashAggIterator>(std::move(it), spec);
    schemas.push_back(std::make_unique<Schema>(a->output_schema()));
    s = schemas.back().get();
    it = std::move(a);
  }
  *out_schema = s;
  return it;
}

using bench::Spread;
using bench::SpreadOf;

std::string Show(const Spread& s) {
  return StrFormat("%.3f (%.3f-%.3f)", s.median, s.q1, s.q3);
}

struct Delays {
  Spread expand_ms;
  Spread shrink_ms;
  int iterators = 0;
};

/// Runs the pipeline under an elastic iterator and measures expansion and
/// shrinkage latency while it is actively processing.
Delays Measure(std::unique_ptr<Iterator> ops, int trials) {
  Delays d;
  d.iterators = ops->SubtreeSize();
  ElasticIterator::Options opts;
  opts.initial_parallelism = 3;
  ElasticIterator it(std::move(ops), opts);
  WorkerContext ctx;
  it.Open(&ctx);
  std::thread consumer([&] {
    BlockPtr b;
    while (it.Next(&ctx, &b) == NextResult::kSuccess) {
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  std::vector<double> expands;
  std::vector<double> shrinks;
  for (int t = 0; t < trials && !it.finished(); ++t) {
    int64_t e = it.ExpandMeasured(4 + t);
    if (e >= 0) expands.push_back(e / 1e6);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    int64_t s = it.ShrinkBlocking();
    if (s >= 0) shrinks.push_back(s / 1e6);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  it.Close();
  consumer.join();
  d.expand_ms = SpreadOf(std::move(expands));
  d.shrink_ms = SpreadOf(std::move(shrinks));
  return d;
}

/// Runs the pipeline to completion under an elastic iterator and returns
/// wall milliseconds. The work is identical across monitoring configs; only
/// the observers differ.
double RunToCompletion(std::unique_ptr<Iterator> ops, SegmentStats* stats) {
  ElasticIterator::Options opts;
  opts.initial_parallelism = 3;
  opts.stats = stats;
  ElasticIterator it(std::move(ops), opts);
  WorkerContext ctx;
  auto start = std::chrono::steady_clock::now();
  it.Open(&ctx);
  BlockPtr b;
  while (it.Next(&ctx, &b) == NextResult::kSuccess) {
  }
  it.Close();
  auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(end - start).count();
}

struct MonitoringConfig {
  const char* name;
  bool record;  // event recorder on (flight-recorder ring), never served
  bool serve;   // monitor endpoint up
  bool scrape;  // a client hammering /metrics + dumps during the run
  bool sample;  // time-series sampler walking the registry at 1 s cadence
};

/// One timed run of the pipeline under `cfg`'s observers.
double MeasureMonitored(const Table& big, const MonitoringConfig& cfg,
                        uint64_t query_id) {
  MonitorServer server{[&] {
    MonitorOptions mopts;
    mopts.enabled = cfg.serve;
    return mopts;
  }()};
  if (cfg.serve && !server.Start().ok()) return -1;
  if (cfg.record) EventRecorder::Global()->Enable();
  std::unique_ptr<MetricSampler> sampler;
  if (cfg.sample) {
    // Production cadence (1 s), published as the process default exactly as
    // the introspection plane does — the query hot path must not notice it.
    sampler = std::make_unique<MetricSampler>(TimeseriesOptions{});
    MetricSampler::SetDefault(sampler.get());
    sampler->Start();
  }
  std::atomic<bool> stop{false};
  std::thread scraper;
  if (cfg.scrape) {
    scraper = std::thread([&] {
      int i = 0;
      while (!stop.load()) {
        HttpRoundTrip("127.0.0.1", server.port(), "GET", "/metrics");
        if (++i % 4 == 0) {
          HttpRoundTrip("127.0.0.1", server.port(), "POST",
                        "/flight-recorder/dump");
        }
      }
    });
  }
  SegmentStats stats;
  stats.owner = RecordOwner{query_id, "bench", 0};
  const double ms = RunToCompletion(
      FilterChain(big, 1, cfg.record ? &stats.owner : nullptr), &stats);
  stop.store(true);
  if (scraper.joinable()) scraper.join();
  if (sampler) {
    MetricSampler::SetDefault(nullptr);
    sampler->Stop();
  }
  if (cfg.record) EventRecorder::Global()->Disable();
  if (cfg.serve) server.Stop();
  return ms;
}

struct ConfigResult {
  Spread pipeline_ms;
  Spread overhead_pct;  ///< paired with the same round's monitoring-off run
};

/// Runs every config once per round for `rounds` rounds, rotating the order
/// each round; configs[0] is the monitoring-off baseline.
std::vector<ConfigResult> InterleavedOverhead(
    const Table& big, const std::vector<MonitoringConfig>& configs,
    int rounds) {
  // The armed configs record into a 64 K flight-recorder ring sized once up
  // front, so every round pays the steady-state cost (overwriting a full
  // ring), not first-touch allocation.
  EventRecorder::Global()->ConfigureRing(1 << 16);
  SegmentStats warm;
  RunToCompletion(FilterChain(big, 1), &warm);  // cold caches, untimed
  const size_t n = configs.size();
  std::vector<std::vector<double>> ms(n);
  std::vector<std::vector<double>> pct(n);
  uint64_t query_id = 0;
  for (int r = 0; r < rounds; ++r) {
    std::vector<double> round(n);
    for (size_t k = 0; k < n; ++k) {
      const size_t c = (k + static_cast<size_t>(r)) % n;
      round[c] = MeasureMonitored(big, configs[c], ++query_id);
    }
    for (size_t c = 0; c < n; ++c) {
      ms[c].push_back(round[c]);
      pct[c].push_back(100.0 * (round[c] - round[0]) / round[0]);
    }
  }
  EventRecorder::Global()->ConfigureRing(0);
  std::vector<ConfigResult> out(n);
  for (size_t c = 0; c < n; ++c) {
    out[c].pipeline_ms = SpreadOf(ms[c]);
    out[c].overhead_pct = SpreadOf(pct[c]);
  }
  return out;
}

}  // namespace
}  // namespace claims

int main(int argc, char** argv) {
  using namespace claims;
  bool csv = bench::CsvMode(argc, argv);
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--json")) json = true;
  }
  const int kTrials = 12;
  const int kRounds = 15;
  auto big = MakeBig(json ? 500'000 : 2'000'000);

  const std::vector<MonitoringConfig> configs = {
      {"monitoring off", false, false, false, false},
      {"event recorder armed (unscraped)", true, false, false, false},
      {"timeseries sampler armed (1s)", false, false, false, true},
      {"endpoint + flight recorder armed", true, true, false, false},
      {"scraper hammering /metrics + dumps", true, true, true, false},
  };

  if (json) {
    // CI artifact mode: only the overhead comparison, as one JSON object.
    // The acceptance bar is the median of the armed-recorder and sampler
    // rows staying under 3%.
    std::vector<ConfigResult> results =
        InterleavedOverhead(*big, configs, kRounds);
    std::string out = StrFormat(
        "{\"bench\":\"fig09_overhead\",\"rounds\":%d,\"configs\":[", kRounds);
    for (size_t c = 0; c < configs.size(); ++c) {
      const ConfigResult& r = results[c];
      if (c > 0) out.push_back(',');
      out += StrFormat(
          "{\"name\":\"%s\",\"pipeline_ms\":%.2f,\"overhead_median_pct\":%.2f,"
          "\"overhead_q1_pct\":%.2f,\"overhead_q3_pct\":%.2f}",
          configs[c].name, r.pipeline_ms.median, r.overhead_pct.median,
          r.overhead_pct.q1, r.overhead_pct.q3);
    }
    out += "]}";
    std::printf("%s\n", out.c_str());
    return 0;
  }

  std::printf("Figure 9: expansion / shrinkage overhead (real engine)\n");
  std::printf("delays: median (q1-q3) over %d trials\n", kTrials);

  bench::Title("Fig 9(a) expansion delay vs #iterators in the segment");
  {
    bench::TablePrinter table(csv);
    table.Header({"iterators", "expansion delay (ms)"});
    for (int n = 1; n <= 5; ++n) {
      Delays d = Measure(FilterChain(*big, n - 1), kTrials);
      table.Row({StrFormat("%d", d.iterators), Show(d.expand_ms)});
    }
    table.Print();
  }

  bench::Title("Fig 9(b) shrinkage delay by segment composition");
  {
    struct Comp {
      const char* name;
      int joins;
      bool agg;
    };
    const Comp comps[] = {
        {"Scan-Filter", 0, false},
        {"Scan-Filter-Join", 1, false},
        {"Scan-Filter-Agg", 0, true},
        {"Scan-Filter-Join-Agg", 1, true},
        {"Scan-Filter-Join-Join-Agg", 2, true},
        {"Scan-Filter-Join-Join-Join-Agg", 3, true},
    };
    bench::TablePrinter table(csv);
    table.Header({"composition", "shrinkage delay (ms)", "expansion (ms)"});
    for (const Comp& comp : comps) {
      std::vector<std::unique_ptr<Table>> smalls;
      const Schema* out = nullptr;
      auto ops = Composition(*big, comp.joins, comp.agg, &smalls, &out);
      Delays d = Measure(std::move(ops), kTrials);
      table.Row({comp.name, Show(d.shrink_ms), Show(d.expand_ms)});
    }
    table.Print();
  }

  bench::Title("Introspection overhead: same pipeline, monitoring off/on");
  {
    std::vector<ConfigResult> results =
        InterleavedOverhead(*big, configs, kRounds);
    bench::TablePrinter table(csv);
    table.Header({"config", "pipeline time (ms)", "overhead (%)",
                  "overhead q1-q3 (%)"});
    for (size_t c = 0; c < configs.size(); ++c) {
      const ConfigResult& r = results[c];
      table.Row({configs[c].name, StrFormat("%.1f", r.pipeline_ms.median),
                 StrFormat("%+.2f", r.overhead_pct.median),
                 StrFormat("%+.2f..%+.2f", r.overhead_pct.q1,
                           r.overhead_pct.q3)});
    }
    table.Print();
  }
  return 0;
}
