// Introspection-plane stress: concurrent scrapers hammering /metrics,
// /queries, /scheduler, and flight-recorder dumps while queries are
// submitted, cancelled, and the service shuts down underneath them. The
// races this drives: ListQueries vs dispatch/completion (service mu_ →
// handle mu_ order), Executor::Progress vs segment teardown (live_mu_),
// Prometheus rendering vs concurrent histogram writers, ring-buffer
// overwrite vs ToChromeJson, and MonitorServer::Stop vs in-flight
// connections. Under TSan this is the test that validates the whole
// monitoring read path against the write paths it samples.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/socket_util.h"
#include "obs/metrics_registry.h"
#include "obs/timeseries/timeseries.h"
#include "obs/recorder.h"
#include "wlm/introspection.h"
#include "wlm/query_service.h"

namespace claims {
namespace {

constexpr int kNodes = 2;
constexpr int kCoresPerNode = 4;

ExprPtr Col(const Schema& s, const char* name) {
  int i = s.FindColumn(name);
  EXPECT_GE(i, 0) << name;
  return MakeColumnRef(i, s.column(i).type, name);
}

class MonitorStressTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog_ = new Catalog;
    Schema s({ColumnDef::Int32("k"), ColumnDef::Int64("v")});
    auto t = std::make_shared<Table>("kv", s, kNodes, std::vector<int>{});
    for (int i = 0; i < 16000; ++i) {
      t->AppendValues({Value::Int32(i % 200), Value::Int64(i)});
    }
    ASSERT_TRUE(catalog_->RegisterTable(std::move(t)).ok());
    ClusterOptions copts;
    copts.num_nodes = kNodes;
    copts.cores_per_node = kCoresPerNode;
    cluster_ = new Cluster(copts, catalog_);
  }
  static void TearDownTestSuite() {
    delete cluster_;
    delete catalog_;
    EventRecorder::Global()->ConfigureRing(0);
    EventRecorder::Global()->Disable();
  }

  /// Scan kv → filter → gather; a few ms per run.
  static PhysicalPlan FastPlan() {
    TablePtr kv = *catalog_->GetTable("kv");
    PhysicalPlan plan;
    auto f = std::make_unique<Fragment>();
    f->id = 0;
    f->root = MakeFilterOp(
        MakeScanOp(*kv), MakeCompare(CompareOp::kLt, Col(kv->schema(), "k"),
                                     MakeLiteral(Value::Int32(100))));
    f->nodes = {0, 1};
    f->out_exchange_id = 0;
    f->partitioning = Partitioning::kToOne;
    f->consumer_nodes = {0};
    plan.result_schema = f->root->output_schema;
    plan.result_exchange_id = 0;
    plan.fragments.push_back(std::move(f));
    return plan;
  }

  static Catalog* catalog_;
  static Cluster* cluster_;
};

Catalog* MonitorStressTest::catalog_ = nullptr;
Cluster* MonitorStressTest::cluster_ = nullptr;

/// One GET against the monitor; transport failures are only acceptable once
/// `stopping` is set (the server may be mid-shutdown).
void ScrapeOnce(int port, const std::string& target,
                const std::atomic<bool>& stopping) {
  Result<std::string> raw = HttpRoundTrip("127.0.0.1", port, "GET", target);
  if (!raw.ok()) {
    EXPECT_TRUE(stopping.load()) << target << ": " << raw.status().ToString();
    return;
  }
  std::string body;
  int status = ParseHttpResponse(raw.value(), &body);
  EXPECT_EQ(status, 200) << target;
}

TEST_F(MonitorStressTest, ScrapersRaceQueriesCancellationAndShutdown) {
  QueryServiceOptions sopts;
  sopts.admission.max_concurrent = 4;
  auto service = std::make_unique<QueryService>(cluster_, sopts);

  IntrospectionOptions iopts;
  iopts.monitor.enabled = true;
  iopts.monitor.port = 0;
  iopts.flight_recorder_capacity = 4096;  // ring wraps under this workload
  iopts.enable_watchdog = true;
  iopts.watchdog.incident_dir = ::testing::TempDir();
  iopts.watchdog.stall_window_ns = 60'000'000'000;  // healthy run: no alarms
  // Time-series sampler at a stress cadence, aimed at a series that never
  // exists so the anomaly path cannot page (the incident_count()==0 check
  // below is the healthy-run invariant).
  iopts.enable_timeseries = true;
  iopts.timeseries.period_ns = 5'000'000;  // 5 ms
  iopts.timeseries.anomaly_watch = "no.such.metric";
  IntrospectionPlane plane(service.get(), iopts);
  ASSERT_TRUE(plane.Start().ok());
  const int port = plane.monitor()->port();
  ASSERT_GT(port, 0);

  constexpr int kSubmitters = 3;
  constexpr int kQueriesPerSubmitter = 24;
  constexpr int kScrapers = 4;
  std::atomic<bool> stopping{false};
  std::atomic<int> done_submitters{0};

  std::vector<std::thread> threads;
  // Submitters: a stream of fast queries, every third one cancelled from a
  // racing thread via the handle.
  for (int t = 0; t < kSubmitters; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kQueriesPerSubmitter; ++i) {
        SubmitOptions opts;
        opts.priority = i % 3;
        opts.label = "stress-" + std::to_string(t) + "-" + std::to_string(i);
        QueryHandlePtr h = service->Submit(FastPlan(), opts);
        if (i % 3 == 0) {
          std::thread canceller([h] { h->Cancel(); });
          canceller.join();
        }
        h->Wait();
        EXPECT_EQ(h->state(), QueryState::kDone);
      }
      done_submitters.fetch_add(1);
    });
  }
  // Scrapers: rotate over every endpoint — the timeseries JSON/text renders
  // and the dashboard race the 5 ms sampler thread appending to the rings.
  const std::string targets[] = {"/metrics",
                                 "/queries",
                                 "/scheduler",
                                 "/healthz",
                                 "/",
                                 "/timeseries",
                                 "/timeseries?format=text&window=60",
                                 "/dash"};
  constexpr int kTargets = 8;
  for (int t = 0; t < kScrapers; ++t) {
    threads.emplace_back([&, t] {
      int i = 0;
      while (done_submitters.load() < kSubmitters) {
        ScrapeOnce(port, targets[(t + i++) % kTargets], stopping);
      }
    });
  }
  // Dumper: flight-recorder snapshots racing the ring writers.
  threads.emplace_back([&] {
    while (done_submitters.load() < kSubmitters) {
      Result<std::string> raw =
          HttpRoundTrip("127.0.0.1", port, "POST", "/flight-recorder/dump");
      if (raw.ok()) {
        std::string body;
        EXPECT_EQ(ParseHttpResponse(raw.value(), &body), 200);
        EXPECT_EQ(body.find("{\"traceEvents\":["), 0u);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
  // Watchdog sampling loop racing everything (its Start()ed thread also
  // polls; this adds direct PollOnce contention on the probe registry).
  threads.emplace_back([&] {
    while (done_submitters.load() < kSubmitters) {
      EXPECT_EQ(plane.watchdog()->PollOnce(), 0);
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });

  for (auto& th : threads) th.join();

  // Drained: a final scrape of every endpoint still answers.
  for (const std::string& target : targets) {
    ScrapeOnce(port, target, stopping);
  }
  EXPECT_EQ(plane.watchdog()->incident_count(), 0);

  // Shutdown race: scrapers keep hitting the endpoints while the service
  // and then the plane go down. Transport errors become acceptable the
  // moment `stopping` flips; data races never are.
  std::vector<std::thread> late;
  for (int t = 0; t < 2; ++t) {
    late.emplace_back([&, t] {
      for (int i = 0; i < 50; ++i) {
        ScrapeOnce(port, targets[(t + i) % kTargets], stopping);
      }
    });
  }
  service->Shutdown();
  stopping.store(true);
  plane.Stop();
  for (auto& th : late) th.join();
  service.reset();
}

/// Manual clock readable from any thread; only the writer advances it.
class AtomicClock : public Clock {
 public:
  int64_t NowNanos() const override {
    return now_.load(std::memory_order_acquire);
  }
  void Advance(int64_t ns) { now_.fetch_add(ns, std::memory_order_acq_rel); }

 private:
  std::atomic<int64_t> now_{0};
};

TEST(MetricSamplerStressTest, ReadersRaceSamplerAndAnomalyIncidents) {
  // A writer thread drives SampleOnce through a deterministic collapse (20
  // warm-up samples at 100 qps, then 10 at 100000) while reader threads
  // hammer ToJson/ToText/Annotate — the ring-append vs render race plus the
  // incident callback firing mid-contention. Under TSan this is the sampler
  // counterpart of the scraper test above. The series runs on a manual clock
  // that advances exactly 1 ms per sample, so the rates (and the episode
  // the detector sees) do not depend on how long the real pauses took.
  MetricsRegistry registry;
  MetricCounter* c = registry.counter("wlm.driver.completed");
  TimeseriesOptions opts;
  opts.anomaly_watch = "wlm.driver.completed";
  AtomicClock clock;
  MetricSampler sampler(opts, &clock, &registry);
  std::atomic<int> incidents{0};
  sampler.SetIncidentCallback([&](const AnomalyIncident& inc) {
    incidents.fetch_add(1);
    EXPECT_FALSE(sampler.ToText(inc.series, 0).empty());
  });

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      while (!stop.load(std::memory_order_relaxed)) {
        if (t == 0) {
          EXPECT_EQ(sampler.ToJson("", 0).find("{\"enabled\":true"), 0u);
        } else {
          EXPECT_EQ(sampler.ToText("", 60'000'000'000).find("timeseries"), 0u);
          sampler.Annotate("stress.marker", true);
        }
        // Two readers re-taking the sampler mutex back to back can starve
        // the writer for seconds (the mutex is not fair); a pause between
        // renders keeps the race without the starvation.
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    });
  }

  // The real 1 ms pauses only keep the readers racing across the episode.
  auto sample = [&](int64_t add) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    c->Add(add);
    clock.Advance(1'000'000);
    sampler.SampleOnce();
  };
  sampler.SampleOnce();  // counter baseline
  for (int i = 0; i < 20; ++i) sample(100);
  for (int i = 0; i < 10; ++i) sample(100000);
  stop.store(true);
  for (auto& th : readers) th.join();
  // The detector must page exactly once for the sustained x1000 episode.
  EXPECT_EQ(incidents.load(), 1);
  EXPECT_EQ(registry.counter("timeseries.anomalies")->value(), 1);
}

TEST_F(MonitorStressTest, FlightRecorderReconfigureRacesWriters) {
  EventRecorder rec;
  rec.ConfigureRing(1024);
  rec.Enable();
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&rec, &stop, t] {
      int64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        rec.Instant(++i, t, "w");
      }
    });
  }
  // Reader + reconfigurer racing the writers.
  for (int round = 0; round < 30; ++round) {
    std::string json = rec.ToChromeJson();
    EXPECT_EQ(json.find("{\"traceEvents\":["), 0u);
    rec.ConfigureRing(round % 2 == 0 ? 256 : 1024);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  stop.store(true);
  for (auto& th : threads) th.join();
  EXPECT_LE(rec.size(), 1024u);
}

}  // namespace
}  // namespace claims
