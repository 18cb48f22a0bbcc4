// EventRecorder / MetricsRegistry unit tests: concurrent recording keeps a
// stable total order, virtual-clock timestamps pass through untouched, the
// disabled path records nothing, the Chrome JSON export is well-formed, and
// the flight-recorder ring bounds the store.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "obs/metrics_registry.h"
#include "obs/recorder.h"

namespace claims {
namespace {

/// A counter sample of `series` on `node`, as the hooks record them.
EventRecord Sample(int64_t ts_ns, int node, const char* series, double v) {
  EventRecord ev;
  ev.kind = EventKind::kCounter;
  ev.name = series;
  ev.node = node;
  ev.start_ns = ev.end_ns = ts_ns;
  ev.AddArg("value", v);
  return ev;
}

EventRecord Span(int64_t ts_ns, int64_t dur_ns, int node, const char* name) {
  EventRecord ev(EventKind::kSegment, RecordOwner{0, "", node}, ts_ns,
                 ts_ns + dur_ns);
  ev.name = name;
  return ev;
}

TEST(EventRecorderTest, DisabledPathRecordsNothing) {
  EventRecorder rec;
  ASSERT_FALSE(rec.enabled());
  rec.Instant(100, 0, "never", {{"k", 1}});
  rec.Record(Sample(200, 0, "series", 3.0));
  rec.Record(Span(0, 50, 0, "span"));
  EXPECT_EQ(rec.BeginOpen(Span(0, 0, 0, "open")), 0u);
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_TRUE(rec.Snapshot().empty());
}

TEST(EventRecorderTest, ConcurrentRecordersKeepUniqueIncreasingSeq) {
  EventRecorder rec;
  rec.Enable();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&rec, t] {
      for (int i = 0; i < kPerThread; ++i) {
        // Deliberately colliding timestamps: seq must break the ties.
        rec.Instant(/*ts_ns=*/i, /*node=*/t, "e", {{"i", double(i)}});
      }
    });
  }
  for (auto& th : threads) th.join();

  std::vector<EventRecord> events = rec.Snapshot();
  ASSERT_EQ(events.size(), static_cast<size_t>(kThreads * kPerThread));
  std::vector<bool> seen(events.size(), false);
  for (size_t i = 0; i < events.size(); ++i) {
    ASSERT_GE(events[i].seq, 0);
    ASSERT_LT(events[i].seq, static_cast<int64_t>(events.size()));
    EXPECT_FALSE(seen[static_cast<size_t>(events[i].seq)]) << "duplicate seq";
    seen[static_cast<size_t>(events[i].seq)] = true;
    if (i > 0) {
      // Snapshot order: (ts, seq) non-decreasing lexicographically.
      ASSERT_LE(events[i - 1].start_ns, events[i].start_ns);
      if (events[i - 1].start_ns == events[i].start_ns) {
        ASSERT_LT(events[i - 1].seq, events[i].seq);
      }
    }
  }
  // Per-thread recording order is preserved in seq (each thread's records
  // were stamped in program order).
  std::vector<int64_t> last_seq(kThreads, -1);
  for (const EventRecord& ev : rec.Snapshot()) {
    int t = ev.node;
    EXPECT_GT(ev.seq, last_seq[static_cast<size_t>(t)]);
    last_seq[static_cast<size_t>(t)] = ev.seq;
  }
}

/// Fixed-time Clock standing in for the simulator's virtual clock.
class ManualClock : public Clock {
 public:
  int64_t NowNanos() const override { return now_; }
  void set(int64_t ns) { now_ = ns; }

 private:
  int64_t now_ = 0;
};

TEST(EventRecorderTest, VirtualClockTimestampsPassThrough) {
  EventRecorder rec;
  rec.Enable();
  ManualClock clock;
  clock.set(42);
  rec.Instant(clock.NowNanos(), 1000, "first");
  clock.set(7);  // virtual time of another node, earlier than the first
  rec.Record(Sample(clock.NowNanos(), 1001, "parallelism", 3));
  clock.set(50'000'000'000);  // far future virtual time
  rec.Record(Span(clock.NowNanos(), 10, 1000, "span"));

  std::vector<EventRecord> events = rec.Snapshot();
  ASSERT_EQ(events.size(), 3u);
  // Sorted by timestamp, not recording order.
  EXPECT_EQ(events[0].start_ns, 7);
  EXPECT_EQ(events[0].kind, EventKind::kCounter);
  EXPECT_EQ(events[1].start_ns, 42);
  EXPECT_EQ(events[2].start_ns, 50'000'000'000);
  EXPECT_EQ(events[2].dur_ns(), 10);
}

TEST(EventRecorderTest, ChromeJsonIsWellFormed) {
  EventRecorder rec;
  rec.Enable();
  rec.Instant(1500, 3, "marker", {{"lambda", 2.5}, {"kind", 0, "drop"}});
  EventRecord sample = Sample(2000, 3, "buffer", 4);
  sample.segment = "S1@n0";
  rec.Record(std::move(sample));
  rec.Record(Span(1000, 500, 3, "quote\"and\\slash\nnewline"));
  auto audit = std::make_shared<SchedTickAudit>();
  audit->ts_ns = 2500;
  audit->lambda_global = 2.5;
  SchedTickAudit::Segment seg;
  seg.name = "S1@n0";
  seg.parallelism = 4;
  seg.normalized_rate = 3;
  seg.action = "expand+1(free)";
  audit->segments.push_back(seg);
  EventRecord tick;
  tick.kind = EventKind::kTick;
  tick.node = 3;
  tick.start_ns = tick.end_ns = 2500;
  tick.tick = audit;
  rec.Record(std::move(tick));

  std::string json = rec.ToChromeJson();
  EXPECT_EQ(json.find("{\"traceEvents\":["), 0u);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  // Microsecond timestamps (1500 ns = 1.5 us).
  EXPECT_NE(json.find("\"ts\":1.5"), std::string::npos);
  EXPECT_NE(json.find("\"lambda\":2.5"), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"drop\""), std::string::npos);
  // A counter renders as "<series>:<segment>".
  EXPECT_NE(json.find("\"name\":\"buffer:S1@n0\""), std::string::npos);
  // The tick record expands into the tick instant, the decision instant
  // with the audit's action as reason, and the per-segment counters.
  EXPECT_NE(json.find("\"name\":\"tick\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"Expand\""), std::string::npos);
  EXPECT_NE(json.find("\"reason\":\"expand+1(free)\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"parallelism:S1@n0\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"R:S1@n0\""), std::string::npos);
  EXPECT_NE(json.find("\"segment\":\"S1@n0\""), std::string::npos);
  // Control characters and quotes must be escaped.
  EXPECT_NE(json.find("quote\\\"and\\\\slash\\nnewline"), std::string::npos);
  // The raw newline inside the event name must NOT survive into a JSON
  // string: every '\n' in the output is inter-record formatting, i.e.
  // directly adjacent to a record boundary.
  for (size_t pos = json.find('\n'); pos != std::string::npos;
       pos = json.find('\n', pos + 1)) {
    ASSERT_TRUE(pos + 1 == json.size() || json[pos - 1] == '[' ||
                json[pos - 1] == ',' || json[pos + 1] == ']')
        << "raw newline inside a record at offset " << pos;
  }
}

TEST(EventRecorderTest, MatchedLinkKeysBecomeFlowArrows) {
  EventRecorder rec;
  rec.Enable();
  EventRecord send(EventKind::kNetSend, RecordOwner{9, "S0@n1", 1}, 100, 200);
  send.link = LinkKey{4, 1, 0, 3};
  EventRecord recv(EventKind::kNetRecv, RecordOwner{9, "S1@n0", 0}, 250, 260);
  recv.link = send.link;
  EventRecord orphan = recv;  // no matching send: no arrow
  orphan.link.wire_seq = 4;
  rec.Record(send);
  rec.Record(recv);
  rec.Record(orphan);
  std::string json = rec.ToChromeJson();
  size_t starts = 0, finishes = 0;
  for (size_t pos = json.find("\"ph\":\"s\""); pos != std::string::npos;
       pos = json.find("\"ph\":\"s\"", pos + 1)) {
    ++starts;
  }
  for (size_t pos = json.find("\"ph\":\"f\""); pos != std::string::npos;
       pos = json.find("\"ph\":\"f\"", pos + 1)) {
    ++finishes;
  }
  EXPECT_EQ(starts, 1u);
  EXPECT_EQ(finishes, 1u);
  EXPECT_NE(json.find("\"id\":1"), std::string::npos);
}

TEST(EventRecorderTest, ClearEmptiesAndSeqRestarts) {
  EventRecorder rec;
  rec.Enable();
  rec.Instant(1, 0, "a");
  ASSERT_EQ(rec.size(), 1u);
  rec.Clear();
  EXPECT_EQ(rec.size(), 0u);
  rec.Instant(2, 0, "b");
  EXPECT_EQ(rec.Snapshot()[0].seq, 0);
}

TEST(TraceEnvScopeTest, WritesTraceWhereEnvPoints) {
  std::string path = ::testing::TempDir() + "/claims_trace_env_test.json";
  ::setenv("CLAIMS_TRACE", path.c_str(), 1);
  {
    TraceEnvScope scope;
    ASSERT_TRUE(scope.active());
    ASSERT_TRUE(EventRecorder::Global()->enabled());
    EventRecorder::Global()->Instant(1, 0, "env-scoped");
  }
  ::unsetenv("CLAIMS_TRACE");
  EXPECT_FALSE(EventRecorder::Global()->enabled());
  FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char buf[4096];
  size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  buf[n] = '\0';
  EXPECT_NE(std::string(buf).find("env-scoped"), std::string::npos);
  std::remove(path.c_str());
  EventRecorder::Global()->Clear();
}

TEST(MetricsRegistryTest, CountersGaugesHistograms) {
  MetricsRegistry reg;
  MetricCounter* c = reg.counter("test.count");
  EXPECT_EQ(c, reg.counter("test.count"));  // get-or-create is stable
  c->Add();
  c->Add(41);
  EXPECT_EQ(c->value(), 42);

  MetricGauge* g = reg.gauge("test.peak");
  g->UpdateMax(3.0);
  g->UpdateMax(1.0);  // lower: ignored
  EXPECT_DOUBLE_EQ(g->value(), 3.0);

  MetricHistogram* h = reg.histogram("test.latency");
  for (int64_t v : {1, 2, 100, 1000, 1000000}) h->Record(v);
  EXPECT_EQ(h->count(), 5);
  EXPECT_EQ(h->min(), 1);
  EXPECT_EQ(h->max(), 1000000);
  EXPECT_DOUBLE_EQ(h->mean(), (1 + 2 + 100 + 1000 + 1000000) / 5.0);
  EXPECT_GE(h->Percentile(0.5), 100);
  EXPECT_LE(h->Percentile(0.5), 128);  // log2 bucket upper bound
  EXPECT_GE(h->Percentile(1.0), 1000000);

  std::string snap = reg.TextSnapshot();
  EXPECT_NE(snap.find("counter test.count 42"), std::string::npos);
  EXPECT_NE(snap.find("test.peak"), std::string::npos);
  EXPECT_NE(snap.find("test.latency"), std::string::npos);

  reg.ResetAll();
  EXPECT_EQ(c->value(), 0);
  EXPECT_DOUBLE_EQ(g->value(), 0.0);
  EXPECT_EQ(h->count(), 0);
}

TEST(EventRecorderTest, FlightRecorderBoundsMemoryAndCountsOverwrites) {
  EventRecorder rec;
  rec.ConfigureRing(64);  // 4 slots per shard across 16 shards
  rec.Enable();
  EXPECT_EQ(rec.ring_capacity(), 64u);
  // Overfill from one thread (one shard): the shard ring holds 4, the rest
  // of the records overwrite the oldest and count as overwritten.
  for (int i = 0; i < 100; ++i) rec.Instant(i, 0, "ev");
  EXPECT_EQ(rec.size(), 4u);
  EXPECT_EQ(rec.overwritten(), 96);
  // The surviving window is the most recent records, not the first ones.
  std::vector<EventRecord> events = rec.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  for (const EventRecord& ev : events) EXPECT_GE(ev.start_ns, 96);
}

TEST(EventRecorderTest, FlightRecorderCountsOverwritesPerQuery) {
  EventRecorder rec;
  rec.ConfigureRing(16);  // one slot per shard
  rec.Enable();
  rec.Record(EventRecord(EventKind::kWorker, RecordOwner{5, "S0@n0", 0}, 1, 2));
  rec.Record(EventRecord(EventKind::kWorker, RecordOwner{5, "S0@n0", 0}, 3, 4));
  rec.Record(EventRecord(EventKind::kWorker, RecordOwner{6, "S0@n0", 0}, 5, 6));
  int64_t lost = -1;
  EXPECT_TRUE(rec.SelectQuery(5, &lost).empty());
  EXPECT_EQ(lost, 2);
  EXPECT_EQ(rec.SelectQuery(6, &lost).size(), 1u);
  EXPECT_EQ(lost, 0);
  // Selecting leaves the store as it was.
  EXPECT_EQ(rec.size(), 1u);
}

TEST(EventRecorderTest, FlightRecorderReconfigureAndRestoreUnbounded) {
  EventRecorder rec;
  rec.ConfigureRing(16);
  rec.Enable();
  for (int i = 0; i < 10; ++i) rec.Instant(i, 0, "a");
  // Reconfiguring clears the store and resets the overwrite count.
  rec.ConfigureRing(32);
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_EQ(rec.overwritten(), 0);
  // Capacity 0 restores unbounded capture.
  rec.ConfigureRing(0);
  EXPECT_EQ(rec.ring_capacity(), 0u);
  for (int i = 0; i < 500; ++i) rec.Instant(i, 0, "b");
  EXPECT_EQ(rec.size(), 500u);
  EXPECT_EQ(rec.overwritten(), 0);
}

TEST(EventRecorderTest, FlightRecorderTinyCapacityStillKeepsOnePerShard) {
  EventRecorder rec;
  rec.ConfigureRing(1);  // less than one slot per shard
  rec.Enable();
  for (int i = 0; i < 10; ++i) rec.Instant(i, 0, "x");
  EXPECT_EQ(rec.size(), 1u);  // single-threaded: one shard, one slot
  EXPECT_EQ(rec.overwritten(), 9);
}

TEST(EventRecorderTest, FlightRecorderConcurrentWritersStayBounded) {
  EventRecorder rec;
  constexpr size_t kCapacity = 256;
  rec.ConfigureRing(kCapacity);
  rec.Enable();
  constexpr int kThreads = 8, kPerThread = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&rec, t] {
      for (int i = 0; i < kPerThread; ++i) {
        rec.Instant(t * kPerThread + i, t, "e");
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_LE(rec.size(), kCapacity);
  EXPECT_EQ(static_cast<int64_t>(rec.size()) + rec.overwritten(),
            int64_t{kThreads} * kPerThread);
  // The export still renders valid JSON from a wrapped ring.
  std::string json = rec.ToChromeJson();
  EXPECT_EQ(json.find("{\"traceEvents\":["), 0u);
}

TEST(MetricsRegistryTest, ConcurrentCountersAreExact) {
  MetricsRegistry reg;
  MetricCounter* c = reg.counter("concurrent");
  constexpr int kThreads = 8, kAdds = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([c] {
      for (int i = 0; i < kAdds; ++i) c->Add();
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c->value(), kThreads * kAdds);
}

}  // namespace
}  // namespace claims
