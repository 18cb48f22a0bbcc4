#include "obs/watchdog.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <string>

#include "common/clock.h"
#include "obs/recorder.h"

namespace claims {
namespace {

class ManualClock : public Clock {
 public:
  int64_t NowNanos() const override { return now_; }
  void Advance(int64_t ns) { now_ += ns; }

 private:
  int64_t now_ = 1'000'000'000;
};

WatchdogOptions TestOptions() {
  WatchdogOptions options;
  options.stall_window_ns = 1'000'000'000;      // 1 s
  options.incident_cooldown_ns = 5'000'000'000;  // 5 s
  options.incident_dir = ::testing::TempDir();
  options.dump_flight_recorder = false;
  return options;
}

TEST(StallWatchdogTest, AdvancingCounterNeverAlarms) {
  ManualClock clock;
  StallWatchdog watchdog(TestOptions(), &clock);
  int64_t counter = 0;
  watchdog.AddProgressProbe("ticks", [&] { return ++counter; });
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(watchdog.PollOnce(), 0);
    clock.Advance(600'000'000);
  }
  EXPECT_EQ(watchdog.incident_count(), 0);
}

TEST(StallWatchdogTest, PinnedCounterRaisesAfterWindow) {
  ManualClock clock;
  StallWatchdog watchdog(TestOptions(), &clock);
  watchdog.AddProgressProbe("ticks", [] { return int64_t{42}; });
  EXPECT_EQ(watchdog.PollOnce(), 0);  // establishes the value
  clock.Advance(500'000'000);
  EXPECT_EQ(watchdog.PollOnce(), 0);  // within the window
  clock.Advance(600'000'000);         // 1.1 s pinned
  EXPECT_EQ(watchdog.PollOnce(), 1);
  EXPECT_EQ(watchdog.incident_count(), 1);
  ASSERT_EQ(watchdog.incident_files().size(), 1u);
  // Report names the probe and the pinned value.
  std::FILE* f = std::fopen(watchdog.incident_files()[0].c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buf[4096];
  size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  std::string report(buf, n);
  EXPECT_NE(report.find("probe: ticks"), std::string::npos);
  EXPECT_NE(report.find("42"), std::string::npos);
  EXPECT_NE(report.find("metrics snapshot"), std::string::npos);
}

TEST(StallWatchdogTest, CooldownSuppressesRepeatIncidents) {
  ManualClock clock;
  StallWatchdog watchdog(TestOptions(), &clock);
  watchdog.AddProgressProbe("ticks", [] { return int64_t{7}; });
  watchdog.PollOnce();
  clock.Advance(1'100'000'000);
  EXPECT_EQ(watchdog.PollOnce(), 1);
  // Still stalled, still inside the cooldown: no new incident.
  clock.Advance(1'000'000'000);
  EXPECT_EQ(watchdog.PollOnce(), 0);
  // Past the cooldown the episode is reported again.
  clock.Advance(5'000'000'000);
  EXPECT_EQ(watchdog.PollOnce(), 1);
  EXPECT_EQ(watchdog.incident_count(), 2);
}

TEST(StallWatchdogTest, InactiveProbeIsNotAStall) {
  ManualClock clock;
  StallWatchdog watchdog(TestOptions(), &clock);
  watchdog.AddProgressProbe("idle", [] { return StallWatchdog::kInactive; });
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(watchdog.PollOnce(), 0);
    clock.Advance(2'000'000'000);
  }
  EXPECT_EQ(watchdog.incident_count(), 0);
}

TEST(StallWatchdogTest, ReactivationRestartsTheWindow) {
  ManualClock clock;
  StallWatchdog watchdog(TestOptions(), &clock);
  std::atomic<int64_t> value{StallWatchdog::kInactive};
  watchdog.AddProgressProbe("bursty", [&] { return value.load(); });
  watchdog.PollOnce();
  clock.Advance(3'000'000'000);  // long idle stretch
  watchdog.PollOnce();
  value.store(5);  // subsystem wakes, then pins immediately
  EXPECT_EQ(watchdog.PollOnce(), 0);  // fresh window — not an instant alarm
  clock.Advance(1'100'000'000);
  EXPECT_EQ(watchdog.PollOnce(), 1);
}

TEST(StallWatchdogTest, ConditionProbeRaisesWithDetail) {
  ManualClock clock;
  StallWatchdog watchdog(TestOptions(), &clock);
  std::atomic<bool> broken{false};
  watchdog.AddConditionProbe("invariant", [&]() -> std::string {
    return broken.load() ? "deadline breached by q7" : "";
  });
  EXPECT_EQ(watchdog.PollOnce(), 0);
  broken.store(true);
  EXPECT_EQ(watchdog.PollOnce(), 1);
  ASSERT_FALSE(watchdog.incident_files().empty());
  std::FILE* f = std::fopen(watchdog.incident_files()[0].c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buf[4096];
  size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  std::string report(buf, n);
  EXPECT_NE(report.find("deadline breached by q7"), std::string::npos);
}

TEST(StallWatchdogTest, ContextProvidersAppendToIncidentReports) {
  ManualClock clock;
  StallWatchdog watchdog(TestOptions(), &clock);
  // The chaos-plane wiring: a provider that names the faults in force when
  // the incident fires, and one that is quiet (omitted from the report).
  watchdog.AddContextProvider("fault.active", [] {
    return std::string("at=10ms kind=nic node=1 dur=100ms bps=2000000");
  });
  watchdog.AddContextProvider("fault.idle", [] { return std::string(); });
  watchdog.AddProgressProbe("ticks", [] { return int64_t{9}; });
  watchdog.PollOnce();
  clock.Advance(1'100'000'000);
  EXPECT_EQ(watchdog.PollOnce(), 1);
  ASSERT_EQ(watchdog.incident_files().size(), 1u);
  std::FILE* f = std::fopen(watchdog.incident_files()[0].c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buf[8192];
  size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  std::string report(buf, n);
  EXPECT_NE(report.find("--- context: fault.active ---"), std::string::npos);
  EXPECT_NE(report.find("kind=nic node=1"), std::string::npos);
  EXPECT_EQ(report.find("fault.idle"), std::string::npos);
}

TEST(StallWatchdogTest, DumpsFlightRecorderWhenEnabled) {
  ManualClock clock;
  WatchdogOptions options = TestOptions();
  options.dump_flight_recorder = true;
  StallWatchdog watchdog(options, &clock);
  EventRecorder* rec = EventRecorder::Global();
  rec->Clear();
  rec->Enable();
  rec->Instant(1, 0, "pre-incident-event");
  watchdog.AddProgressProbe("ticks", [] { return int64_t{1}; });
  watchdog.PollOnce();
  clock.Advance(2'000'000'000);
  EXPECT_EQ(watchdog.PollOnce(), 1);
  rec->Disable();
  // Two artifacts: the text report and the trace dump.
  ASSERT_EQ(watchdog.incident_files().size(), 2u);
  std::string trace_path;
  for (const std::string& path : watchdog.incident_files()) {
    if (path.find(".trace.json") != std::string::npos) trace_path = path;
  }
  ASSERT_FALSE(trace_path.empty());
  std::FILE* f = std::fopen(trace_path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buf[65536];
  size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  std::string dump(buf, n);
  EXPECT_NE(dump.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(dump.find("pre-incident-event"), std::string::npos);
}

TEST(StallWatchdogTest, StartStopLifecycle) {
  StallWatchdog watchdog(TestOptions());  // real SteadyClock
  EXPECT_FALSE(watchdog.running());
  watchdog.Start();
  EXPECT_TRUE(watchdog.running());
  watchdog.Start();  // idempotent
  watchdog.Stop();
  EXPECT_FALSE(watchdog.running());
  watchdog.Stop();  // idempotent
}

}  // namespace
}  // namespace claims
