#include "core/metrics.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace claims {
namespace {

TEST(SegmentStatsTest, Selectivity) {
  SegmentStats stats;
  EXPECT_EQ(stats.selectivity(), 1.0);
  stats.input_tuples.store(1000);
  stats.output_tuples.store(250);
  EXPECT_DOUBLE_EQ(stats.selectivity(), 0.25);
}

TEST(VisitRateAggregatorTest, SumsLatestPerProducer) {
  SegmentStats stats;
  VisitRateAggregator agg(&stats);
  agg.Observe(/*producer=*/0, 0.5);
  EXPECT_DOUBLE_EQ(stats.visit_rate.load(), 0.5);
  agg.Observe(/*producer=*/1, 0.25);
  EXPECT_DOUBLE_EQ(stats.visit_rate.load(), 0.75);
  // Producer 0 refreshes its contribution; the old 0.5 is replaced, not added.
  agg.Observe(/*producer=*/0, 0.3);
  EXPECT_DOUBLE_EQ(stats.visit_rate.load(), 0.55);
}

class ManualClock : public Clock {
 public:
  int64_t NowNanos() const override { return now_; }
  void Advance(int64_t ns) { now_ += ns; }

 private:
  int64_t now_ = 0;
};

TEST(WorkerTimeMeterTest, ReadCountsOpenIntervalsUpToItsInstant) {
  ManualClock clock;
  WorkerTimeMeter meter;
  meter.Open(WorkerTimeMeter::kLive, clock);
  clock.Advance(10);
  meter.Open(WorkerTimeMeter::kBlockedInput, clock);
  clock.Advance(20);
  WorkerTimeMeter::Reading r = meter.Read(clock);
  EXPECT_EQ(r.at_ns, 30);
  EXPECT_EQ(r.live_ns, 30);
  EXPECT_EQ(r.blocked_input_ns, 20);  // still waiting: counted up to the read
  EXPECT_EQ(r.blocked_output_ns, 0);
  meter.Close(WorkerTimeMeter::kBlockedInput, clock);
  meter.Open(WorkerTimeMeter::kBlockedOutput, clock);
  clock.Advance(5);
  meter.Close(WorkerTimeMeter::kBlockedOutput, clock);
  meter.Close(WorkerTimeMeter::kLive, clock);
  clock.Advance(100);  // nothing open: the totals stop growing
  r = meter.Read(clock);
  EXPECT_EQ(r.live_ns, 35);
  EXPECT_EQ(r.blocked_input_ns, 20);
  EXPECT_EQ(r.blocked_output_ns, 5);
}

TEST(WorkerTimeMeterTest, IntervalsWithoutStatsOnlyReadTheClock) {
  ManualClock clock;
  clock.Advance(7);
  EXPECT_EQ(OpenInterval(nullptr, WorkerTimeMeter::kLive, clock), 7);
  clock.Advance(3);
  EXPECT_EQ(CloseInterval(nullptr, WorkerTimeMeter::kLive, clock), 10);
}

TEST(WorkerTimeMeterTest, ConcurrentReadsStayWithinLiveTime) {
  // Workers on the steady clock wait inside their live intervals while a
  // reader samples: between any two readings the blocked time grows by no
  // more than the live time, with no timing slack.
  SegmentStats stats;
  const Clock& clock = *SteadyClock::Default();
  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < 3; ++t) {
    workers.emplace_back([&, t] {
      while (!stop.load(std::memory_order_relaxed)) {
        OpenInterval(&stats, WorkerTimeMeter::kLive, clock);
        for (int i = 0; i < 50; ++i) {
          const auto kind = (i + t) % 2 == 0 ? WorkerTimeMeter::kBlockedInput
                                             : WorkerTimeMeter::kBlockedOutput;
          OpenInterval(&stats, kind, clock);
          CloseInterval(&stats, kind, clock);
        }
        CloseInterval(&stats, WorkerTimeMeter::kLive, clock);
      }
    });
  }
  WorkerTimeMeter::Reading prev = stats.worker_time.Read(clock);
  for (int i = 0; i < 20000; ++i) {
    const WorkerTimeMeter::Reading r = stats.worker_time.Read(clock);
    const int64_t live = r.live_ns - prev.live_ns;
    const int64_t in = r.blocked_input_ns - prev.blocked_input_ns;
    const int64_t out = r.blocked_output_ns - prev.blocked_output_ns;
    ASSERT_GE(in, 0);
    ASSERT_GE(out, 0);
    ASSERT_LE(in + out, live) << "reading " << i;
    prev = r;
  }
  stop.store(true);
  for (std::thread& w : workers) w.join();
}

}  // namespace
}  // namespace claims
