#include "core/scheduler.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>

namespace claims {
namespace {

constexpr int64_t kSec = 1'000'000'000;

class FakeClock : public Clock {
 public:
  int64_t NowNanos() const override { return now_; }
  void Advance(int64_t ns) { now_ += ns; }

 private:
  int64_t now_ = 0;
};

/// Scriptable segment: the test advances its counters to fake a workload.
class FakeSegment : public SchedulableSegment {
 public:
  FakeSegment(std::string name, int parallelism)
      : name_(std::move(name)), parallelism_(parallelism), scalability_(24) {}

  const std::string& name() const override { return name_; }
  bool active() const override { return active_; }
  int parallelism() const override { return parallelism_; }
  SegmentStats* stats() override { return &stats_; }
  ScalabilityVector* scalability() override { return &scalability_; }
  bool Expand(int) override {
    if (!expand_ok_) return false;
    ++parallelism_;
    ++expand_calls_;
    return true;
  }
  bool Shrink() override {
    if (parallelism_ <= 1) return false;
    --parallelism_;
    ++shrink_calls_;
    return true;
  }

  /// Advances counters as if the segment processed for `dt_ns` at
  /// `tuples_per_sec`, spending the given blocked fractions (per worker).
  /// Each worker's intervals are written on the segment's own clock, one
  /// worker after another, and are all closed when Work returns.
  void Work(int64_t dt_ns, double tuples_per_sec, double blocked_in = 0,
            double blocked_out = 0) {
    stats_.input_tuples.fetch_add(
        static_cast<int64_t>(tuples_per_sec * dt_ns / 1e9));
    const int64_t in_ns = static_cast<int64_t>(blocked_in * dt_ns);
    const int64_t out_ns = static_cast<int64_t>(blocked_out * dt_ns);
    WorkerTimeMeter& meter = stats_.worker_time;
    for (int w = 0; w < parallelism_; ++w) {
      meter.Open(WorkerTimeMeter::kLive, work_clock_);
      meter.Open(WorkerTimeMeter::kBlockedInput, work_clock_);
      work_clock_.Advance(in_ns);
      meter.Close(WorkerTimeMeter::kBlockedInput, work_clock_);
      meter.Open(WorkerTimeMeter::kBlockedOutput, work_clock_);
      work_clock_.Advance(out_ns);
      meter.Close(WorkerTimeMeter::kBlockedOutput, work_clock_);
      work_clock_.Advance(dt_ns - in_ns - out_ns);
      meter.Close(WorkerTimeMeter::kLive, work_clock_);
    }
  }

  std::string name_;
  int parallelism_;
  bool active_ = true;
  bool expand_ok_ = true;  ///< scripted Expand refusal (finished / at max)
  int expand_calls_ = 0;
  int shrink_calls_ = 0;
  SegmentStats stats_;
  FakeClock work_clock_;
  ScalabilityVector scalability_;
};

SchedulerOptions TestOptions(int cores) {
  SchedulerOptions o;
  o.num_cores = cores;
  return o;
}

/// The action the latest tick's audit records for segment `name` ("hold",
/// "expand+1(free)", ...); empty when that tick did not see the segment.
std::string ActionOf(const DynamicScheduler& sched, const std::string& name) {
  std::shared_ptr<const SchedTickAudit> audit = sched.LastAudit();
  if (audit == nullptr) return "";
  for (const SchedTickAudit::Segment& s : audit->segments) {
    if (s.name == name) return s.action;
  }
  return "";
}

TEST(GlobalThroughputBoardTest, MinOverNodes) {
  GlobalThroughputBoard board;
  EXPECT_TRUE(std::isinf(board.GlobalLambda()));
  board.PublishLocal(0, 100.0);
  board.PublishLocal(1, 50.0);
  EXPECT_DOUBLE_EQ(board.GlobalLambda(), 50.0);
  board.PublishLocal(1, 200.0);
  EXPECT_DOUBLE_EQ(board.GlobalLambda(), 100.0);
  board.ClearNode(0);
  EXPECT_DOUBLE_EQ(board.GlobalLambda(), 200.0);
  board.ClearNode(1);
  EXPECT_TRUE(std::isinf(board.GlobalLambda()));
}

TEST(DynamicSchedulerTest, ExpandsBottleneckWithFreeCores) {
  FakeClock clock;
  GlobalThroughputBoard board;
  DynamicScheduler sched(0, TestOptions(8), &clock, &board);
  FakeSegment seg("s1", 1);
  sched.AddSegment(&seg);
  sched.Tick();  // prime
  clock.Advance(kSec);
  seg.Work(kSec, 1000.0);
  sched.Tick();
  EXPECT_EQ(ActionOf(sched, "s1"), "expand+1(free)");
  // Up to kMaxFreeExpansions free-pool cores per tick.
  EXPECT_GT(seg.parallelism(), 1);
  EXPECT_LE(seg.parallelism(), 1 + DynamicScheduler::kMaxFreeExpansions);
  EXPECT_EQ(sched.LastAudit()->segments[0].parallelism, seg.parallelism());
}

TEST(DynamicSchedulerTest, MovesCoreFromOverToUnderPerformer) {
  FakeClock clock;
  GlobalThroughputBoard board;
  DynamicScheduler sched(0, TestOptions(8), &clock, &board);
  FakeSegment slow("slow", 4);   // R = 100
  FakeSegment fast("fast", 4);   // R = 1000 — clear over-performer
  sched.AddSegment(&slow);
  sched.AddSegment(&fast);
  sched.Tick();
  // Build trustworthy scalability history at several parallelism levels.
  for (int i = 0; i < 3; ++i) {
    clock.Advance(kSec);
    slow.Work(kSec, 100.0);
    fast.Work(kSec, 1000.0);
    sched.Tick();
    const std::string slow_action = ActionOf(sched, "slow");
    const std::string fast_action = ActionOf(sched, "fast");
    if (slow_action != "hold" || fast_action != "hold") {
      EXPECT_EQ(slow_action, "expand+1(pair)");
      EXPECT_EQ(fast_action, "shrink-1(pair)");
      break;
    }
  }
  EXPECT_GE(slow.expand_calls_, 1);
  EXPECT_GE(fast.shrink_calls_, 1);
}

TEST(DynamicSchedulerTest, AbortedPairMoveReExpandsDonor) {
  // Regression: receiver Expand failing after the donor's Shrink succeeded
  // used to leak the core (donor down a worker, receiver unchanged, free
  // pool unaware) and still counted a shrink. The donor must get the core
  // back and the audit may record no pair move.
  FakeClock clock;
  GlobalThroughputBoard board;
  DynamicScheduler sched(0, TestOptions(8), &clock, &board);
  FakeSegment slow("slow", 4);
  FakeSegment fast("fast", 4);
  slow.expand_ok_ = false;  // receiver refuses (e.g. finished between ticks)
  sched.AddSegment(&slow);
  sched.AddSegment(&fast);
  sched.Tick();
  for (int i = 0; i < 3; ++i) {
    clock.Advance(kSec);
    slow.Work(kSec, 100.0);
    fast.Work(kSec, 1000.0);
    sched.Tick();
    EXPECT_NE(ActionOf(sched, "slow"), "expand+1(pair)");
    EXPECT_NE(ActionOf(sched, "fast"), "shrink-1(pair)");
  }
  // Compensation restored every shrink the aborted moves took from the donor.
  EXPECT_EQ(fast.parallelism(), 4);
  EXPECT_EQ(fast.shrink_calls_, fast.expand_calls_);
  EXPECT_EQ(slow.parallelism(), 4);
}

TEST(DynamicSchedulerTest, ShrinksStarvedSegment) {
  FakeClock clock;
  GlobalThroughputBoard board;
  DynamicScheduler sched(0, TestOptions(8), &clock, &board);
  FakeSegment producer("producer", 4);
  FakeSegment starved("starved", 4);
  sched.AddSegment(&producer);
  sched.AddSegment(&starved);
  sched.Tick();
  clock.Advance(kSec);
  producer.Work(kSec, 500.0);
  starved.Work(kSec, 1.0, /*blocked_in=*/0.9);  // waiting on input 90% of time
  sched.Tick();
  EXPECT_EQ(ActionOf(sched, "starved"), "shrink-1(starved)");
  EXPECT_EQ(starved.parallelism(), 3);
}

TEST(DynamicSchedulerTest, ShrinksOverproducingSegment) {
  FakeClock clock;
  GlobalThroughputBoard board;
  DynamicScheduler sched(0, TestOptions(8), &clock, &board);
  FakeSegment normal("normal", 4);
  FakeSegment overprod("overprod", 4);
  sched.AddSegment(&normal);
  sched.AddSegment(&overprod);
  sched.Tick();
  clock.Advance(kSec);
  normal.Work(kSec, 500.0);
  overprod.Work(kSec, 400.0, /*blocked_in=*/0, /*blocked_out=*/0.8);
  sched.Tick();
  EXPECT_EQ(ActionOf(sched, "overprod"), "shrink-1(over-producing)");
}

TEST(DynamicSchedulerTest, BlockedRateNotRecordedInScalabilityVector) {
  FakeClock clock;
  GlobalThroughputBoard board;
  DynamicScheduler sched(0, TestOptions(8), &clock, &board);
  FakeSegment seg("s", 2);
  sched.AddSegment(&seg);
  sched.Tick();
  clock.Advance(kSec);
  seg.Work(kSec, 100.0, /*blocked_in=*/0.9);
  sched.Tick();
  // Under-estimated measurement (starved) must not pollute the vector (§4.4).
  EXPECT_FALSE(seg.scalability()->Raw(2).has_value());
  clock.Advance(kSec);
  seg.Work(kSec, 100.0);
  sched.Tick();
  EXPECT_TRUE(seg.scalability()->Raw(seg.parallelism() == 2 ? 2 : 3).has_value() ||
              seg.scalability()->Raw(2).has_value());
}

TEST(DynamicSchedulerTest, InactiveSegmentIgnored) {
  FakeClock clock;
  GlobalThroughputBoard board;
  DynamicScheduler sched(0, TestOptions(8), &clock, &board);
  FakeSegment seg("s", 2);
  seg.active_ = false;
  sched.AddSegment(&seg);
  sched.Tick();
  clock.Advance(kSec);
  sched.Tick();
  ASSERT_NE(sched.LastAudit(), nullptr);
  EXPECT_TRUE(sched.LastAudit()->segments.empty());
  EXPECT_EQ(sched.cores_in_use(), 0);
}

TEST(DynamicSchedulerTest, RespectsCoreBudget) {
  FakeClock clock;
  GlobalThroughputBoard board;
  DynamicScheduler sched(0, TestOptions(4), &clock, &board);
  FakeSegment seg("s", 4);  // already uses every core
  sched.AddSegment(&seg);
  sched.Tick();
  clock.Advance(kSec);
  seg.Work(kSec, 1000.0);
  sched.Tick();
  // Only one segment: no pair partner, no free cores → no expansion.
  EXPECT_EQ(seg.parallelism(), 4);
  EXPECT_EQ(ActionOf(sched, "s"), "hold");
}

TEST(DynamicSchedulerTest, NormalizedRateUsesVisitRate) {
  FakeClock clock;
  GlobalThroughputBoard board;
  DynamicScheduler sched(0, TestOptions(8), &clock, &board);
  FakeSegment seg("s", 2);
  seg.stats_.visit_rate.store(0.5);  // half the source tuples reach it
  sched.AddSegment(&seg);
  sched.Tick();
  clock.Advance(kSec);
  seg.Work(kSec, 100.0);
  sched.Tick();
  // R = T / V = 100 / 0.5.
  EXPECT_NEAR(sched.LastAudit()->segments[0].normalized_rate, 200.0, 1.0);
}

TEST(DynamicSchedulerTest, PublishesLocalLambda) {
  FakeClock clock;
  GlobalThroughputBoard board;
  DynamicScheduler sched0(0, TestOptions(8), &clock, &board);
  DynamicScheduler sched1(1, TestOptions(8), &clock, &board);
  FakeSegment a("a", 2);
  FakeSegment b("b", 2);
  sched0.AddSegment(&a);
  sched1.AddSegment(&b);
  sched0.Tick();
  sched1.Tick();
  clock.Advance(kSec);
  a.Work(kSec, 300.0);
  b.Work(kSec, 120.0);
  sched0.Tick();
  sched1.Tick();
  // Global λ is node 1's 120 t/s.
  EXPECT_NEAR(board.GlobalLambda(), 120.0, 1.0);
}

TEST(DynamicSchedulerTest, LastSegmentLeavingWithdrawsNodeLambda) {
  FakeClock clock;
  GlobalThroughputBoard board;
  DynamicScheduler busy(0, TestOptions(8), &clock, &board);
  DynamicScheduler done(1, TestOptions(8), &clock, &board);
  FakeSegment a("a", 2);
  FakeSegment b1("b1", 2);
  FakeSegment b2("b2", 2);
  busy.AddSegment(&a);
  done.AddSegment(&b1);
  done.AddSegment(&b2);
  busy.Tick();
  done.Tick();
  clock.Advance(kSec);
  a.Work(kSec, 300.0);
  b1.Work(kSec, 120.0);
  b2.Work(kSec, 150.0);
  busy.Tick();
  done.Tick();
  EXPECT_NEAR(board.GlobalLambda(), 120.0, 1.0);  // node 1 is the bottleneck

  // A node with a segment left keeps its published λ...
  done.RemoveSegment(&b1);
  EXPECT_TRUE(done.has_segments());
  EXPECT_NEAR(board.GlobalLambda(), 120.0, 1.0);
  // ...but once its last segment leaves it no longer pins the global λ.
  done.RemoveSegment(&b2);
  EXPECT_FALSE(done.has_segments());
  EXPECT_NEAR(board.GlobalLambda(), 300.0, 1.0);
}

TEST(DynamicSchedulerTest, LastAuditIsTheLiveViewEvenWithRecordingOff) {
  FakeClock clock;
  GlobalThroughputBoard board;
  DynamicScheduler sched(3, TestOptions(8), &clock, &board);
  ASSERT_FALSE(EventRecorder::Global()->enabled());

  // Before any tick: nothing decided yet.
  EXPECT_EQ(sched.LastAudit(), nullptr);
  EXPECT_EQ(sched.tick_count(), 0);

  FakeSegment seg("probe", 2);
  sched.AddSegment(&seg);
  sched.Tick();  // prime: audited, but no segment has a sample yet
  ASSERT_NE(sched.LastAudit(), nullptr);
  EXPECT_TRUE(sched.LastAudit()->segments.empty());
  EXPECT_EQ(sched.LastAudit()->lambda_global, -1.0);  // no λ published yet
  clock.Advance(kSec);
  seg.Work(kSec, 500.0);
  sched.Tick();

  std::shared_ptr<const SchedTickAudit> last = sched.LastAudit();
  ASSERT_NE(last, nullptr);
  EXPECT_EQ(sched.tick_count(), 2);
  EXPECT_EQ(last->tick, 2);
  EXPECT_EQ(last->node, 3);
  EXPECT_EQ(last->ts_ns, clock.NowNanos());
  EXPECT_NEAR(last->lambda_global, 500.0, 1.0);
  EXPECT_NEAR(last->lambda_local, 500.0, 1.0);
  ASSERT_EQ(last->segments.size(), 1u);
  EXPECT_EQ(last->segments[0].name, "probe");
  EXPECT_NEAR(last->segments[0].rate, 500.0, 1.0);
  EXPECT_GE(last->segments[0].parallelism, 2);
  EXPECT_EQ(sched.cores_in_use(), last->segments[0].parallelism);
}

}  // namespace
}  // namespace claims
