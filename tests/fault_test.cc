// Chaos-plane tests: fault plan parsing and determinism, injector window
// transitions on a manual clock, wire sequencing (duplicate suppression, gap
// detection), fabric retry/fast-fail under injected faults, and the
// end-to-end resilience scenario — a node crash mid-query that the workload
// manager survives by re-dispatching onto the remaining nodes with a
// byte-identical fault event log across runs (docs/FAULTS.md).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/exchange.h"
#include "cluster/executor.h"
#include "fault/injector.h"
#include "ledger_balance_check.h"
#include "mem/query_budget.h"
#include "net/network.h"
#include "wlm/query_service.h"

namespace claims {
namespace {

class ManualClock : public Clock {
 public:
  int64_t NowNanos() const override { return now_; }
  void Advance(int64_t ns) { now_ += ns; }

 private:
  int64_t now_ = 0;
};

int64_t CounterValue(const char* name) {
  return MetricsRegistry::Global()->counter(name)->value();
}

// --- FaultPlan ------------------------------------------------------------------

TEST(FaultPlanTest, SpecToStringRoundTrips) {
  FaultSpec spec;
  spec.kind = FaultKind::kDelayBlock;
  spec.at_ns = 50'000'000;
  spec.duration_ns = 250'000;
  spec.node = 3;
  spec.exchange_id = 7;
  spec.probability = 0.25;
  spec.delay_ns = 1'500'000;
  auto parsed = ParseFaultSpec(spec.ToString());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->kind, FaultKind::kDelayBlock);
  EXPECT_EQ(parsed->at_ns, 50'000'000);
  EXPECT_EQ(parsed->duration_ns, 250'000);
  EXPECT_EQ(parsed->node, 3);
  EXPECT_EQ(parsed->exchange_id, 7);
  EXPECT_DOUBLE_EQ(parsed->probability, 0.25);
  EXPECT_EQ(parsed->delay_ns, 1'500'000);
  // And the rendering is stable: re-rendering the parse reproduces it.
  EXPECT_EQ(parsed->ToString(), spec.ToString());
}

TEST(FaultPlanTest, ParsesPlanWithCommentsAndSeed) {
  auto plan = ParseFaultPlan(
      "# storm for the smoke run\n"
      "seed=99\n"
      "\n"
      "  at=10ms kind=nic node=1 dur=100ms bps=2000000\n"
      "at=30ms kind=crash node=2\n");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->seed, 99u);
  ASSERT_EQ(plan->faults.size(), 2u);
  EXPECT_EQ(plan->faults[0].kind, FaultKind::kDegradeNic);
  EXPECT_EQ(plan->faults[0].bandwidth_bytes_per_sec, 2'000'000);
  EXPECT_EQ(plan->faults[1].kind, FaultKind::kCrashNode);
  EXPECT_EQ(plan->faults[1].node, 2);
  // Plan rendering round-trips too.
  auto again = ParseFaultPlan(plan->ToString());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->ToString(), plan->ToString());
}

TEST(FaultPlanTest, RejectsMalformedSpecs) {
  EXPECT_FALSE(ParseFaultSpec("at=10ms").ok());            // no kind
  EXPECT_FALSE(ParseFaultSpec("kind=warp at=1ms").ok());   // unknown kind
  EXPECT_FALSE(ParseFaultSpec("kind=drop p=1.5").ok());    // p out of range
  EXPECT_FALSE(ParseFaultSpec("kind=drop at=abc").ok());   // bad duration
  EXPECT_FALSE(ParseFaultSpec("kind=straggle factor=0.5").ok());
  EXPECT_FALSE(ParseFaultPlan("kind=drop at=1ms\nbogus line\n").ok());
}

TEST(FaultPlanTest, RandomFaultStormIsSeededAndCrashFree) {
  FaultPlan a = RandomFaultStorm(17, 4, 1'000'000'000);
  FaultPlan b = RandomFaultStorm(17, 4, 1'000'000'000);
  EXPECT_EQ(a.ToString(), b.ToString());
  FaultPlan c = RandomFaultStorm(18, 4, 1'000'000'000);
  EXPECT_NE(a.ToString(), c.ToString());
  ASSERT_GE(a.faults.size(), 4u);
  for (const FaultSpec& spec : a.faults) {
    EXPECT_NE(spec.kind, FaultKind::kCrashNode);
    EXPECT_NE(spec.kind, FaultKind::kDisconnect);
    EXPECT_GE(spec.at_ns, 0);
    EXPECT_LE(spec.at_ns, 750'000'000);
    EXPECT_GT(spec.duration_ns, 0);
  }
}

// --- FaultInjector --------------------------------------------------------------

TEST(FaultInjectorTest, WindowOpensAndClosesOnManualClock) {
  auto plan = ParseFaultPlan("at=10ms kind=drop dur=20ms p=1\n");
  ASSERT_TRUE(plan.ok());
  ManualClock clock;
  FaultInjector injector(*plan, &clock);
  injector.ArmManual();

  EXPECT_EQ(injector.PollOnce(), 0);
  EXPECT_EQ(injector.OnSend(0, 0, 1).fate, SendDecision::Fate::kDeliver);
  EXPECT_TRUE(injector.DescribeActiveFaults().empty());

  clock.Advance(15'000'000);  // t = 15 ms: inside the window
  EXPECT_EQ(injector.PollOnce(), 1);
  EXPECT_EQ(injector.OnSend(0, 0, 1).fate, SendDecision::Fate::kDrop);
  EXPECT_NE(injector.DescribeActiveFaults().find("kind=drop"),
            std::string::npos);

  clock.Advance(20'000'000);  // t = 35 ms: window closed
  EXPECT_EQ(injector.PollOnce(), 1);
  EXPECT_EQ(injector.OnSend(0, 0, 1).fate, SendDecision::Fate::kDeliver);
  EXPECT_TRUE(injector.DescribeActiveFaults().empty());
}

TEST(FaultInjectorTest, EventLogIsByteIdenticalAcrossPollCadences) {
  // Two overlapping windows; one injector polls every millisecond, the other
  // exactly once after everything already happened. The canonical log must
  // not depend on that.
  const char* kPlan =
      "at=10ms kind=drop dur=100ms p=0.5\n"
      "at=30ms kind=delay dur=20ms delay=1ms\n";
  auto plan = ParseFaultPlan(kPlan);
  ASSERT_TRUE(plan.ok());

  ManualClock fast_clock;
  FaultInjector fast(*plan, &fast_clock);
  fast.ArmManual();
  for (int i = 0; i < 150; ++i) {
    fast_clock.Advance(1'000'000);
    fast.PollOnce();
  }

  ManualClock slow_clock;
  FaultInjector slow(*plan, &slow_clock);
  slow.ArmManual();
  slow_clock.Advance(150'000'000);
  slow.PollOnce();

  EXPECT_FALSE(fast.EventLogText().empty());
  EXPECT_EQ(fast.EventLogText(), slow.EventLogText());
  // 2 activations + 2 restores.
  EXPECT_EQ(fast.Events().size(), 4u);
}

TEST(FaultInjectorTest, CrashFaultFiresHandlerOnce) {
  auto plan = ParseFaultPlan("at=5ms kind=crash node=2\n");
  ASSERT_TRUE(plan.ok());
  ManualClock clock;
  FaultInjector injector(*plan, &clock);
  std::vector<int> killed;
  injector.SetCrashHandler([&](int node) { killed.push_back(node); });
  injector.ArmManual();

  clock.Advance(10'000'000);
  EXPECT_EQ(injector.PollOnce(), 1);
  EXPECT_EQ(injector.PollOnce(), 0);  // one-shot
  ASSERT_EQ(killed, (std::vector<int>{2}));
  EXPECT_TRUE(injector.NodeDead(2));
  EXPECT_FALSE(injector.NodeDead(1));
}

TEST(FaultInjectorTest, NicDegradeActuatesAndRestores) {
  auto plan = ParseFaultPlan("at=5ms kind=nic node=1 dur=10ms bps=2000000\n");
  ASSERT_TRUE(plan.ok());
  ManualClock clock;
  FaultInjector injector(*plan, &clock);
  std::vector<std::pair<int, int64_t>> rewrites;
  injector.SetNicRewriter(
      [&](int node, int64_t bps) { rewrites.emplace_back(node, bps); });
  injector.ArmManual();

  clock.Advance(6'000'000);
  injector.PollOnce();
  clock.Advance(10'000'000);
  injector.PollOnce();
  ASSERT_EQ(rewrites.size(), 2u);
  EXPECT_EQ(rewrites[0], std::make_pair(1, int64_t{2'000'000}));
  EXPECT_EQ(rewrites[1], std::make_pair(1, int64_t{-1}));  // restore
}

TEST(FaultPlanTest, MemPressureSpecRoundTrips) {
  auto parsed = ParseFaultSpec("at=20ms kind=mempressure dur=50ms bytes=1048576");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->kind, FaultKind::kMemPressure);
  EXPECT_EQ(parsed->at_ns, 20'000'000);
  EXPECT_EQ(parsed->duration_ns, 50'000'000);
  EXPECT_EQ(parsed->mem_cap_bytes, 1'048'576);
  EXPECT_EQ(parsed->ToString(),
            ParseFaultSpec(parsed->ToString())->ToString());
  EXPECT_FALSE(ParseFaultSpec("kind=mempressure bytes=0").ok());
  EXPECT_FALSE(ParseFaultSpec("kind=mempressure bytes=-5").ok());
}

TEST(FaultInjectorTest, MemPressureActuatesCapAndRestores) {
  auto plan = ParseFaultPlan("at=5ms kind=mempressure dur=10ms bytes=65536\n");
  ASSERT_TRUE(plan.ok());
  ManualClock clock;
  FaultInjector injector(*plan, &clock);
  std::vector<int64_t> caps;
  injector.SetMemPressureHandler([&](int64_t cap) { caps.push_back(cap); });
  injector.ArmManual();

  EXPECT_EQ(injector.PollOnce(), 0);
  clock.Advance(6'000'000);
  EXPECT_EQ(injector.PollOnce(), 1);
  EXPECT_NE(injector.DescribeActiveFaults().find("kind=mempressure"),
            std::string::npos);
  clock.Advance(10'000'000);
  EXPECT_EQ(injector.PollOnce(), 1);
  ASSERT_EQ(caps, (std::vector<int64_t>{65'536, -1}));  // squeeze, restore
  EXPECT_TRUE(injector.DescribeActiveFaults().empty());
}

TEST(FaultInjectorTest, MemPressureDefaultHandlerCapsTheLedgers) {
  auto plan = ParseFaultPlan(
      "at=1ms kind=mempressure dur=5ms bytes=131072\n");
  ASSERT_TRUE(plan.ok());
  ManualClock clock;
  FaultInjector injector(*plan, &clock);  // default handler: ledger cap
  injector.ArmManual();

  clock.Advance(2'000'000);
  injector.PollOnce();
  EXPECT_EQ(QueryBudget::process_cap_bytes(), 131'072);
  {
    // The squeeze binds a bounded ledger, never an unbounded one.
    QueryBudget bounded(1 << 20);
    QueryBudget unbounded(/*budget_bytes=*/0);
    EXPECT_TRUE(bounded.TryCharge(100'000));
    EXPECT_FALSE(bounded.TryCharge(100'000));
    EXPECT_TRUE(unbounded.TryCharge(100'000));
    bounded.Release(bounded.charged_bytes());
    unbounded.Release(unbounded.charged_bytes());
  }
  clock.Advance(5'000'000);
  injector.PollOnce();
  EXPECT_EQ(QueryBudget::process_cap_bytes(), 0);  // uncapped
}

TEST(FaultInjectorTest, ProbabilisticDrawsAreSeedDeterministic) {
  auto plan = ParseFaultPlan("seed=123\nat=0ns kind=drop dur=1s p=0.5\n");
  ASSERT_TRUE(plan.ok());
  auto fates = [&] {
    ManualClock clock;
    FaultInjector injector(*plan, &clock);
    injector.ArmManual();
    clock.Advance(1'000'000);
    injector.PollOnce();
    std::string out;
    for (int i = 0; i < 64; ++i) {
      out += injector.OnSend(0, 0, 1).fate == SendDecision::Fate::kDrop
                 ? 'D'
                 : '.';
    }
    return out;
  };
  std::string a = fates();
  std::string b = fates();
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find('D'), std::string::npos);
  EXPECT_NE(a.find('.'), std::string::npos);
}

// --- TokenBucket rate rewrite ---------------------------------------------------

TEST(TokenBucketFaultTest, SetBytesPerSecDegradesAndRestores) {
  TokenBucket bucket(0);  // healthy: unthrottled
  EXPECT_FALSE(bucket.throttled());
  EXPECT_EQ(bucket.Acquire(1 << 30), 0);

  // Chaos plane degrades the NIC to 10 MB/s mid-run: past the burst
  // allowance, a 2 MB transfer needs real waiting (same arithmetic as
  // TokenBucketTest.ThrottleDelaysLargeTransfers).
  bucket.SetBytesPerSec(10'000'000);
  EXPECT_TRUE(bucket.throttled());
  bucket.Acquire(1 << 20);  // eat the burst allowance
  int64_t t0 = SteadyClock::Default()->NowNanos();
  EXPECT_GT(bucket.Acquire(2'000'000), 0);
  EXPECT_GT(SteadyClock::Default()->NowNanos() - t0, 80'000'000);

  // Window closes: restored to unthrottled, large transfers free again.
  bucket.SetBytesPerSec(0);
  EXPECT_FALSE(bucket.throttled());
  EXPECT_EQ(bucket.Acquire(1 << 30), 0);
}

// --- wire sequencing ------------------------------------------------------------

BlockPtr RowBlock(int rows = 1) {
  auto b = MakeBlock(8, 8 * rows);
  for (int i = 0; i < rows; ++i) b->AppendRow();
  return b;
}

TEST(ChannelSequencingTest, DuplicateDeliveriesAreSuppressed) {
  BlockChannel channel(1, 8);
  uint64_t seq = 99;
  ASSERT_TRUE(channel.Send({RowBlock(), 0}, nullptr, &seq));
  EXPECT_EQ(seq, 0u);
  ASSERT_TRUE(channel.SendDuplicate({RowBlock(), 0, seq}));

  NetBlock nb;
  ASSERT_EQ(channel.Receive(&nb, 1'000'000), ChannelStatus::kOk);
  EXPECT_EQ(nb.wire_seq, 0u);
  // The second copy is consumed and dropped, never surfaced.
  EXPECT_EQ(channel.Receive(&nb, 0), ChannelStatus::kTimeout);
  EXPECT_EQ(channel.duplicates_suppressed(), 1);
  EXPECT_EQ(channel.sequence_gaps(), 0);

  // The next regular send continues the sequence.
  ASSERT_TRUE(channel.Send({RowBlock(), 0}, nullptr, &seq));
  EXPECT_EQ(seq, 1u);
  ASSERT_EQ(channel.Receive(&nb, 1'000'000), ChannelStatus::kOk);
  EXPECT_EQ(nb.wire_seq, 1u);
}

TEST(ChannelSequencingTest, SequencesArePerProducer) {
  BlockChannel channel(2, 8);
  uint64_t seq = 0;
  ASSERT_TRUE(channel.Send({RowBlock(), 0}, nullptr, &seq));
  EXPECT_EQ(seq, 0u);
  ASSERT_TRUE(channel.Send({RowBlock(), 1}, nullptr, &seq));
  EXPECT_EQ(seq, 0u);  // producer 1's own stream
  ASSERT_TRUE(channel.Send({RowBlock(), 0}, nullptr, &seq));
  EXPECT_EQ(seq, 1u);
}

TEST(ChannelSequencingTest, GapsAreCounted) {
  BlockChannel channel(1, 8);
  // A block arriving with seq 3 when 0 was expected means 3 deliveries were
  // lost for good (send-side retries exhausted).
  ASSERT_TRUE(channel.SendDuplicate({RowBlock(), 0, 3}));
  NetBlock nb;
  ASSERT_EQ(channel.Receive(&nb, 1'000'000), ChannelStatus::kOk);
  EXPECT_EQ(channel.sequence_gaps(), 3);
}

TEST(ChannelSequencingTest, NonBlockingPollReturnsImmediately) {
  // Regression for the documented timeout_ns <= 0 contract: a poll on a
  // quiet channel must return kTimeout without waiting.
  BlockChannel channel(1, 8);
  NetBlock nb;
  int64_t t0 = SteadyClock::Default()->NowNanos();
  EXPECT_EQ(channel.Receive(&nb, 0), ChannelStatus::kTimeout);
  EXPECT_EQ(channel.Receive(&nb, -5), ChannelStatus::kTimeout);
  EXPECT_LT(SteadyClock::Default()->NowNanos() - t0, 50'000'000);

  // Decidable states still surface without a wait.
  ASSERT_TRUE(channel.Send({RowBlock(), 0}));
  EXPECT_EQ(channel.Receive(&nb, 0), ChannelStatus::kOk);
  channel.CloseProducer();
  EXPECT_EQ(channel.Receive(&nb, 0), ChannelStatus::kClosed);
}

// --- fabric retry / fast-fail ---------------------------------------------------

NetworkOptions FastRetryOptions() {
  NetworkOptions opts;
  opts.capacity_blocks = 8;
  opts.max_send_attempts = 3;
  opts.retry_backoff_ns = 50'000;
  return opts;
}

TEST(NetworkFaultTest, SendToDeadNodeFailsFast) {
  Network net(2, FastRetryOptions());
  net.CreateExchange(1, 1, {0, 1});
  net.SetNodeDead(1);
  EXPECT_FALSE(net.NodeAlive(1));
  EXPECT_TRUE(net.NodeAlive(0));
  int64_t failures_before = CounterValue("net.send_failures");
  EXPECT_EQ(net.SendRoute({1, 0, 0, 1, 1}, RowBlock(), 1.0),
            SendOutcome::kUnavailable);
  EXPECT_EQ(CounterValue("net.send_failures"), failures_before + 1);
  // The other node keeps working.
  EXPECT_EQ(net.SendRoute({1, 0, 0, 0, 0}, RowBlock(), 1.0),
            SendOutcome::kOk);
}

TEST(NetworkFaultTest, DisconnectExhaustsRetriesThenFails) {
  auto plan = ParseFaultPlan("at=0ns kind=disconnect exchange=1\n");
  ASSERT_TRUE(plan.ok());
  ManualClock clock;
  FaultInjector injector(*plan, &clock);
  injector.ArmManual();
  clock.Advance(1);
  injector.PollOnce();

  Network net(2, FastRetryOptions());
  net.SetFaultInjector(&injector);
  net.CreateExchange(1, 1, {0, 1});
  int64_t retries_before = CounterValue("net.retries");
  int64_t dropped_before = CounterValue("net.dropped:n0");
  EXPECT_EQ(net.SendRoute({1, 0, 0, 1, 1}, RowBlock(), 1.0),
            SendOutcome::kUnavailable);
  // 3 attempts: 2 retries after the first drop, then exhaustion.
  EXPECT_EQ(CounterValue("net.retries"), retries_before + 2);
  EXPECT_EQ(CounterValue("net.dropped:n0"), dropped_before + 3);
  EXPECT_EQ(net.GetChannel(1, 1)->size(), 0u);
  net.SetFaultInjector(nullptr);
}

TEST(NetworkFaultTest, RetriesRecoverOnceTheWindowCloses) {
  auto plan = ParseFaultPlan("at=0ns kind=drop dur=1s p=0.6\n");
  ASSERT_TRUE(plan.ok());
  ManualClock clock;
  FaultInjector injector(*plan, &clock);
  injector.ArmManual();
  clock.Advance(1);
  injector.PollOnce();

  NetworkOptions opts = FastRetryOptions();
  // p=0.6: the chance of 64 consecutive drops is ~1e-14, so every send lands
  // eventually; gentle backoff keeps the worst-case streak cheap.
  opts.max_send_attempts = 64;
  opts.retry_backoff_ns = 10'000;
  opts.retry_backoff_multiplier = 1.5;
  Network net(2, opts);
  net.SetFaultInjector(&injector);
  net.CreateExchange(1, 1, {0, 1});
  int64_t sent_before = CounterValue("net.sent:n0");
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(net.SendRoute({1, 0, 0, 1, 1}, RowBlock(), 1.0),
              SendOutcome::kOk);
  }
  EXPECT_EQ(net.GetChannel(1, 1)->size(), 8u);
  EXPECT_EQ(CounterValue("net.sent:n0"), sent_before + 8);
  EXPECT_GT(CounterValue("fault.drops"), 0);
  net.SetFaultInjector(nullptr);
}

TEST(NetworkFaultTest, DuplicatedDeliveryIsSuppressedAtReceive) {
  auto plan = ParseFaultPlan("at=0ns kind=dup p=1\n");
  ASSERT_TRUE(plan.ok());
  ManualClock clock;
  FaultInjector injector(*plan, &clock);
  injector.ArmManual();
  clock.Advance(1);
  injector.PollOnce();

  Network net(2, FastRetryOptions());
  net.SetFaultInjector(&injector);
  net.CreateExchange(1, 1, {0, 1});
  EXPECT_EQ(net.SendRoute({1, 0, 0, 1, 1}, RowBlock(), 0.5),
            SendOutcome::kOk);
  BlockChannel* ch = net.GetChannel(1, 1);
  EXPECT_EQ(ch->size(), 2u);  // both copies queued, same wire sequence
  NetBlock nb;
  ASSERT_EQ(ch->Receive(&nb, 1'000'000), ChannelStatus::kOk);
  EXPECT_EQ(nb.visit_rate, 0.5);  // the tail rides the envelope
  EXPECT_EQ(ch->Receive(&nb, 0), ChannelStatus::kTimeout);
  EXPECT_EQ(ch->duplicates_suppressed(), 1);
  net.SetFaultInjector(nullptr);
}

/// Replays fixed blocks in order: one producer segment's output.
class ReplaySource : public Iterator {
 public:
  explicit ReplaySource(std::vector<BlockPtr> blocks)
      : blocks_(std::move(blocks)) {}
  NextResult Open(WorkerContext*) override { return NextResult::kSuccess; }
  NextResult Next(WorkerContext*, BlockPtr* out) override {
    if (next_ >= blocks_.size()) return NextResult::kEndOfFile;
    *out = blocks_[next_++];
    return NextResult::kSuccess;
  }
  void Close() override {}

 private:
  std::vector<BlockPtr> blocks_;
  size_t next_ = 0;
};

/// Shuffles 40 000 (k, v) rows from node 0 to nodes {0, 1} under `plan`
/// (none: fault-free) and returns each node's rows, sorted, and the bytes
/// the sender counted as crossing hosts. One sender draws every fate from
/// the plan's seed, so a plan's faults are the same on every run.
std::pair<std::vector<std::string>, int64_t> ShuffleUnder(
    const FaultPlan* plan) {
  const Schema s({ColumnDef::Int32("k"), ColumnDef::Int64("v")});
  std::vector<BlockPtr> blocks;
  for (int i = 0; i < 40000;) {
    auto b = MakeBlock(s.row_size());
    for (; !b->full() && i < 40000; ++i) {
      char* row = b->AppendRow();
      s.SetInt32(row, 0, i % 700);
      s.SetInt64(row, 1, i);
    }
    blocks.push_back(std::move(b));
  }
  NetworkOptions opts = FastRetryOptions();
  opts.max_send_attempts = 40;
  opts.retry_backoff_ns = 1'000;
  opts.retry_backoff_multiplier = 1.0;
  Network net(2, opts);
  ManualClock clock;
  std::unique_ptr<FaultInjector> injector;
  if (plan != nullptr) {
    injector = std::make_unique<FaultInjector>(*plan, &clock);
    injector->ArmManual();
    clock.Advance(1);
    injector->PollOnce();
    net.SetFaultInjector(injector.get());
  }
  net.CreateExchange(1, 1, {0, 1}, /*capacity_override=*/-1);
  SegmentStats stats;
  SenderPump::Spec spec;
  spec.exchange_id = 1;
  spec.partitioning = Partitioning::kHash;
  spec.hash_cols = {0};
  spec.consumer_nodes = {0, 1};
  spec.schema = &s;
  spec.network = &net;
  spec.stats = &stats;
  SenderPump pump(spec);
  ReplaySource source(blocks);
  WorkerContext ctx;
  EXPECT_TRUE(pump.Pump(&source, &ctx, nullptr));
  net.SetFaultInjector(nullptr);
  std::vector<std::string> rows;
  for (int node : {0, 1}) {
    SegmentStats merged;
    MergerIterator merger(net.GetChannel(1, node), &merged, nullptr);
    EXPECT_EQ(merger.Open(&ctx), NextResult::kSuccess);
    BlockPtr b;
    while (merger.Next(&ctx, &b) == NextResult::kSuccess) {
      for (int r = 0; r < b->num_rows(); ++r) {
        rows.push_back(std::to_string(node) + ":" +
                       std::string(b->RowAt(r), b->row_size()));
      }
    }
    merger.Close();
  }
  std::sort(rows.begin(), rows.end());
  return {rows, stats.remote_bytes.load()};
}

TEST(NetworkFaultTest, DroppedAndDuplicatedFramesKeepTheRows) {
  // The shuffle's blocks for node 1 cross as frames. A retry after a drop
  // re-sends the same frame, and a duplicate queues it twice under one
  // wire sequence: each node gets the fault-free run's rows, and the
  // sender counts the same bytes.
  const auto [want, want_bytes] = ShuffleUnder(nullptr);
  ASSERT_EQ(want.size(), 40000u);
  EXPECT_LT(2 * want_bytes, 40000 * 12 / 2);  // 2-byte k, 2-byte v deltas
  auto plan = ParseFaultPlan(
      "seed=5\n"
      "at=0ns kind=drop dur=1s p=0.3\n"
      "at=0ns kind=dup dur=1s p=0.3\n");
  ASSERT_TRUE(plan.ok());
  const int64_t drops = CounterValue("fault.drops");
  const int64_t dups = CounterValue("fault.duplicates");
  const auto [got, got_bytes] = ShuffleUnder(&*plan);
  EXPECT_GT(CounterValue("fault.drops"), drops);
  EXPECT_GT(CounterValue("fault.duplicates"), dups);
  EXPECT_EQ(got, want);
  EXPECT_EQ(got_bytes, want_bytes);
}

// --- cluster resilience scenarios -----------------------------------------------

ExprPtr Col(const Schema& s, const char* name) {
  int i = s.FindColumn(name);
  EXPECT_GE(i, 0) << name;
  return MakeColumnRef(i, s.column(i).type, name);
}

constexpr int kNodes = 3;

/// Fresh catalog + cluster per test: node death is permanent for a cluster's
/// lifetime, so kill tests must not share one with anything else.
///
/// Two copies of the same kv data, partitioned differently:
///   kva — round-robin (the repartition/build side);
///   kvb — hash-partitioned on k (the probe side). The table partitioner and
///         the exchange route by the one key hash (HashKeys, PartitionOf), so
///         after repartitioning kva on k, key k's build rows land exactly on
///         the node holding kvb's k rows — every key joins, making the join
///         result deterministic: (rows/300)² matches per key.
struct TestCluster {
  explicit TestCluster(
      int rows = 24000,
      int channel_capacity_blocks = ClusterOptions().channel_capacity_blocks)
      : rows_per_key(rows / 300) {
    {
      Schema s({ColumnDef::Int32("k"), ColumnDef::Int64("v")});
      auto t = std::make_shared<Table>("kva", s, kNodes, std::vector<int>{});
      for (int i = 0; i < rows; ++i) {
        t->AppendValues({Value::Int32(i % 300), Value::Int64(i)});
      }
      EXPECT_TRUE(catalog.RegisterTable(std::move(t)).ok());
    }
    {
      Schema s({ColumnDef::Int32("k"), ColumnDef::Int64("w")});
      auto t = std::make_shared<Table>("kvb", s, kNodes, std::vector<int>{0});
      for (int i = 0; i < rows; ++i) {
        t->AppendValues({Value::Int32(i % 300), Value::Int64(i)});
      }
      EXPECT_TRUE(catalog.RegisterTable(std::move(t)).ok());
    }
    ClusterOptions copts;
    copts.num_nodes = kNodes;
    copts.cores_per_node = 4;
    copts.channel_capacity_blocks = channel_capacity_blocks;
    cluster = std::make_unique<Cluster>(copts, &catalog);
  }

  /// Milliseconds-fast: scan kva → filter(k < 100) → gather to master.
  PhysicalPlan GatherPlan() {
    TablePtr kva = *catalog.GetTable("kva");
    PhysicalPlan plan;
    auto f = std::make_unique<Fragment>();
    f->id = 0;
    f->root = MakeFilterOp(
        MakeScanOp(*kva), MakeCompare(CompareOp::kLt, Col(kva->schema(), "k"),
                                      MakeLiteral(Value::Int32(100))));
    f->nodes = {0, 1, 2};
    f->out_exchange_id = 0;
    f->partitioning = Partitioning::kToOne;
    f->consumer_nodes = {0};
    plan.result_schema = f->root->output_schema;
    plan.result_exchange_id = 0;
    plan.fragments.push_back(std::move(f));
    return plan;
  }

  /// Hundreds-of-milliseconds slow: repartition kva on k (build), join
  /// against the co-partitioned kvb scan (probe), count per key. With the
  /// default 24000 rows: 80 × 80 = 6400 join rows per key, 1.92M total.
  PhysicalPlan SlowPlan() {
    TablePtr kva = *catalog.GetTable("kva");
    TablePtr kvb = *catalog.GetTable("kvb");
    PhysicalPlan plan;
    auto f0 = std::make_unique<Fragment>();
    f0->id = 0;
    f0->root = MakeScanOp(*kva);
    f0->nodes = {0, 1, 2};
    f0->out_exchange_id = 0;
    f0->partitioning = Partitioning::kHash;
    f0->hash_cols = {0};
    f0->consumer_nodes = {0, 1, 2};

    auto f1 = std::make_unique<Fragment>();
    f1->id = 1;
    auto merger = MakeMergerOp(0, f0->root->output_schema);
    auto join = MakeHashJoinOp(std::move(merger), MakeScanOp(*kvb),
                               /*build_keys=*/{0}, /*probe_keys=*/{0});
    const Schema join_schema = join->output_schema;
    f1->root = MakeHashAggOp(std::move(join), {Col(join_schema, "k")}, {"k"},
                             {{AggFn::kCount, nullptr, "cnt"}},
                             HashAggIterator::Mode::kShared);
    f1->nodes = {0, 1, 2};
    f1->out_exchange_id = 1;
    f1->partitioning = Partitioning::kToOne;
    f1->consumer_nodes = {0};

    plan.result_schema = f1->root->output_schema;
    plan.result_exchange_id = 1;
    plan.fragments.push_back(std::move(f0));
    plan.fragments.push_back(std::move(f1));
    return plan;
  }

  /// Scan kva, shuffle it on k (exchange 0), and gather the shuffled rows
  /// untouched to the master (exchange 1).
  PhysicalPlan ShuffleGatherPlan() {
    TablePtr kva = *catalog.GetTable("kva");
    PhysicalPlan plan;
    auto f0 = std::make_unique<Fragment>();
    f0->id = 0;
    f0->root = MakeScanOp(*kva);
    f0->nodes = {0, 1, 2};
    f0->out_exchange_id = 0;
    f0->partitioning = Partitioning::kHash;
    f0->hash_cols = {0};
    f0->consumer_nodes = {0, 1, 2};

    auto f1 = std::make_unique<Fragment>();
    f1->id = 1;
    f1->root = MakeMergerOp(0, f0->root->output_schema);
    f1->nodes = {0, 1, 2};
    f1->out_exchange_id = 1;
    f1->partitioning = Partitioning::kToOne;
    f1->consumer_nodes = {0};

    plan.result_schema = f1->root->output_schema;
    plan.result_exchange_id = 1;
    plan.fragments.push_back(std::move(f0));
    plan.fragments.push_back(std::move(f1));
    return plan;
  }

  int64_t SlowPlanCountPerKey() const {
    return static_cast<int64_t>(rows_per_key) * rows_per_key;
  }

  int rows_per_key;
  Catalog catalog;
  std::unique_ptr<Cluster> cluster;
};

TEST(ClusterFaultTest, KillingTheMasterIsRejected) {
  TestCluster tc(300);
  tc.cluster->KillNode(0);
  tc.cluster->KillNode(99);  // out of range, also ignored
  EXPECT_TRUE(tc.cluster->NodeAlive(0));
  EXPECT_EQ(tc.cluster->AliveNodes(), (std::vector<int>{0, 1, 2}));
}

TEST(ClusterFaultTest, DeathListenersFireOncePerNode) {
  TestCluster tc(300);
  std::vector<int> deaths;
  int token = tc.cluster->AddNodeDeathListener(
      [&](int node) { deaths.push_back(node); });
  tc.cluster->KillNode(2);
  tc.cluster->KillNode(2);  // idempotent
  EXPECT_EQ(deaths, (std::vector<int>{2}));
  EXPECT_FALSE(tc.cluster->NodeAlive(2));
  EXPECT_EQ(tc.cluster->AliveNodes(), (std::vector<int>{0, 1}));
  EXPECT_FALSE(tc.cluster->network()->NodeAlive(2));
  tc.cluster->RemoveNodeDeathListener(token);
  // Node 1 dies after removal: no further callbacks.
  tc.cluster->KillNode(1);
  EXPECT_EQ(deaths.size(), 1u);
}

TEST(ClusterFaultTest, ExecutorPlacesAroundAnAlreadyDeadNode) {
  TestCluster tc;
  tc.cluster->KillNode(2);
  Executor exec(tc.cluster.get());
  ExecOptions opts;
  opts.parallelism = 1;
  auto result = exec.Execute(tc.GatherPlan(), opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // k in [0,100) of i%300 over 24000 rows → 8000 rows, wherever node 2's
  // partition was re-hosted.
  EXPECT_EQ(result->num_rows(), 8000);
  for (const SegmentReport& seg : exec.report().segments) {
    EXPECT_NE(seg.node_id, 2) << seg.name;
  }
}

TEST(ClusterFaultTest, OnlyMasterSurvivingStillExecutes) {
  TestCluster tc(300);
  tc.cluster->KillNode(1);
  tc.cluster->KillNode(2);
  // Graceful degradation's floor: every logical node re-hosts onto node 0.
  Executor exec(tc.cluster.get());
  ExecOptions opts;
  opts.parallelism = 1;
  auto result = exec.Execute(tc.GatherPlan(), opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->num_rows(), 100);  // 300 rows, k = i%300 < 100
}

TEST(ClusterFaultTest, StarvationAccountingUnderInjectedSlowSender) {
  // A delay window on the repartition exchange stalls every producer send;
  // the consumer segment's merger starves and its blocked-input time has to
  // say so — the signal the dynamic scheduler reads as "do not expand here".
  TestCluster tc;
  auto plan = ParseFaultPlan("at=0ns kind=delay exchange=0 delay=10ms p=1\n");
  ASSERT_TRUE(plan.ok());
  FaultInjector injector(*plan);
  tc.cluster->AttachFaultInjector(&injector);
  injector.Arm();

  Executor exec(tc.cluster.get());
  ExecOptions opts;
  opts.parallelism = 1;
  auto result = exec.Execute(tc.SlowPlan(), opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->num_rows(), 300);

  int64_t consumer_blocked = 0;
  for (const SegmentReport& seg : exec.report().segments) {
    if (seg.name.rfind("S1", 0) == 0) consumer_blocked += seg.blocked_input_ns;
  }
  EXPECT_GT(consumer_blocked, 5'000'000) << "merger never starved";
  EXPECT_GT(CounterValue("fault.delays"), 0);

  injector.Disarm();
  tc.cluster->AttachFaultInjector(nullptr);
}

TEST(ClusterFaultTest, FailedConsumerCancelsTheProducersFeedingIt) {
  // The gather link is severed, so every consumer segment's send to the
  // master exhausts its retries and the segment fails, no longer draining
  // the shuffle. Its producers sit on one-block channels: unless the failure
  // cancels them, Execute waits on them forever.
  TestCluster tc(240000, /*channel_capacity_blocks=*/1);
  auto plan = ParseFaultPlan("at=0ns kind=disconnect exchange=1\n");
  ASSERT_TRUE(plan.ok());
  FaultInjector injector(*plan);
  tc.cluster->AttachFaultInjector(&injector);
  injector.Arm();

  ExecOptions opts;
  opts.parallelism = 1;
  opts.buffer_capacity_blocks = 1;
  const PhysicalPlan shuffle = tc.ShuffleGatherPlan();
  {
    Executor exec(tc.cluster.get());
    std::promise<Status> finished;
    std::future<Status> status = finished.get_future();
    std::thread runner(
        [&] { finished.set_value(exec.Execute(shuffle, opts).status()); });
    const bool returned = status.wait_for(std::chrono::seconds(10)) ==
                          std::future_status::ready;
    // A hang must fail the test, not the suite: cancelling unblocks it.
    if (!returned) exec.Cancel();
    runner.join();
    ASSERT_TRUE(returned) << "Execute had not returned after 10 s";
    const Status s = status.get();
    EXPECT_EQ(s.code(), StatusCode::kUnavailable) << s.ToString();
    // Channels, buffers and arenas the failure left behind are refunded as
    // soon as Execute returns, while the executor still holds its segments.
    EXPECT_EQ(QueryBudget::TotalChargedBytes(), 0);
    EXPECT_GT(exec.report().elapsed_ns, 0);  // failed runs are timed too
  }
  EXPECT_EQ(QueryBudget::TotalChargedBytes(), 0);

  injector.Disarm();
  tc.cluster->AttachFaultInjector(nullptr);
}

/// One full chaos scenario run: NIC degrade on node 1 plus a scripted crash
/// of node 2 while a retried query is mid-stream. Returns the canonical
/// fault event log; the query must complete correctly via re-dispatch.
std::string RunCrashScenario() {
  const char* kScenario =
      "seed=11\n"
      "at=10ms kind=nic node=1 dur=120ms bps=4000000\n"
      "at=30ms kind=crash node=2\n";
  auto plan = ParseFaultPlan(kScenario);
  EXPECT_TRUE(plan.ok());

  TestCluster tc;
  FaultInjector injector(*plan);
  tc.cluster->AttachFaultInjector(&injector);

  QueryServiceOptions sopts;
  sopts.admission.max_concurrent = 2;
  QueryService service(tc.cluster.get(), sopts);

  SubmitOptions sub;
  sub.label = "chaos";
  sub.exec.parallelism = 1;
  sub.exec.buffer_capacity_blocks = 2;
  sub.retry.max_attempts = 4;
  sub.retry.initial_backoff_ns = 5'000'000;

  injector.Arm();
  QueryHandlePtr handle = service.Submit(tc.SlowPlan(), sub);
  EXPECT_TRUE(handle->WaitFor(60'000'000'000LL)) << "query hung under chaos";
  EXPECT_TRUE(handle->status().ok()) << handle->status().ToString();
  if (handle->status().ok()) {
    EXPECT_EQ(handle->result().num_rows(), 300);
    auto rows = handle->result().Rows(/*sorted=*/true);
    for (int k = 0; k < 300; ++k) {
      EXPECT_EQ(rows[k][0].AsInt64(), k);
      EXPECT_EQ(rows[k][1].AsInt64(), tc.SlowPlanCountPerKey());
    }
    // The re-dispatched attempt must have avoided the dead node.
    for (const SegmentReport& seg : handle->report().segments) {
      EXPECT_NE(seg.node_id, 2) << seg.name;
    }
  }
  EXPECT_FALSE(tc.cluster->NodeAlive(2));

  // Let every window pass its planned horizon so both runs log the full
  // schedule, then freeze the injector.
  while (injector.ElapsedNanos() < 140'000'000) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  injector.PollOnce();
  service.Shutdown();
  injector.Disarm();
  tc.cluster->AttachFaultInjector(nullptr);
  return injector.EventLogText();
}

TEST(ClusterFaultTest, CrashMidQueryRedispatchesWithDeterministicLog) {
  int64_t retries_before = CounterValue("wlm.retries");
  std::string first = RunCrashScenario();
  std::string second = RunCrashScenario();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second) << "fault event log not reproducible";
  // 3 lines: nic activate, crash, nic restore — at their *planned* times.
  EXPECT_NE(first.find("ACTIVATE at=10ms kind=nic"), std::string::npos);
  EXPECT_NE(first.find("kind=crash node=2"), std::string::npos);
  EXPECT_NE(first.find("RESTORE at=10ms kind=nic"), std::string::npos);
  // Both runs crashed a node mid-query; each needed at least one re-dispatch.
  EXPECT_GE(CounterValue("wlm.retries"), retries_before + 2);
}

TEST(WlmFaultTest, RetryPolicySurvivesNodeLossAndReportsRetrying) {
  TestCluster tc;
  QueryServiceOptions sopts;
  sopts.admission.max_concurrent = 2;
  QueryService service(tc.cluster.get(), sopts);

  SubmitOptions sub;
  sub.label = "retry";
  sub.exec.parallelism = 1;
  sub.exec.buffer_capacity_blocks = 2;
  sub.retry.max_attempts = 4;
  // Long backoff so the kRetrying state is observable from outside.
  sub.retry.initial_backoff_ns = 300'000'000;

  QueryHandlePtr handle = service.Submit(tc.SlowPlan(), sub);
  // Kill the node once the query is consuming input, not after a fixed
  // sleep: how long the plan runs depends on the machine, and a query that
  // finished first would never retry.
  bool consuming = false;
  for (int i = 0; i < 100'000 && !consuming; ++i) {
    for (const QueryInfo& q : service.ListQueries()) {
      consuming |= q.id == handle->id() && q.tuples_consumed > 0;
    }
    if (!consuming) std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  ASSERT_TRUE(consuming) << "query never started consuming";
  tc.cluster->KillNode(1);

  bool saw_retrying = false;
  for (int i = 0; i < 400 && !saw_retrying; ++i) {
    if (handle->state() == QueryState::kRetrying) saw_retrying = true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(handle->WaitFor(60'000'000'000LL)) << "retry loop hung";
  EXPECT_TRUE(handle->status().ok()) << handle->status().ToString();
  EXPECT_TRUE(saw_retrying) << "kRetrying state never observed";
  EXPECT_EQ(handle->result().num_rows(), 300);
  service.Shutdown();
}

TEST(WlmFaultTest, NoRetryPolicySurfacesUnavailable) {
  TestCluster tc;
  QueryServiceOptions sopts;
  sopts.admission.max_concurrent = 2;
  QueryService service(tc.cluster.get(), sopts);

  SubmitOptions sub;
  sub.label = "no-retry";
  sub.exec.parallelism = 1;
  sub.exec.buffer_capacity_blocks = 2;  // default retry: 1 attempt

  QueryHandlePtr handle = service.Submit(tc.SlowPlan(), sub);
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  tc.cluster->KillNode(2);
  ASSERT_TRUE(handle->WaitFor(60'000'000'000LL));
  // Either it finished before the kill (ok) or it failed typed-retryable;
  // with no retry budget the service must not re-run it.
  if (!handle->status().ok()) {
    EXPECT_EQ(handle->status().code(), StatusCode::kUnavailable)
        << handle->status().ToString();
  }
  service.Shutdown();
}

}  // namespace
}  // namespace claims
