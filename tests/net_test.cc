#include <gtest/gtest.h>

#include <thread>

#include "ledger_balance_check.h"
#include "mem/query_budget.h"
#include "net/network.h"

namespace claims {
namespace {

BlockPtr RowBlock(int rows = 1) {
  auto b = MakeBlock(8, 8 * rows);
  for (int i = 0; i < rows; ++i) b->AppendRow();
  return b;
}

TEST(TokenBucketTest, UnthrottledIsFree) {
  TokenBucket bucket(0);
  EXPECT_FALSE(bucket.throttled());
  EXPECT_EQ(bucket.Acquire(1 << 30), 0);
  EXPECT_EQ(bucket.total_bytes(), 1 << 30);
}

TEST(TokenBucketTest, ThrottleDelaysLargeTransfers) {
  // 10 MB/s: 2 MB beyond the burst allowance needs ~200 ms.
  TokenBucket bucket(10 * 1000 * 1000);
  bucket.Acquire(1 << 20);  // eat the initial burst
  int64_t t0 = SteadyClock::Default()->NowNanos();
  bucket.Acquire(2 * 1000 * 1000);
  int64_t elapsed = SteadyClock::Default()->NowNanos() - t0;
  EXPECT_GT(elapsed, 80'000'000);   // at least ~80 ms
  EXPECT_LT(elapsed, 2'000'000'000);
}

TEST(TokenBucketTest, CancelAborts) {
  TokenBucket bucket(1000);  // 1 KB/s: a 1 MB acquire would take ~17 min
  std::atomic<bool> cancel{false};
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    cancel.store(true);
  });
  EXPECT_EQ(bucket.Acquire(1 << 20, &cancel), -1);
  canceller.join();
}

/// Manual clock whose SleepNanos advances its own time — what a correct
/// virtual-time injection looks like.
class SleepingManualClock : public Clock {
 public:
  int64_t NowNanos() const override { return now_; }
  void SleepNanos(int64_t ns) override { now_ += ns; }

 private:
  int64_t now_ = 0;
};

/// Manual clock that only moves when the test says so: SleepNanos inherits
/// the real-time default, so from Acquire's point of view time is frozen.
class FrozenManualClock : public Clock {
 public:
  int64_t NowNanos() const override { return now_; }
  void Advance(int64_t ns) { now_ += ns; }

 private:
  int64_t now_ = 0;
};

TEST(TokenBucketTest, VirtualClockWaitsAreDeterministic) {
  // Regression: Acquire computed owed tokens from the injected clock but
  // slept real wall time, so under a virtual clock a throttled transfer spun
  // for its real-time duration (effectively hanging for large acquires).
  // With waits routed through SleepNanos, the same transfer completes
  // instantly in real time and the waited virtual nanoseconds match the
  // bandwidth arithmetic.
  SleepingManualClock clock;
  TokenBucket bucket(1000, &clock);  // 1 KB/s, 64 KB initial burst
  bucket.Acquire(64 * 1024);         // eat the burst at t=0
  int64_t waited = bucket.Acquire(1 << 20);  // 1 MB at 1 KB/s ≈ 1049 s
  EXPECT_GE(waited, 1'000'000'000'000LL);    // ≥ 1000 virtual seconds
  EXPECT_LT(waited, 1'200'000'000'000LL);
  EXPECT_EQ(bucket.total_bytes(), 64 * 1024 + (1 << 20));
}

TEST(TokenBucketTest, FrozenClockRejectsInsteadOfHanging) {
  // A frozen manual clock can never accrue the owed tokens; Acquire must
  // fail fast like a cancellation rather than sleep-spin forever.
  FrozenManualClock clock;
  TokenBucket bucket(1000, &clock);
  bucket.Acquire(64 * 1024);  // eat the burst
  EXPECT_EQ(bucket.Acquire(1 << 20), -1);
}

TEST(TokenBucketTest, FrozenClockStillGrantsWithinBudget) {
  // Acquisitions that fit the current token balance need no wait and must
  // keep working even when the clock never moves.
  FrozenManualClock clock;
  TokenBucket bucket(1'000'000, &clock);
  EXPECT_GE(bucket.Acquire(1024), 0);
  clock.Advance(1'000'000'000);  // +1 s → +1 MB of tokens
  EXPECT_GE(bucket.Acquire(500'000), 0);
}

TEST(BlockChannelTest, SendReceive) {
  BlockChannel channel(1, 8);
  ASSERT_TRUE(channel.Send({RowBlock(), 2}));
  NetBlock nb;
  ASSERT_EQ(channel.Receive(&nb, 1'000'000), ChannelStatus::kOk);
  EXPECT_EQ(nb.from_node, 2);
  channel.CloseProducer();
  EXPECT_EQ(channel.Receive(&nb, 1'000'000), ChannelStatus::kClosed);
}

TEST(BlockChannelTest, TimeoutWhenQuiet) {
  BlockChannel channel(1, 8);
  NetBlock nb;
  EXPECT_EQ(channel.Receive(&nb, 2'000'000), ChannelStatus::kTimeout);
}

TEST(BlockChannelTest, DrainsBeforeClose) {
  BlockChannel channel(2, 8);
  ASSERT_TRUE(channel.Send({RowBlock(), 0}));
  ASSERT_TRUE(channel.Send({RowBlock(), 1}));
  channel.CloseProducer();
  channel.CloseProducer();
  NetBlock nb;
  EXPECT_EQ(channel.Receive(&nb, 1'000'000), ChannelStatus::kOk);
  EXPECT_EQ(channel.Receive(&nb, 1'000'000), ChannelStatus::kOk);
  EXPECT_EQ(channel.Receive(&nb, 1'000'000), ChannelStatus::kClosed);
}

TEST(BlockChannelTest, BoundedBlocksSender) {
  BlockChannel channel(1, 1);
  ASSERT_TRUE(channel.Send({RowBlock(), 0}));
  std::atomic<bool> second_sent{false};
  std::thread sender([&] {
    EXPECT_TRUE(channel.Send({RowBlock(), 0}));
    second_sent.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(second_sent.load());
  NetBlock nb;
  ASSERT_EQ(channel.Receive(&nb, 1'000'000), ChannelStatus::kOk);
  sender.join();
  EXPECT_TRUE(second_sent.load());
}

TEST(BlockChannelTest, UnboundedNeverBlocks) {
  BlockChannel channel(1, 0);  // ME materialization mode
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(channel.Send({RowBlock(), 0}));
  }
  EXPECT_EQ(channel.size(), 1000u);
}

TEST(BlockChannelTest, CancelUnblocksEverybody) {
  BlockChannel channel(1, 1);
  ASSERT_TRUE(channel.Send({RowBlock(), 0}));
  std::thread sender([&] { channel.Send({RowBlock(), 0}); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  channel.Cancel();
  sender.join();
  NetBlock nb;
  EXPECT_EQ(channel.Receive(&nb, 1'000'000), ChannelStatus::kClosed);
}

// --- Ledger: a queued block holds its payload bytes on the query's budget ----

TEST(BlockChannelLedgerTest, ChargesOnSendRefundsOnReceive) {
  QueryBudget ledger(/*budget_bytes=*/0);
  BlockChannel channel(1, 8, &ledger);
  BlockPtr block = RowBlock(4);
  const int64_t bytes = block->payload_bytes();
  uint64_t seq = 0;
  ASSERT_TRUE(channel.Send({block, 0}, nullptr, &seq));
  EXPECT_EQ(ledger.charged_bytes(), bytes);
  // A duplicate delivery is queued too: charged on enqueue, refunded when
  // the receiver drops it.
  ASSERT_TRUE(channel.SendDuplicate({block, 0, seq}));
  EXPECT_EQ(ledger.charged_bytes(), 2 * bytes);
  NetBlock nb;
  ASSERT_EQ(channel.Receive(&nb, 1'000'000), ChannelStatus::kOk);
  EXPECT_EQ(ledger.charged_bytes(), bytes);
  channel.CloseProducer();
  EXPECT_EQ(channel.Receive(&nb, 1'000'000), ChannelStatus::kClosed);
  EXPECT_EQ(channel.duplicates_suppressed(), 1);
  EXPECT_EQ(ledger.charged_bytes(), 0);
  EXPECT_EQ(ledger.peak_charged_bytes(), 2 * bytes);
}

TEST(BlockChannelLedgerTest, CancelRefundsQueuedBlocks) {
  QueryBudget ledger(/*budget_bytes=*/0);
  BlockChannel channel(1, 0, &ledger);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(channel.Send({RowBlock(4), 0}));
  EXPECT_EQ(ledger.charged_bytes(), 5 * 32);
  channel.Cancel();
  EXPECT_EQ(ledger.charged_bytes(), 0);
  // A send into the cancelled channel hands its charge straight back.
  EXPECT_FALSE(channel.Send({RowBlock(4), 0}));
  EXPECT_EQ(ledger.charged_bytes(), 0);
}

TEST(BlockChannelLedgerTest, DestructionRefundsQueuedBlocks) {
  QueryBudget ledger(/*budget_bytes=*/0);
  {
    BlockChannel channel(1, 0, &ledger);
    ASSERT_TRUE(channel.Send({RowBlock(4), 0}));
    ASSERT_TRUE(channel.Send({RowBlock(4), 0}));
    EXPECT_EQ(ledger.charged_bytes(), 64);
  }
  EXPECT_EQ(ledger.charged_bytes(), 0);
}

// Every ledger, bounded or not, is charged once a block is queued: senders
// waiting for room hold no charge, and one cancelled while it waits leaves
// nothing behind.
TEST(BlockChannelLedgerTest, ChargesQueuedBlocksOnly) {
  for (int64_t budget_bytes : {int64_t{0}, int64_t{1} << 20}) {
    SCOPED_TRACE(budget_bytes > 0 ? "bounded" : "unbounded");
    QueryBudget ledger(budget_bytes);
    BlockChannel channel(1, 1, &ledger);
    ASSERT_TRUE(channel.Send({RowBlock(4), 0}));
    std::atomic<bool> cancel{false};
    std::thread cancelled(
        [&] { EXPECT_FALSE(channel.Send({RowBlock(4), 0}, &cancel)); });
    std::atomic<bool> sent{false};
    std::thread sender([&] {
      EXPECT_TRUE(channel.Send({RowBlock(4), 0}));
      sent.store(true);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(sent.load());
    EXPECT_EQ(ledger.charged_bytes(), 32);  // the waiting blocks are not queued
    cancel.store(true);
    cancelled.join();
    EXPECT_EQ(ledger.charged_bytes(), 32);
    EXPECT_EQ(channel.size(), 1u);
    NetBlock nb;
    ASSERT_EQ(channel.Receive(&nb, 1'000'000), ChannelStatus::kOk);
    sender.join();
    EXPECT_EQ(ledger.charged_bytes(), 32);
    EXPECT_EQ(ledger.peak_charged_bytes(), 32);
    ASSERT_EQ(channel.Receive(&nb, 1'000'000), ChannelStatus::kOk);
    EXPECT_EQ(ledger.charged_bytes(), 0);
  }
}

TEST(BlockChannelLedgerTest, RefusedChargeFailsTheSendAndLatchesRejection) {
  QueryBudget ledger(48);  // room for one 32-byte block
  BlockChannel channel(1, 0, &ledger);
  ASSERT_TRUE(channel.Send({RowBlock(4), 0}));
  EXPECT_FALSE(ledger.rejected());
  EXPECT_FALSE(channel.Send({RowBlock(4), 0}));
  EXPECT_TRUE(ledger.rejected());
  EXPECT_EQ(ledger.charged_bytes(), 32);
  EXPECT_EQ(channel.size(), 1u);
}

TEST(NetworkTest, ExchangeChargesItsChannelsToTheLedger) {
  QueryBudget ledger(/*budget_bytes=*/0);
  Network net(2, NetworkOptions{0, 8});
  net.CreateExchange(1, 1, {0, 1}, /*capacity_override=*/0, &ledger);
  ASSERT_TRUE(net.Send(1, 0, 0, RowBlock(4)));
  ASSERT_TRUE(net.Send(1, 0, 1, RowBlock(4)));
  EXPECT_EQ(ledger.charged_bytes(), 64);
  net.DestroyExchange(1);
  EXPECT_EQ(ledger.charged_bytes(), 0);
}

TEST(NetworkTest, ExchangeRouting) {
  Network net(3, NetworkOptions{0, 8});
  net.CreateExchange(7, /*producers=*/2, {0, 1, 2});
  ASSERT_TRUE(net.Send(7, 0, 1, RowBlock()));
  ASSERT_TRUE(net.Send(7, 2, 1, RowBlock()));
  BlockChannel* c1 = net.GetChannel(7, 1);
  ASSERT_NE(c1, nullptr);
  EXPECT_EQ(c1->size(), 2u);
  EXPECT_EQ(net.GetChannel(7, 0)->size(), 0u);
  // Each producer closes once; the exchange closes all three channels.
  net.CloseProducer(7);
  net.CloseProducer(7);
  NetBlock nb;
  EXPECT_EQ(net.GetChannel(7, 0)->Receive(&nb, 1'000'000),
            ChannelStatus::kClosed);
}

TEST(NetworkTest, LocalSendIsFreeRemoteIsCounted) {
  Network net(2, NetworkOptions{0, 8});
  net.CreateExchange(1, 1, {0, 1});
  ASSERT_TRUE(net.Send(1, 0, 0, RowBlock(4)));  // loopback
  EXPECT_EQ(net.total_remote_bytes(), 0);
  ASSERT_TRUE(net.Send(1, 0, 1, RowBlock(4)));
  EXPECT_EQ(net.total_remote_bytes(), 32);  // 4 rows × 8 bytes
}

TEST(NetworkTest, MissingChannelFails) {
  Network net(2, NetworkOptions{0, 8});
  EXPECT_EQ(net.GetChannel(99, 0), nullptr);
  EXPECT_FALSE(net.Send(99, 0, 1, RowBlock()));
}

TEST(NetworkTest, RecreatingExchangeReplacesChannels) {
  Network net(2, NetworkOptions{0, 8});
  net.CreateExchange(1, 1, {0});
  net.CloseProducer(1);
  // A new query reuses exchange id 1; the stale closed channel must not leak
  // into it.
  net.CreateExchange(1, 1, {0});
  ASSERT_TRUE(net.Send(1, 0, 0, RowBlock()));
  NetBlock nb;
  EXPECT_EQ(net.GetChannel(1, 0)->Receive(&nb, 1'000'000), ChannelStatus::kOk);
}

}  // namespace
}  // namespace claims
