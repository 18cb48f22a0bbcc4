#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "ledger_balance_check.h"
#include "mem/query_budget.h"
#include "net/network.h"
#include "net/wire_frame.h"

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

// --- Wire frames: what a block crosses hosts as ---------------------------------

/// A block of `rows` rows of `s`, row r's INT32/DATE/INT64 columns from
/// `ints(r, c)`, its FLOAT64 columns r / 4 and its CHAR columns a prefix of
/// r's digits, NUL-padded. Sequence number 77.
template <typename Ints>
std::shared_ptr<Block> MixedBlock(const Schema& s, int32_t rows, Ints ints) {
  auto b = MakeBlock(s.row_size());
  for (int32_t r = 0; r < rows; ++r) {
    char* row = b->AppendRow();
    for (int c = 0; c < s.num_columns(); ++c) {
      switch (s.column(c).type) {
        case DataType::kInt32:
        case DataType::kDate:
          s.SetInt32(row, c, static_cast<int32_t>(ints(r, c)));
          break;
        case DataType::kInt64:
          s.SetInt64(row, c, ints(r, c));
          break;
        case DataType::kFloat64:
          s.SetFloat64(row, c, r / 4.0);
          break;
        case DataType::kChar:
          s.SetString(row, c, std::to_string(r).substr(0, r % 4));
          break;
      }
    }
  }
  b->set_sequence_number(77);
  return b;
}

/// Rows, row size, sequence number and every byte of the rows match.
void ExpectSameBlock(const Block& got, const Block& want) {
  ASSERT_EQ(got.row_size(), want.row_size());
  ASSERT_EQ(got.num_rows(), want.num_rows());
  EXPECT_EQ(got.sequence_number(), want.sequence_number());
  EXPECT_EQ(std::memcmp(got.RowAt(0), want.RowAt(0), want.payload_bytes()), 0);
}

/// Encodes `block`, which must shrink, and checks the decoded copy.
FramePtr ExpectRoundTrip(const Schema& s, const Block& block) {
  FramePtr frame = WireFrame::Encode(s, block);
  EXPECT_NE(frame, nullptr);
  if (frame == nullptr) return nullptr;
  EXPECT_LT(frame->bytes(), block.payload_bytes());
  BlockPtr decoded = frame->Decode();
  EXPECT_NE(decoded.get(), &block);
  ExpectSameBlock(*decoded, block);
  return frame;
}

TEST(WireFrameTest, EveryColumnTypeRoundTripsInAFullBlock) {
  const Schema s({ColumnDef::Int32("i"), ColumnDef::Date("d"),
                  ColumnDef::Int64("l"), ColumnDef::Float64("f"),
                  ColumnDef::Char("c", 7), ColumnDef::Char("flag", 1),
                  ColumnDef::Int32("neg")});
  auto full = MixedBlock(s, MakeBlock(s.row_size())->capacity_rows(),
                         [](int32_t r, int c) -> int64_t {
                           if (c == 1) return 14000 + r % 90;  // a quarter
                           if (c == 6) return -1000 - r;
                           return int64_t{1} << 40 | (r * 7919 % 100000);
                         });
  ASSERT_TRUE(full->full());
  ExpectRoundTrip(s, *full);
}

TEST(WireFrameTest, FloatBitPatternsAndPaddedCharsCrossExactly) {
  const Schema s({ColumnDef::Int64("k"), ColumnDef::Float64("f"),
                  ColumnDef::Char("c", 5)});
  const double patterns[] = {-0.0, 0.0, std::numeric_limits<double>::quiet_NaN(),
                             -std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(), 1e-310};
  uint64_t payload_nan = 0x7FF8'0000'0000'0123ULL;  // a NaN with a payload
  auto b = MakeBlock(s.row_size());
  for (int r = 0; r < 600; ++r) {
    char* row = b->AppendRow();
    s.SetInt64(row, 0, r);
    if (r % 7 == 6) {
      std::memcpy(row + s.offset(1), &payload_nan, 8);
    } else {
      s.SetFloat64(row, 1, patterns[r % 6]);
    }
    std::memset(row + s.offset(2), 0, 5);
    std::memcpy(row + s.offset(2), "ab\0cd", r % 2 == 0 ? 5 : 2);
  }
  b->set_sequence_number(3);
  ExpectRoundTrip(s, *b);
}

TEST(WireFrameTest, WidthsStepAtTheirBoundaries) {
  EXPECT_EQ(WireFrame::DeltaWidth(0), 0);
  EXPECT_EQ(WireFrame::DeltaWidth(255), 1);
  EXPECT_EQ(WireFrame::DeltaWidth(256), 2);
  EXPECT_EQ(WireFrame::DeltaWidth(65'535), 2);
  EXPECT_EQ(WireFrame::DeltaWidth(65'536), 4);
  EXPECT_EQ(WireFrame::DeltaWidth(0xFFFF'FFFFULL), 4);
  EXPECT_EQ(WireFrame::DeltaWidth(0x1'0000'0000ULL), 8);
  EXPECT_EQ(WireFrame::DeltaWidth(~uint64_t{0}), 8);
  // A block of an INT64 column spanning `range` from a negative minimum,
  // beside a constant column that keeps even 8-byte deltas under the rows:
  // each step up in width costs exactly one more byte per row.
  const Schema s({ColumnDef::Int64("v"), ColumnDef::Int64("same")});
  constexpr int32_t kRows = 1000;
  auto frame_bytes = [&](uint64_t range) {
    const int64_t lo = -5'000'000'000LL;
    auto b = MixedBlock(s, kRows, [&](int32_t r, int c) -> int64_t {
      if (c == 1) return 42;
      return r == kRows - 1 ? static_cast<int64_t>(
                                  static_cast<uint64_t>(lo) + range)
                            : lo + static_cast<int64_t>(r % 2 ? 0 : range / 3);
    });
    FramePtr frame = ExpectRoundTrip(s, *b);
    return frame == nullptr ? int64_t{-1} : frame->bytes();
  };
  const int64_t zero = frame_bytes(0);
  for (uint64_t range : {uint64_t{255}, uint64_t{256}, uint64_t{65'535},
                         uint64_t{65'536}, uint64_t{0xFFFF'FFFF},
                         uint64_t{0x1'0000'0000}}) {
    SCOPED_TRACE(range);
    EXPECT_EQ(frame_bytes(range) - zero,
              int64_t{kRows} * WireFrame::DeltaWidth(range));
  }
}

TEST(WireFrameTest, Int32AndInt64ExtremesShareABlock) {
  // INT64's minimum and maximum: max - min overflows a signed subtraction,
  // so the codec must take the range and the deltas modulo 2^64.
  const Schema s({ColumnDef::Int64("l"), ColumnDef::Int32("i"),
                  ColumnDef::Int32("same")});
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  auto b = MixedBlock(s, 500, [](int32_t r, int c) -> int64_t {
    if (c == 2) return -7;
    if (c == 1) {
      return r % 2 ? std::numeric_limits<int32_t>::min()
                   : std::numeric_limits<int32_t>::max();
    }
    return r % 3 == 0 ? kMin : r % 3 == 1 ? kMax : -1;
  });
  ExpectRoundTrip(s, *b);
}

TEST(WireFrameTest, BlocksThatWouldNotShrinkCrossUnencoded) {
  // One row: the headers alone outweigh it.
  const Schema ints({ColumnDef::Int32("k"), ColumnDef::Int64("v")});
  auto one = MixedBlock(ints, 1, [](int32_t, int) -> int64_t { return 5; });
  EXPECT_EQ(WireFrame::Encode(ints, *one), nullptr);
  // Nothing to narrow: FLOAT64 and CHAR are copied as they are.
  const Schema copied({ColumnDef::Float64("f"), ColumnDef::Char("c", 9)});
  auto rows = MixedBlock(copied, 2000, [](int32_t, int) -> int64_t { return 0; });
  EXPECT_EQ(WireFrame::Encode(copied, *rows), nullptr);
  // Full-width ranges in every column.
  auto wide = MixedBlock(ints, 2000, [](int32_t r, int c) -> int64_t {
    const bool low = r % 2 == 0;
    if (c == 0) return low ? std::numeric_limits<int32_t>::min() : 5;
    return low ? std::numeric_limits<int64_t>::min() : 5;
  });
  EXPECT_EQ(WireFrame::Encode(ints, *wide), nullptr);
  // An empty block has nothing to send.
  EXPECT_EQ(WireFrame::Encode(ints, *MakeBlock(ints.row_size())), nullptr);
}

// --- Ledger: a queued frame holds its wire bytes ---------------------------------

/// A compressible 1 000-row (k INT32, v INT64) block and its frame.
struct FramedBlock {
  FramedBlock()
      : schema({ColumnDef::Int32("k"), ColumnDef::Int64("v")}),
        block(MixedBlock(schema, 1000,
                         [](int32_t r, int c) -> int64_t {
                           return c == 0 ? r % 300 : 1000 + r;
                         })),
        frame(WireFrame::Encode(schema, *block)) {}

  NetBlock Envelope() const {
    NetBlock nb;
    nb.frame = frame;
    return nb;
  }

  Schema schema;
  BlockPtr block;
  FramePtr frame;
};

TEST(BlockChannelLedgerTest, FramesChargeTheirBytesAndDecodeOnReceive) {
  FramedBlock fb;
  ASSERT_NE(fb.frame, nullptr);
  const int64_t bytes = fb.frame->bytes();
  QueryBudget ledger(/*budget_bytes=*/0);
  BlockChannel channel(1, 8, &ledger);
  uint64_t seq = 0;
  ASSERT_TRUE(channel.Send(fb.Envelope(), nullptr, &seq));
  EXPECT_EQ(ledger.charged_bytes(), bytes);
  NetBlock dup = fb.Envelope();
  dup.wire_seq = seq;
  ASSERT_TRUE(channel.SendDuplicate(dup));
  EXPECT_EQ(ledger.charged_bytes(), 2 * bytes);
  NetBlock nb;
  ASSERT_EQ(channel.Receive(&nb, 1'000'000), ChannelStatus::kOk);
  EXPECT_EQ(ledger.charged_bytes(), bytes);
  ASSERT_NE(nb.block, nullptr);
  ExpectSameBlock(*nb.block, *fb.block);
  EXPECT_EQ(nb.frame, fb.frame);  // left for the receiver's byte count
  EXPECT_EQ(nb.wire_bytes(), bytes);
  channel.CloseProducer();
  EXPECT_EQ(channel.Receive(&nb, 1'000'000), ChannelStatus::kClosed);
  EXPECT_EQ(channel.duplicates_suppressed(), 1);
  EXPECT_EQ(ledger.charged_bytes(), 0);
  EXPECT_EQ(ledger.peak_charged_bytes(), 2 * bytes);
}

TEST(BlockChannelLedgerTest, CancelAndTeardownRefundQueuedFrames) {
  FramedBlock fb;
  ASSERT_NE(fb.frame, nullptr);
  QueryBudget ledger(/*budget_bytes=*/0);
  {
    BlockChannel channel(1, 0, &ledger);
    ASSERT_TRUE(channel.Send(fb.Envelope()));
    ASSERT_TRUE(channel.Send({fb.block, 0}));  // a same-host block beside it
    EXPECT_EQ(ledger.charged_bytes(),
              fb.frame->bytes() + fb.block->payload_bytes());
    channel.Cancel();
    EXPECT_EQ(ledger.charged_bytes(), 0);
  }
  {
    BlockChannel channel(1, 0, &ledger);
    ASSERT_TRUE(channel.Send(fb.Envelope()));
    ASSERT_TRUE(channel.Send(fb.Envelope()));
    EXPECT_EQ(ledger.charged_bytes(), 2 * fb.frame->bytes());
  }
  EXPECT_EQ(ledger.charged_bytes(), 0);
}

TEST(NetworkTest, FramedSendsChargeFrameBytesEverywhere) {
  // The NICs, the fabric's remote bytes and the channel's ledger all count
  // a frame's bytes; an unencoded send (Network::Send) counts its rows.
  FramedBlock fb;
  ASSERT_NE(fb.frame, nullptr);
  QueryBudget ledger(/*budget_bytes=*/0);
  Network net(2, NetworkOptions{0, 8});
  net.CreateExchange(1, 1, {1}, /*capacity_override=*/0, &ledger);
  EXPECT_EQ(net.SendRoute({1, 0, 0, 1, 1}, fb.frame, 1.0), SendOutcome::kOk);
  EXPECT_EQ(net.egress(0)->total_bytes(), fb.frame->bytes());
  EXPECT_EQ(net.ingress(1)->total_bytes(), fb.frame->bytes());
  EXPECT_EQ(net.total_remote_bytes(), fb.frame->bytes());
  EXPECT_EQ(ledger.charged_bytes(), fb.frame->bytes());
  ASSERT_TRUE(net.Send(1, 0, 1, fb.block));
  EXPECT_EQ(net.total_remote_bytes(),
            fb.frame->bytes() + fb.block->payload_bytes());
  NetBlock nb;
  ASSERT_EQ(net.GetChannel(1, 1)->Receive(&nb, 1'000'000), ChannelStatus::kOk);
  ExpectSameBlock(*nb.block, *fb.block);
  ASSERT_EQ(net.GetChannel(1, 1)->Receive(&nb, 1'000'000), ChannelStatus::kOk);
  EXPECT_EQ(nb.block, fb.block);  // unencoded: the sender's block itself
  EXPECT_EQ(ledger.charged_bytes(), 0);
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
