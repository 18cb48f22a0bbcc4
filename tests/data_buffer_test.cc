#include "core/data_buffer.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "ledger_balance_check.h"

namespace claims {
namespace {

BlockPtr SeqBlock(uint64_t seq) {
  auto b = MakeBlock(8, 64);
  b->AppendRow();
  b->set_sequence_number(seq);
  return b;
}

TEST(DataBufferTest, FifoBasics) {
  DataBuffer buf({.capacity_blocks = 8, .order_preserving = false});
  buf.AddProducer(0);
  ASSERT_TRUE(buf.Insert(0, SeqBlock(1)));
  ASSERT_TRUE(buf.Insert(0, SeqBlock(2)));
  EXPECT_EQ(buf.size(), 2u);
  BlockPtr out;
  EXPECT_EQ(buf.Pop(&out), NextResult::kSuccess);
  EXPECT_EQ(out->sequence_number(), 1u);
  buf.RemoveProducer(0);
  EXPECT_EQ(buf.Pop(&out), NextResult::kSuccess);
  EXPECT_EQ(out->sequence_number(), 2u);
  EXPECT_EQ(buf.Pop(&out), NextResult::kEndOfFile);
}

TEST(DataBufferTest, EofOnlyAfterDrain) {
  DataBuffer buf({.capacity_blocks = 8});
  buf.AddProducer(0);
  ASSERT_TRUE(buf.Insert(0, SeqBlock(5)));
  buf.RemoveProducer(0);
  BlockPtr out;
  EXPECT_EQ(buf.Pop(&out), NextResult::kSuccess);
  EXPECT_EQ(buf.Pop(&out), NextResult::kEndOfFile);
}

TEST(DataBufferTest, BackpressureBlocksProducer) {
  DataBuffer buf({.capacity_blocks = 2});
  buf.AddProducer(0);
  ASSERT_TRUE(buf.Insert(0, SeqBlock(1)));
  ASSERT_TRUE(buf.Insert(0, SeqBlock(2)));
  std::atomic<bool> third_inserted{false};
  std::thread producer([&] {
    EXPECT_TRUE(buf.Insert(0, SeqBlock(3)));
    third_inserted.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(third_inserted.load());  // full: producer must wait
  BlockPtr out;
  EXPECT_EQ(buf.Pop(&out), NextResult::kSuccess);
  producer.join();
  EXPECT_TRUE(third_inserted.load());
}

TEST(DataBufferTest, CancelWakesProducerAndConsumer) {
  DataBuffer buf({.capacity_blocks = 1});
  buf.AddProducer(0);
  ASSERT_TRUE(buf.Insert(0, SeqBlock(1)));
  std::thread producer([&] { EXPECT_FALSE(buf.Insert(0, SeqBlock(2))); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  buf.Cancel();
  producer.join();
  BlockPtr out;
  EXPECT_EQ(buf.Pop(&out), NextResult::kEndOfFile);
  EXPECT_TRUE(buf.cancelled());
}

TEST(DataBufferTest, ConsumerBlocksUntilInsert) {
  DataBuffer buf({.capacity_blocks = 4});
  buf.AddProducer(0);
  std::atomic<bool> popped{false};
  std::thread consumer([&] {
    BlockPtr out;
    EXPECT_EQ(buf.Pop(&out), NextResult::kSuccess);
    popped.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(15));
  EXPECT_FALSE(popped.load());
  ASSERT_TRUE(buf.Insert(0, SeqBlock(9)));
  consumer.join();
  EXPECT_TRUE(popped.load());
}

TEST(DataBufferTest, MemoryAccounting) {
  QueryBudget ledger(/*budget_bytes=*/0);
  DataBuffer buf({.capacity_blocks = 8, .order_preserving = false,
                  .budget = &ledger});
  buf.AddProducer(0);
  BlockPtr b = SeqBlock(1);
  int64_t bytes = b->payload_bytes();
  ASSERT_TRUE(buf.Insert(0, std::move(b)));
  EXPECT_EQ(ledger.charged_bytes(), bytes);
  BlockPtr out;
  ASSERT_EQ(buf.Pop(&out), NextResult::kSuccess);
  EXPECT_EQ(ledger.charged_bytes(), 0);
  EXPECT_EQ(ledger.peak_charged_bytes(), bytes);
}

// Every ledger, bounded or not, is charged once a block is queued: a
// producer waiting for room adds nothing to the peak, so a query reports the
// same peak with a budget as without one.
TEST(DataBufferTest, WaitingProducerHoldsNoCharge) {
  for (int64_t budget_bytes : {int64_t{0}, int64_t{1} << 20}) {
    SCOPED_TRACE(budget_bytes > 0 ? "bounded" : "unbounded");
    QueryBudget ledger(budget_bytes);
    DataBuffer buf({.capacity_blocks = 1, .order_preserving = false,
                    .budget = &ledger});
    buf.AddProducer(0);
    BlockPtr first = SeqBlock(1);
    const int64_t bytes = first->payload_bytes();
    ASSERT_TRUE(buf.Insert(0, std::move(first)));
    std::thread producer([&] { EXPECT_TRUE(buf.Insert(0, SeqBlock(2))); });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(ledger.charged_bytes(), bytes);
    BlockPtr out;
    ASSERT_EQ(buf.Pop(&out), NextResult::kSuccess);
    producer.join();
    EXPECT_EQ(ledger.charged_bytes(), bytes);
    EXPECT_EQ(ledger.peak_charged_bytes(), bytes);
    ASSERT_EQ(buf.Pop(&out), NextResult::kSuccess);
    EXPECT_EQ(ledger.charged_bytes(), 0);
  }
}

// A refused charge queues nothing: the insert fails, the ledger latches
// rejected(), and the buffer and the ledger hold what they held before.
TEST(DataBufferTest, RefusedChargeQueuesNothingAndLatchesRejection) {
  for (bool ordered : {false, true}) {
    SCOPED_TRACE(ordered ? "ordered" : "unordered");
    BlockPtr first = SeqBlock(1);
    const int64_t bytes = first->payload_bytes();
    QueryBudget ledger(bytes);  // room for one block
    DataBuffer buf({.capacity_blocks = 8, .order_preserving = ordered,
                    .budget = &ledger});
    buf.AddProducer(0);
    ASSERT_TRUE(buf.Insert(0, std::move(first)));
    EXPECT_FALSE(ledger.rejected());
    EXPECT_FALSE(buf.Insert(0, SeqBlock(2)));
    EXPECT_TRUE(ledger.rejected());
    EXPECT_EQ(buf.size(), 1u);
    EXPECT_EQ(ledger.charged_bytes(), bytes);
    buf.RemoveProducer(0);
    BlockPtr out;
    ASSERT_EQ(buf.Pop(&out), NextResult::kSuccess);
    EXPECT_EQ(out->sequence_number(), 1u);
    EXPECT_EQ(buf.Pop(&out), NextResult::kEndOfFile);
    EXPECT_EQ(ledger.charged_bytes(), 0);
  }
}

// A failed or cancelled segment's buffer outlives the run until its executor
// runs again: Cancel itself must hand the queued blocks' charge back, in both
// buffer modes, and the consumer sees end-of-file, not the dropped blocks.
TEST(DataBufferTest, CancelRefundsQueuedBlocks) {
  for (bool ordered : {false, true}) {
    SCOPED_TRACE(ordered ? "ordered" : "unordered");
    QueryBudget ledger(/*budget_bytes=*/1 << 20);
    DataBuffer buf({.capacity_blocks = 8, .order_preserving = ordered,
                    .budget = &ledger});
    buf.AddProducer(0);
    buf.AddProducer(1);
    ASSERT_TRUE(buf.Insert(0, SeqBlock(4)));
    ASSERT_TRUE(buf.Insert(1, SeqBlock(5)));
    ASSERT_TRUE(buf.Insert(0, SeqBlock(6)));
    ASSERT_GT(ledger.charged_bytes(), 0);

    buf.Cancel();
    EXPECT_EQ(ledger.charged_bytes(), 0);
    EXPECT_EQ(buf.size(), 0u);
    BlockPtr out;
    EXPECT_EQ(buf.Pop(&out), NextResult::kEndOfFile);
    EXPECT_EQ(out, nullptr);
    EXPECT_FALSE(buf.Insert(1, SeqBlock(7)));
    EXPECT_EQ(ledger.charged_bytes(), 0);
  }
}

TEST(DataBufferTest, TerminatedProducersDontSignalEof) {
  // Regression: all current producers shrinking away (terminated, not
  // finished) left active_producers_ == 0 && total_blocks_ == 0 — the old
  // EOF predicate. A consumer racing into Pop in that window returned a
  // premature end-of-file while the segment was still live. The stream is
  // merely paused: Pop must keep waiting until a replacement producer
  // finishes (or the buffer is cancelled).
  DataBuffer buf({.capacity_blocks = 8});
  buf.AddProducer(0);
  buf.RemoveProducer(0, /*finished=*/false);  // shrunk away mid-stream
  std::atomic<bool> got_eof{false};
  std::atomic<bool> got_block{false};
  std::thread consumer([&] {
    BlockPtr out;
    NextResult r = buf.Pop(&out);
    if (r == NextResult::kSuccess) got_block.store(true);
    while (r == NextResult::kSuccess) r = buf.Pop(&out);
    got_eof.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(got_eof.load());  // paused, not exhausted
  // A later Expand revives the stream; its worker finishes for real.
  buf.AddProducer(1);
  ASSERT_TRUE(buf.Insert(1, SeqBlock(1)));
  buf.RemoveProducer(1, /*finished=*/true);
  consumer.join();
  EXPECT_TRUE(got_block.load());
  EXPECT_TRUE(got_eof.load());
}

TEST(DataBufferTest, NoProducerEverRegisteredIsEof) {
  // An empty segment (zero initial parallelism edge) must still terminate.
  DataBuffer buf({.capacity_blocks = 8});
  BlockPtr out;
  EXPECT_EQ(buf.Pop(&out), NextResult::kEndOfFile);
}

TEST(DataBufferTest, CancelEndsPausedStream) {
  DataBuffer buf({.capacity_blocks = 8});
  buf.AddProducer(0);
  buf.RemoveProducer(0, /*finished=*/false);
  std::thread consumer([&] {
    BlockPtr out;
    EXPECT_EQ(buf.Pop(&out), NextResult::kEndOfFile);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  buf.Cancel();  // shutdown while paused must not hang the consumer
  consumer.join();
}

// --- Order-preserving mode ----------------------------------------------------

TEST(OrderedBufferTest, MergesTwoProducersBySequence) {
  DataBuffer buf({.capacity_blocks = 16, .order_preserving = true});
  buf.AddProducer(0);
  buf.AddProducer(1);
  // Producer 0 holds blocks 0,2,4; producer 1 holds 1,3.
  ASSERT_TRUE(buf.Insert(0, SeqBlock(0)));
  ASSERT_TRUE(buf.Insert(1, SeqBlock(1)));
  ASSERT_TRUE(buf.Insert(0, SeqBlock(2)));
  ASSERT_TRUE(buf.Insert(1, SeqBlock(3)));
  ASSERT_TRUE(buf.Insert(0, SeqBlock(4)));
  buf.RemoveProducer(0);
  buf.RemoveProducer(1);
  BlockPtr out;
  for (uint64_t want = 0; want < 5; ++want) {
    ASSERT_EQ(buf.Pop(&out), NextResult::kSuccess);
    EXPECT_EQ(out->sequence_number(), want);
  }
  EXPECT_EQ(buf.Pop(&out), NextResult::kEndOfFile);
}

TEST(OrderedBufferTest, HoldsBackUntilLaggerCatchesUp) {
  DataBuffer buf({.capacity_blocks = 16, .order_preserving = true});
  buf.AddProducer(0);
  buf.AddProducer(1);
  ASSERT_TRUE(buf.Insert(0, SeqBlock(7)));
  // Producer 1 has inserted nothing and its watermark is 0: seq 7 must wait —
  // producer 1 might still insert seq < 7.
  std::atomic<bool> popped{false};
  std::thread consumer([&] {
    BlockPtr out;
    EXPECT_EQ(buf.Pop(&out), NextResult::kSuccess);
    EXPECT_EQ(out->sequence_number(), 3u);
    popped.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(popped.load());
  ASSERT_TRUE(buf.Insert(1, SeqBlock(3)));
  consumer.join();
  buf.Cancel();
}

TEST(OrderedBufferTest, WatermarkReleasesWithoutInsert) {
  DataBuffer buf({.capacity_blocks = 16, .order_preserving = true});
  buf.AddProducer(0);
  buf.AddProducer(1);
  ASSERT_TRUE(buf.Insert(0, SeqBlock(7)));
  std::atomic<bool> popped{false};
  std::thread consumer([&] {
    BlockPtr out;
    EXPECT_EQ(buf.Pop(&out), NextResult::kSuccess);
    EXPECT_EQ(out->sequence_number(), 7u);
    popped.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(popped.load());
  // Producer 1 passes seq 8 with no output (e.g., filtered away): its
  // watermark promise releases block 7.
  buf.AdvanceWatermark(1, 8);
  consumer.join();
  EXPECT_TRUE(popped.load());
  buf.Cancel();
}

TEST(OrderedBufferTest, FinishedProducerDoesNotGateMerge) {
  DataBuffer buf({.capacity_blocks = 16, .order_preserving = true});
  buf.AddProducer(0);
  buf.AddProducer(1);
  ASSERT_TRUE(buf.Insert(0, SeqBlock(7)));
  buf.RemoveProducer(1);  // finished without inserting anything
  BlockPtr out;
  EXPECT_EQ(buf.Pop(&out), NextResult::kSuccess);
  EXPECT_EQ(out->sequence_number(), 7u);
}

TEST(OrderedBufferTest, GatingProducerMayInsertPastCapacity) {
  // Regression guard for the merge-deadlock case: buffer at capacity with
  // unreleasable blocks; the lagging producer must still be able to insert.
  DataBuffer buf({.capacity_blocks = 2, .order_preserving = true});
  buf.AddProducer(0);
  buf.AddProducer(1);
  ASSERT_TRUE(buf.Insert(0, SeqBlock(5)));
  ASSERT_TRUE(buf.Insert(0, SeqBlock(6)));
  // At capacity, nothing releasable (producer 1 lags). Its insert must not
  // block.
  ASSERT_TRUE(buf.Insert(1, SeqBlock(1)));
  BlockPtr out;
  ASSERT_EQ(buf.Pop(&out), NextResult::kSuccess);
  EXPECT_EQ(out->sequence_number(), 1u);
}

TEST(OrderedBufferTest, ConcurrentProducersGlobalOrder) {
  DataBuffer buf({.capacity_blocks = 8, .order_preserving = true});
  const int kProducers = 4;
  const int kBlocksEach = 50;
  for (int p = 0; p < kProducers; ++p) buf.AddProducer(p);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      // Producer p owns sequence numbers p, p+4, p+8, ... (monotone per
      // producer, interleaved globally — like a shared stage beginner).
      for (int i = 0; i < kBlocksEach; ++i) {
        ASSERT_TRUE(buf.Insert(p, SeqBlock(static_cast<uint64_t>(
                                      i * kProducers + p))));
      }
      buf.RemoveProducer(p);
    });
  }
  std::vector<uint64_t> seen;
  BlockPtr out;
  while (buf.Pop(&out) == NextResult::kSuccess) {
    seen.push_back(out->sequence_number());
  }
  for (auto& t : producers) t.join();
  ASSERT_EQ(seen.size(), static_cast<size_t>(kProducers * kBlocksEach));
  for (size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], i);
}

}  // namespace
}  // namespace claims
