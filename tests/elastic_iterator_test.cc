#include "core/elastic_iterator.h"

#include <gtest/gtest.h>

#include <set>

#include "ledger_balance_check.h"
#include "mem/query_budget.h"
#include "test_iterators.h"

namespace claims {
namespace {

using testing_support::BlockingCounter;
using testing_support::CountingSource;
using testing_support::FailingSource;
using testing_support::OneInt64Schema;
using testing_support::SlowPassThrough;

// Drains an elastic iterator, returning the multiset of int64 values seen.
std::multiset<int64_t> DrainValues(ElasticIterator* it) {
  Schema schema = OneInt64Schema();
  WorkerContext ctx;
  std::multiset<int64_t> values;
  BlockPtr block;
  while (it->Next(&ctx, &block) == NextResult::kSuccess) {
    for (int r = 0; r < block->num_rows(); ++r) {
      values.insert(schema.GetInt64(block->RowAt(r), 0));
    }
  }
  return values;
}

std::multiset<int64_t> ExpectedValues(int n) {
  std::multiset<int64_t> v;
  for (int i = 0; i < n; ++i) v.insert(i);
  return v;
}

TEST(ElasticIteratorTest, SingleWorkerProducesAll) {
  ElasticIterator it(std::make_unique<CountingSource>(20, 10), {});
  WorkerContext ctx;
  ASSERT_EQ(it.Open(&ctx), NextResult::kSuccess);
  EXPECT_EQ(DrainValues(&it), ExpectedValues(200));
  EXPECT_TRUE(it.finished());
  it.Close();
}

TEST(ElasticIteratorTest, MultipleWorkersNoLossNoDuplication) {
  ElasticIterator::Options opts;
  opts.initial_parallelism = 4;
  ElasticIterator it(std::make_unique<CountingSource>(50, 7), opts);
  WorkerContext ctx;
  ASSERT_EQ(it.Open(&ctx), NextResult::kSuccess);
  EXPECT_EQ(DrainValues(&it), ExpectedValues(350));
  it.Close();
}

TEST(ElasticIteratorTest, ExpandDuringExecution) {
  ElasticIterator::Options opts;
  opts.initial_parallelism = 1;
  ElasticIterator it(
      std::make_unique<SlowPassThrough>(
          std::make_unique<CountingSource>(60, 5), /*cost_us=*/500),
      opts);
  WorkerContext ctx;
  ASSERT_EQ(it.Open(&ctx), NextResult::kSuccess);
  EXPECT_EQ(it.parallelism(), 1);
  EXPECT_TRUE(it.Expand(1));
  EXPECT_TRUE(it.Expand(2));
  EXPECT_EQ(it.parallelism(), 3);
  EXPECT_EQ(DrainValues(&it), ExpectedValues(300));
  it.Close();
}

TEST(ElasticIteratorTest, ShrinkDuringExecutionLosesNothing) {
  ElasticIterator::Options opts;
  opts.initial_parallelism = 4;
  // ~30 ms of work for four workers, so both shrinks land mid-stream even
  // when the workers start at once and the shrinker's sleep overshoots.
  ElasticIterator it(
      std::make_unique<SlowPassThrough>(
          std::make_unique<CountingSource>(400, 5), /*cost_us=*/300),
      opts);
  WorkerContext ctx;
  ASSERT_EQ(it.Open(&ctx), NextResult::kSuccess);
  std::thread shrinker([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_TRUE(it.Shrink());
    EXPECT_TRUE(it.Shrink());
  });
  auto values = DrainValues(&it);
  shrinker.join();
  EXPECT_EQ(values, ExpectedValues(2000));
  it.Close();
}

TEST(ElasticIteratorTest, ShrinkRespectsMinParallelism) {
  ElasticIterator::Options opts;
  opts.initial_parallelism = 2;
  opts.min_parallelism = 2;
  ElasticIterator it(std::make_unique<CountingSource>(1000, 2, /*delay_us=*/50),
                     opts);
  WorkerContext ctx;
  ASSERT_EQ(it.Open(&ctx), NextResult::kSuccess);
  EXPECT_FALSE(it.Shrink());
  it.Close();
}

TEST(ElasticIteratorTest, ExpandRespectsMaxParallelism) {
  ElasticIterator::Options opts;
  opts.initial_parallelism = 2;
  opts.max_parallelism = 2;
  ElasticIterator it(std::make_unique<CountingSource>(1000, 2, /*delay_us=*/50),
                     opts);
  WorkerContext ctx;
  ASSERT_EQ(it.Open(&ctx), NextResult::kSuccess);
  EXPECT_FALSE(it.Expand(5));
  it.Close();
}

TEST(ElasticIteratorTest, ShrinkBlockingReturnsLatency) {
  ElasticIterator::Options opts;
  opts.initial_parallelism = 3;
  ElasticIterator it(
      std::make_unique<SlowPassThrough>(
          std::make_unique<CountingSource>(5000, 2), /*cost_us=*/200),
      opts);
  WorkerContext ctx;
  ASSERT_EQ(it.Open(&ctx), NextResult::kSuccess);
  // Keep the pipeline draining so workers are never stuck on a full buffer.
  std::thread consumer([&] { DrainValues(&it); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  int64_t delay = it.ShrinkBlocking();
  EXPECT_GE(delay, 0);
  EXPECT_LT(delay, 2'000'000'000LL);  // sanity: well under 2 s
  EXPECT_EQ(it.parallelism(), 2);
  it.Close();
  consumer.join();
}

TEST(ElasticIteratorTest, ExpandMeasuredReportsSubSecondDelay) {
  ElasticIterator::Options opts;
  opts.initial_parallelism = 1;
  ElasticIterator it(
      std::make_unique<SlowPassThrough>(
          std::make_unique<CountingSource>(5000, 2), /*cost_us=*/200),
      opts);
  WorkerContext ctx;
  ASSERT_EQ(it.Open(&ctx), NextResult::kSuccess);
  std::thread consumer([&] { DrainValues(&it); });
  int64_t delay = it.ExpandMeasured(7);
  EXPECT_GE(delay, 0);
  EXPECT_LT(delay, 1'000'000'000LL);
  it.Close();
  consumer.join();
}

TEST(ElasticIteratorTest, BlockingChildStateBuiltOnce) {
  // All workers collaboratively build the blocking iterator's state; the
  // summary must count every input tuple exactly once.
  ElasticIterator::Options opts;
  opts.initial_parallelism = 4;
  auto blocking = std::make_unique<BlockingCounter>(
      std::make_unique<CountingSource>(40, 25));
  BlockingCounter* counter = blocking.get();
  ElasticIterator it(std::move(blocking), opts);
  WorkerContext ctx;
  ASSERT_EQ(it.Open(&ctx), NextResult::kSuccess);
  BlockPtr block;
  ASSERT_EQ(it.Next(&ctx, &block), NextResult::kSuccess);
  Schema schema = OneInt64Schema();
  EXPECT_EQ(schema.GetInt64(block->RowAt(0), 0), 40 * 25);
  EXPECT_EQ(it.Next(&ctx, &block), NextResult::kEndOfFile);
  EXPECT_EQ(counter->state_tuples(), 40 * 25);
  it.Close();
}

TEST(ElasticIteratorTest, ExpandDuringStateConstructionJoinsBuild) {
  ElasticIterator::Options opts;
  opts.initial_parallelism = 1;
  auto blocking = std::make_unique<BlockingCounter>(std::make_unique<SlowPassThrough>(
      std::make_unique<CountingSource>(200, 10), /*cost_us=*/200));
  ElasticIterator it(std::move(blocking), opts);
  WorkerContext ctx;
  ASSERT_EQ(it.Open(&ctx), NextResult::kSuccess);
  // Expand while the build is still running (S2 state).
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(it.Expand(1));
  EXPECT_TRUE(it.Expand(2));
  BlockPtr block;
  ASSERT_EQ(it.Next(&ctx, &block), NextResult::kSuccess);
  Schema schema = OneInt64Schema();
  EXPECT_EQ(schema.GetInt64(block->RowAt(0), 0), 2000);
  it.Close();
}

TEST(ElasticIteratorTest, ShrinkDuringStateConstruction) {
  ElasticIterator::Options opts;
  opts.initial_parallelism = 3;
  auto blocking = std::make_unique<BlockingCounter>(std::make_unique<SlowPassThrough>(
      std::make_unique<CountingSource>(150, 10), /*cost_us=*/300));
  ElasticIterator it(std::move(blocking), opts);
  WorkerContext ctx;
  ASSERT_EQ(it.Open(&ctx), NextResult::kSuccess);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(it.Shrink());  // worker terminates mid-build (S2)
  BlockPtr block;
  ASSERT_EQ(it.Next(&ctx, &block), NextResult::kSuccess);
  Schema schema = OneInt64Schema();
  // No tuple may be lost despite the mid-build termination.
  EXPECT_EQ(schema.GetInt64(block->RowAt(0), 0), 1500);
  it.Close();
}

TEST(ElasticIteratorTest, OrderPreservingMode) {
  ElasticIterator::Options opts;
  opts.initial_parallelism = 4;
  opts.order_preserving = true;
  ElasticIterator it(std::make_unique<CountingSource>(100, 3), opts);
  WorkerContext ctx;
  ASSERT_EQ(it.Open(&ctx), NextResult::kSuccess);
  BlockPtr block;
  uint64_t expect = 0;
  while (it.Next(&ctx, &block) == NextResult::kSuccess) {
    EXPECT_EQ(block->sequence_number(), expect);
    ++expect;
  }
  EXPECT_EQ(expect, 100u);
  it.Close();
}

TEST(ElasticIteratorTest, StatsCountOutputTuples) {
  SegmentStats stats;
  ElasticIterator::Options opts;
  opts.initial_parallelism = 2;
  opts.stats = &stats;
  ElasticIterator it(std::make_unique<CountingSource>(30, 10), opts);
  WorkerContext ctx;
  ASSERT_EQ(it.Open(&ctx), NextResult::kSuccess);
  DrainValues(&it);
  it.Close();
  EXPECT_EQ(stats.output_tuples.load(), 300);
  EXPECT_EQ(stats.input_tuples.load(), 300);  // CountingSource counts inputs
}

TEST(ElasticIteratorTest, CloseWithoutDrainTerminatesCleanly) {
  ElasticIterator::Options opts;
  opts.initial_parallelism = 3;
  opts.buffer_capacity_blocks = 2;  // workers will block on full buffer
  auto it = std::make_unique<ElasticIterator>(
      std::make_unique<CountingSource>(10000, 5), opts);
  WorkerContext ctx;
  ASSERT_EQ(it->Open(&ctx), NextResult::kSuccess);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  it->Close();  // must not hang
}

TEST(ElasticIteratorTest, ChildErrorSurfacesInsteadOfCleanEof) {
  // Regression: a child stream breaking mid-flight used to drain as a clean
  // kEndOfFile — an empty (or truncated) result indistinguishable from
  // success. The first error must latch and re-raise from Next().
  ElasticIterator::Options opts;
  opts.initial_parallelism = 2;
  ElasticIterator it(std::make_unique<FailingSource>(/*good_blocks=*/3), opts);
  WorkerContext ctx;
  ASSERT_EQ(it.Open(&ctx), NextResult::kSuccess);
  NextResult last = NextResult::kSuccess;
  BlockPtr block;
  while ((last = it.Next(&ctx, &block)) == NextResult::kSuccess) {
  }
  EXPECT_EQ(last, NextResult::kError);
  EXPECT_TRUE(it.failed());
  EXPECT_TRUE(it.finished());  // terminal: the scheduler must stop feeding it
  it.Close();
}

TEST(ElasticIteratorTest, RefusedBlockChargeSurfacesAsError) {
  // A block the query's ledger refuses is a budget breach, not a routine
  // cancellation: the worker reads the ledger's rejected() and fails the
  // segment, so the consumer sees kError instead of a truncated end-of-file.
  QueryBudget ledger(/*budget_bytes=*/8);  // under one 5-row int64 block
  ElasticIterator::Options opts;
  opts.budget = &ledger;
  ElasticIterator it(std::make_unique<CountingSource>(10, 5), opts);
  WorkerContext ctx;
  ASSERT_EQ(it.Open(&ctx), NextResult::kSuccess);
  NextResult last = NextResult::kSuccess;
  BlockPtr block;
  while ((last = it.Next(&ctx, &block)) == NextResult::kSuccess) {
  }
  EXPECT_EQ(last, NextResult::kError);
  EXPECT_TRUE(ledger.rejected());
  EXPECT_TRUE(it.failed());
  it.Close();
  EXPECT_EQ(ledger.charged_bytes(), 0);
}

TEST(ElasticIteratorTest, ChildOpenErrorSurfaces) {
  ElasticIterator::Options opts;
  opts.initial_parallelism = 2;
  ElasticIterator it(
      std::make_unique<FailingSource>(/*good_blocks=*/0, /*fail_open=*/true),
      opts);
  WorkerContext ctx;
  ASSERT_EQ(it.Open(&ctx), NextResult::kSuccess);  // workers launch async
  BlockPtr block;
  EXPECT_EQ(it.Next(&ctx, &block), NextResult::kError);
  EXPECT_TRUE(it.failed());
  it.Close();
}

TEST(ElasticIteratorTest, ExpandRefusedAfterError) {
  ElasticIterator::Options opts;
  opts.initial_parallelism = 1;
  opts.max_parallelism = 8;
  ElasticIterator it(std::make_unique<FailingSource>(/*good_blocks=*/0), opts);
  WorkerContext ctx;
  ASSERT_EQ(it.Open(&ctx), NextResult::kSuccess);
  BlockPtr block;
  while (it.Next(&ctx, &block) == NextResult::kSuccess) {
  }
  EXPECT_FALSE(it.Expand(3));
  EXPECT_EQ(it.ExpandMeasured(4), -1);
  it.Close();
}

TEST(ElasticIteratorTest, ExpandRefusedOnceFinished) {
  // A drained segment takes no new worker, measured or not.
  ElasticIterator it(std::make_unique<CountingSource>(5, 5), {});
  WorkerContext ctx;
  ASSERT_EQ(it.Open(&ctx), NextResult::kSuccess);
  EXPECT_EQ(DrainValues(&it), ExpectedValues(25));
  ASSERT_TRUE(it.finished());
  EXPECT_FALSE(it.Expand(1));
  EXPECT_EQ(it.ExpandMeasured(1), -1);
  it.Close();
}

TEST(ElasticIteratorTest, DoubleCloseAndDestructorAreSafe) {
  ElasticIterator it(std::make_unique<CountingSource>(5, 5), {});
  WorkerContext ctx;
  ASSERT_EQ(it.Open(&ctx), NextResult::kSuccess);
  DrainValues(&it);
  it.Close();
  it.Close();  // idempotent
}

}  // namespace
}  // namespace claims
