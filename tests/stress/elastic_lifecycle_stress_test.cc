// Lifecycle stress for ElasticIterator: Expand / Shrink / ShrinkBlocking
// racing the consumer, Close, and child errors. Deterministic shape — fixed
// seeds, bounded rounds — so a sanitizer failure reproduces; the value of
// these tests is the interleavings they force, and TSan/ASan turn any latent
// race or lifetime bug they reach into a hard failure.

#include "core/elastic_iterator.h"

#include <gtest/gtest.h>

#include <atomic>
#include <random>
#include <set>
#include <thread>
#include <vector>

#include "test_iterators.h"

namespace claims {
namespace {

using testing_support::CountingSource;
using testing_support::FailingSource;
using testing_support::OneInt64Schema;
using testing_support::SlowPassThrough;

std::multiset<int64_t> ExpectedValues(int n) {
  std::multiset<int64_t> v;
  for (int i = 0; i < n; ++i) v.insert(i);
  return v;
}

TEST(ElasticLifecycleStress, ExpandShrinkChurnLosesNothing) {
  constexpr int kRounds = 6;
  constexpr int kBlocks = 150;
  constexpr int kRows = 4;
  for (int round = 0; round < kRounds; ++round) {
    ElasticIterator::Options opts;
    opts.initial_parallelism = 2;
    opts.max_parallelism = 8;
    opts.buffer_capacity_blocks = 4;  // keep backpressure in play
    ElasticIterator it(
        std::make_unique<SlowPassThrough>(
            std::make_unique<CountingSource>(kBlocks, kRows), /*cost_us=*/100),
        opts);
    WorkerContext ctx;
    ASSERT_EQ(it.Open(&ctx), NextResult::kSuccess);

    std::atomic<bool> done{false};
    std::vector<std::thread> mutators;
    for (int m = 0; m < 2; ++m) {
      mutators.emplace_back([&, m] {
        std::mt19937 rng(static_cast<unsigned>(round * 31 + m));
        while (!done.load(std::memory_order_acquire)) {
          switch (rng() % 3) {
            case 0: it.Expand(static_cast<int>(rng() % 8)); break;
            case 1: it.Shrink(); break;
            default: it.ShrinkBlocking(); break;
          }
          std::this_thread::yield();
        }
      });
    }

    Schema schema = OneInt64Schema();
    std::multiset<int64_t> values;
    BlockPtr block;
    while (it.Next(&ctx, &block) == NextResult::kSuccess) {
      for (int r = 0; r < block->num_rows(); ++r) {
        values.insert(schema.GetInt64(block->RowAt(r), 0));
      }
    }
    done.store(true, std::memory_order_release);
    for (auto& t : mutators) t.join();
    EXPECT_EQ(values, ExpectedValues(kBlocks * kRows)) << "round " << round;
    EXPECT_TRUE(it.finished());
    it.Close();
  }
}

TEST(ElasticLifecycleStress, CloseRacesMutatorsAndConsumer) {
  // Abandon the query mid-stream while Expand/Shrink churn is in flight:
  // Close must terminate and join every worker without hanging, and late
  // mutator calls against the closed iterator must be refused, not crash.
  constexpr int kRounds = 8;
  for (int round = 0; round < kRounds; ++round) {
    ElasticIterator::Options opts;
    opts.initial_parallelism = 3;
    opts.max_parallelism = 8;
    opts.buffer_capacity_blocks = 2;  // workers park on the full buffer
    ElasticIterator it(
        std::make_unique<CountingSource>(100000, 4, /*delay_us=*/20), opts);
    WorkerContext ctx;
    ASSERT_EQ(it.Open(&ctx), NextResult::kSuccess);

    std::atomic<bool> done{false};
    std::vector<std::thread> mutators;
    for (int m = 0; m < 2; ++m) {
      mutators.emplace_back([&, m] {
        std::mt19937 rng(static_cast<unsigned>(round * 17 + m));
        while (!done.load(std::memory_order_acquire)) {
          if (rng() % 2 == 0) {
            it.Expand(static_cast<int>(rng() % 8));
          } else {
            it.Shrink();
          }
          std::this_thread::yield();
        }
      });
    }
    // Consume a little so the pipeline is genuinely moving, then walk away.
    BlockPtr block;
    for (int i = 0; i < 5; ++i) it.Next(&ctx, &block);
    it.Close();
    done.store(true, std::memory_order_release);
    for (auto& t : mutators) t.join();
    EXPECT_FALSE(it.Expand(0));  // closed: must refuse
    EXPECT_FALSE(it.Shrink());
  }
}

TEST(ElasticLifecycleStress, ChildErrorUnderChurnStaysTerminal) {
  // A child stream breaking while workers expand and shrink: exactly one
  // error latch, consumer sees kError (never a clean EOF), and post-error
  // expansion is refused no matter which thread asks.
  constexpr int kRounds = 8;
  for (int round = 0; round < kRounds; ++round) {
    ElasticIterator::Options opts;
    opts.initial_parallelism = 2;
    opts.max_parallelism = 6;
    ElasticIterator it(std::make_unique<FailingSource>(/*good_blocks=*/20),
                       opts);
    WorkerContext ctx;
    ASSERT_EQ(it.Open(&ctx), NextResult::kSuccess);

    std::atomic<bool> done{false};
    std::thread mutator([&] {
      std::mt19937 rng(static_cast<unsigned>(round));
      while (!done.load(std::memory_order_acquire)) {
        if (rng() % 2 == 0) {
          it.Expand(static_cast<int>(rng() % 6));
        } else {
          it.Shrink();
        }
        std::this_thread::yield();
      }
    });

    NextResult last = NextResult::kSuccess;
    BlockPtr block;
    while ((last = it.Next(&ctx, &block)) == NextResult::kSuccess) {
    }
    done.store(true, std::memory_order_release);
    mutator.join();
    EXPECT_EQ(last, NextResult::kError) << "round " << round;
    EXPECT_TRUE(it.failed());
    EXPECT_FALSE(it.Expand(1));
    it.Close();
  }
}

TEST(ElasticLifecycleStress, ShrinkBlockingRacesDrainToCompletion) {
  // ShrinkBlocking spins on the victim's done flag outside the lock; race it
  // against natural completion (workers hitting EOF) and a live consumer.
  constexpr int kRounds = 6;
  for (int round = 0; round < kRounds; ++round) {
    ElasticIterator::Options opts;
    opts.initial_parallelism = 4;
    opts.min_parallelism = 1;
    ElasticIterator it(std::make_unique<CountingSource>(200, 3), opts);
    WorkerContext ctx;
    ASSERT_EQ(it.Open(&ctx), NextResult::kSuccess);
    std::thread shrinker([&] {
      // Keep shrinking until refused (min reached / all drained / closed).
      while (it.ShrinkBlocking() >= 0) {
      }
    });
    Schema schema = OneInt64Schema();
    std::multiset<int64_t> values;
    BlockPtr block;
    while (it.Next(&ctx, &block) == NextResult::kSuccess) {
      for (int r = 0; r < block->num_rows(); ++r) {
        values.insert(schema.GetInt64(block->RowAt(r), 0));
      }
    }
    shrinker.join();
    EXPECT_EQ(values, ExpectedValues(600)) << "round " << round;
    it.Close();
  }
}

TEST(ElasticLifecycleStress, TwoIteratorsChurnOneSharedPark) {
  // Both iterators' workers come from the one process-wide thread park, so
  // a worker shrunk out of one is the likeliest thread for the other's next
  // Expand. One iterator drains under churn while the other is abandoned
  // and closed mid-stream; both must lose nothing they delivered, and Close
  // must leave no task running on either's child.
  constexpr int kRounds = 6;
  constexpr int kBlocks = 120;
  constexpr int kRows = 4;
  for (int round = 0; round < kRounds; ++round) {
    ElasticIterator::Options opts;
    opts.initial_parallelism = 2;
    opts.max_parallelism = 6;
    opts.buffer_capacity_blocks = 4;
    ElasticIterator drained(
        std::make_unique<SlowPassThrough>(
            std::make_unique<CountingSource>(kBlocks, kRows), /*cost_us=*/50),
        opts);
    ElasticIterator abandoned(
        std::make_unique<CountingSource>(100000, kRows, /*delay_us=*/20),
        opts);
    WorkerContext ctx;
    ASSERT_EQ(drained.Open(&ctx), NextResult::kSuccess);
    ASSERT_EQ(abandoned.Open(&ctx), NextResult::kSuccess);

    std::atomic<bool> done{false};
    std::vector<std::thread> mutators;
    for (ElasticIterator* it : {&drained, &abandoned}) {
      mutators.emplace_back([&, it] {
        std::mt19937 rng(static_cast<unsigned>(round * 13) +
                         (it == &drained ? 0u : 1u));
        while (!done.load(std::memory_order_acquire)) {
          switch (rng() % 3) {
            case 0: it->Expand(static_cast<int>(rng() % 6)); break;
            case 1: it->Shrink(); break;
            default: it->ShrinkBlocking(); break;
          }
          std::this_thread::yield();
        }
      });
    }

    std::thread quitter([&] {
      WorkerContext qctx;
      BlockPtr block;
      for (int i = 0; i < 10; ++i) abandoned.Next(&qctx, &block);
      abandoned.Close();
    });
    Schema schema = OneInt64Schema();
    std::multiset<int64_t> values;
    BlockPtr block;
    while (drained.Next(&ctx, &block) == NextResult::kSuccess) {
      for (int r = 0; r < block->num_rows(); ++r) {
        values.insert(schema.GetInt64(block->RowAt(r), 0));
      }
    }
    drained.Close();
    quitter.join();
    done.store(true, std::memory_order_release);
    for (auto& t : mutators) t.join();
    EXPECT_EQ(values, ExpectedValues(kBlocks * kRows)) << "round " << round;
    EXPECT_FALSE(abandoned.Expand(0));
    EXPECT_FALSE(drained.Expand(0));
  }
}

}  // namespace
}  // namespace claims
