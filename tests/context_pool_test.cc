#include "core/context_pool.h"

#include <gtest/gtest.h>

namespace claims {
namespace {

struct TestContext : IteratorContext {
  explicit TestContext(int tag) : tag(tag) {}
  int tag;
};

TEST(ContextPoolTest, MatchesCoreOnly) {
  ContextPool pool;
  pool.Release(std::make_unique<TestContext>(1), /*core=*/3);
  EXPECT_EQ(pool.Acquire(/*core=*/4), nullptr);
  EXPECT_EQ(pool.reuse_count(), 0);
  auto ctx = pool.Acquire(/*core=*/3);
  ASSERT_NE(ctx, nullptr);
  EXPECT_EQ(static_cast<TestContext*>(ctx.get())->tag, 1);
  EXPECT_EQ(pool.size(), 0u);
  EXPECT_EQ(pool.reuse_count(), 1);
}

TEST(ContextPoolTest, AcquireFromEmptyReturnsNull) {
  ContextPool pool;
  EXPECT_EQ(pool.Acquire(0), nullptr);
  EXPECT_EQ(pool.reuse_count(), 0);
}

TEST(ContextPoolTest, TakeAllDrains) {
  ContextPool pool;
  pool.Release(std::make_unique<TestContext>(1), 0);
  pool.Release(std::make_unique<TestContext>(2), 1);
  auto all = pool.TakeAll();
  EXPECT_EQ(all.size(), 2u);
  EXPECT_EQ(pool.size(), 0u);
}

TEST(ContextPoolTest, MultipleEntriesPickMatching) {
  ContextPool pool;
  pool.Release(std::make_unique<TestContext>(10), /*core=*/0);
  pool.Release(std::make_unique<TestContext>(20), /*core=*/1);
  auto ctx = pool.Acquire(/*core=*/1);
  ASSERT_NE(ctx, nullptr);
  EXPECT_EQ(static_cast<TestContext*>(ctx.get())->tag, 20);
  EXPECT_EQ(pool.size(), 1u);
}

}  // namespace
}  // namespace claims
