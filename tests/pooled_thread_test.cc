// PooledThread: tasks run on parked threads that are reused, the park never
// bounds concurrency, and join() gives a joined std::thread's guarantees —
// the task's callable is gone and its pool magazines are back in the pool.

#include "core/pooled_thread.h"

#include <gtest/gtest.h>

#include <condition_variable>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "mem/block_pool.h"

namespace claims {
namespace {

TEST(PooledThreadTest, SequentialTasksReuseOneThread) {
  std::set<std::thread::id> ran_on;
  for (int i = 0; i < 100; ++i) {
    PooledThread t([&ran_on] { ran_on.insert(std::this_thread::get_id()); });
    t.join();
  }
  EXPECT_EQ(ran_on.size(), 1u);
  EXPECT_EQ(ran_on.count(std::this_thread::get_id()), 0u);
}

TEST(PooledThreadTest, ParkNeverBoundsConcurrency) {
  // Every task waits for all the others: they finish only if each one got
  // its own thread at the same time.
  constexpr int kTasks = 16;
  std::mutex mu;
  std::condition_variable cv;
  int arrived = 0;
  std::vector<PooledThread> tasks;
  for (int i = 0; i < kTasks; ++i) {
    tasks.emplace_back([&] {
      std::unique_lock<std::mutex> lock(mu);
      ++arrived;
      cv.notify_all();
      cv.wait(lock, [&] { return arrived == kTasks; });
    });
  }
  for (PooledThread& t : tasks) t.join();
  EXPECT_EQ(arrived, kTasks);
}

TEST(PooledThreadTest, CapturedStateIsReleasedBeforeJoinReturns) {
  auto state = std::make_shared<int>(7);
  std::weak_ptr<int> watch = state;
  PooledThread t([state = std::move(state)] { EXPECT_EQ(*state, 7); });
  t.join();
  EXPECT_TRUE(watch.expired());
}

TEST(PooledThreadTest, JoinFindsTheTasksChunksInTheCentralTier) {
  // Eight chunks fit one magazine, so without the retire step they would
  // stay with the parked thread and the central tier would read zero.
  BlockPool pool;
  constexpr int kChunks = 8;
  constexpr size_t kBytes = 64 << 10;
  PooledThread t([&pool] {
    std::vector<PoolAlloc> chunks;
    for (int i = 0; i < kChunks; ++i) chunks.push_back(pool.Allocate(kBytes));
    for (const PoolAlloc& a : chunks) pool.Release(a);
  });
  t.join();
  BlockPool::Stats stats = pool.GetStats();
  EXPECT_EQ(stats.live_bytes, 0);
  EXPECT_EQ(stats.central_bytes, kChunks * static_cast<int64_t>(kBytes));
}

TEST(PooledThreadTest, DefaultAndMovedFromHandlesAreNotJoinable) {
  PooledThread idle;
  EXPECT_FALSE(idle.joinable());

  PooledThread running([] {});
  EXPECT_TRUE(running.joinable());
  PooledThread moved(std::move(running));
  EXPECT_FALSE(running.joinable());
  EXPECT_TRUE(moved.joinable());
  moved.join();
  EXPECT_FALSE(moved.joinable());

  idle = PooledThread([] {});
  EXPECT_TRUE(idle.joinable());
  idle.join();
  EXPECT_FALSE(idle.joinable());
}

}  // namespace
}  // namespace claims
