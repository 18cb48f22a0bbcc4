#include "core/barrier.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

namespace claims {
namespace {

TEST(DynamicBarrierTest, SingleThreadPassesImmediately) {
  DynamicBarrier b;
  EXPECT_FALSE(b.Register());
  b.Arrive();
  EXPECT_TRUE(b.IsOpen());
}

TEST(DynamicBarrierTest, WaitsForAllRegistered) {
  DynamicBarrier b;
  const int kThreads = 4;
  std::atomic<int> passed{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) b.Register();
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&b, &passed, i] {
      // Stagger arrivals; no thread may pass until the last arrives.
      std::this_thread::sleep_for(std::chrono::milliseconds(5 * i));
      b.Arrive();
      passed.fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(passed.load(), kThreads);
  EXPECT_TRUE(b.IsOpen());
}

TEST(DynamicBarrierTest, LateRegisterAfterOpenIsNoop) {
  DynamicBarrier b;
  b.Register();
  b.Arrive();  // opens
  EXPECT_TRUE(b.Register());  // reports already-open
  b.Arrive();                 // returns immediately (would hang otherwise)
  EXPECT_TRUE(b.IsOpen());
}

TEST(DynamicBarrierTest, DeregisterReleasesWaiters) {
  DynamicBarrier b;
  b.Register();
  b.Register();
  std::atomic<bool> released{false};
  std::thread waiter([&] {
    b.Arrive();
    released.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(released.load());
  // Second worker terminates instead of arriving (broadcastExit).
  b.Deregister();
  waiter.join();
  EXPECT_TRUE(released.load());
}

TEST(DynamicBarrierTest, AllWorkersTerminatingLeavesThePhaseToTheNextJoiner) {
  // Every registered worker left before any arrived: the guarded phase is
  // not done, so a worker registering afterwards must run it, not skip it.
  DynamicBarrier b;
  b.Register();
  b.Register();
  b.Deregister();
  b.Deregister();
  EXPECT_FALSE(b.IsOpen());
  EXPECT_FALSE(b.Register());
  b.Arrive();  // the only registrant completes the phase
  EXPECT_TRUE(b.IsOpen());
}

TEST(DynamicBarrierTest, ExpansionWhileWaiting) {
  DynamicBarrier b;
  b.Register();
  b.Register();
  std::atomic<int> passed{0};
  std::thread w1([&] {
    b.Arrive();
    passed.fetch_add(1);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  // A third worker expands in before the others finished: everyone must wait
  // for it too.
  EXPECT_FALSE(b.Register());
  std::thread w2([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    b.Arrive();
    passed.fetch_add(1);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(passed.load(), 0);
  b.Arrive();  // the expanded worker arrives last
  w1.join();
  w2.join();
  EXPECT_EQ(passed.load(), 2);
}

TEST(DynamicBarrierTest, RegisteredCount) {
  DynamicBarrier b;
  EXPECT_EQ(b.registered(), 0);
  b.Register();
  b.Register();
  EXPECT_EQ(b.registered(), 2);
  b.Deregister();
  EXPECT_EQ(b.registered(), 1);
}

// --- Completion action -----------------------------------------------------------

TEST(DynamicBarrierTest, ActionRunsOnceBeforeAnyWaiterReturns) {
  constexpr int kThreads = 4;
  std::atomic<int> runs{0};
  std::atomic<bool> action_done{false};
  DynamicBarrier b([&] {
    runs.fetch_add(1);
    // Waiters that return before this store would see it unset.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    action_done.store(true);
  });
  for (int i = 0; i < kThreads; ++i) b.Register();
  std::atomic<int> saw_action{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      std::this_thread::sleep_for(std::chrono::milliseconds(3 * i));
      b.Arrive();
      if (action_done.load()) saw_action.fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(runs.load(), 1);
  EXPECT_EQ(saw_action.load(), kThreads);
  // A worker passing an open barrier does not rerun it.
  EXPECT_TRUE(b.Register());
  b.Arrive();
  EXPECT_EQ(runs.load(), 1);
}

TEST(DynamicBarrierTest, DeregisterThatOpensRunsTheAction) {
  std::atomic<int> runs{0};
  std::atomic<bool> action_done{false};
  DynamicBarrier b([&] {
    runs.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    action_done.store(true);
  });
  b.Register();
  b.Register();
  std::atomic<bool> saw_action{false};
  std::thread waiter([&] {
    b.Arrive();
    saw_action.store(action_done.load());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(runs.load(), 0);
  b.Deregister();  // the other worker terminates: it opens the barrier
  EXPECT_EQ(runs.load(), 1);  // in this thread, before Deregister returned
  waiter.join();
  EXPECT_TRUE(saw_action.load());
  EXPECT_EQ(runs.load(), 1);
}

TEST(DynamicBarrierTest, ActionDoesNotRunWhenTheLastRegistrantLeaves) {
  // Nobody arrived, so the phase is not done: the barrier stays closed and
  // the action waits for the worker that completes it.
  int runs = 0;
  DynamicBarrier b([&] { ++runs; });
  b.Register();
  b.Register();
  b.Deregister();
  b.Deregister();
  EXPECT_FALSE(b.IsOpen());
  EXPECT_EQ(runs, 0);
  EXPECT_FALSE(b.Register());
  b.Arrive();
  EXPECT_TRUE(b.IsOpen());
  EXPECT_EQ(runs, 1);
}

}  // namespace
}  // namespace claims
