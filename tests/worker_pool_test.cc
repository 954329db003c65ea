#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/worker_pool.h"

namespace mainline {

/// Regression coverage for the WorkerPool misuse bugs: a task submitted
/// after Shutdown used to be enqueued for workers that no longer exist, so a
/// later WaitUntilAllFinished blocked forever; and the done notification was
/// issued outside the mutex that guards the wait predicate.

TEST(WorkerPoolTest, RejectsSubmitAfterShutdown) {
  common::WorkerPool pool(2);
  std::atomic<int> counter{0};
  EXPECT_TRUE(pool.SubmitTask([&] { counter.fetch_add(1); }));
  pool.WaitUntilAllFinished();
  EXPECT_EQ(counter.load(), 1);

  pool.Shutdown();
  EXPECT_EQ(pool.NumWorkers(), 0u);
  // The rejected task must not be enqueued: WaitUntilAllFinished would
  // otherwise deadlock on a task no worker will ever run.
  EXPECT_FALSE(pool.SubmitTask([&] { counter.fetch_add(1); }));
  pool.WaitUntilAllFinished();  // returns immediately: nothing outstanding
  EXPECT_EQ(counter.load(), 1);
  // Shutdown is idempotent.
  pool.Shutdown();
}

TEST(WorkerPoolTest, ShutdownDrainsPendingTasks) {
  std::atomic<int> counter{0};
  {
    common::WorkerPool pool(2);
    for (int i = 0; i < 64; i++) {
      EXPECT_TRUE(pool.SubmitTask([&] { counter.fetch_add(1); }));
    }
    // Destructor-driven Shutdown drains the queue before joining.
  }
  EXPECT_EQ(counter.load(), 64);
}

/// Hammer the submit/wait handshake: many short waves, with the waiter
/// racing the workers' final decrement every wave. A lost wakeup shows up as
/// this test hanging (and tripping the ctest timeout).
TEST(WorkerPoolTest, WaitNeverMissesTheLastFinish) {
  common::WorkerPool pool(4);
  std::atomic<uint64_t> counter{0};
  for (int wave = 0; wave < 300; wave++) {
    const int tasks = 1 + wave % 7;
    for (int t = 0; t < tasks; t++) {
      EXPECT_TRUE(pool.SubmitTask([&] { counter.fetch_add(1); }));
    }
    pool.WaitUntilAllFinished();
  }
  // 300 waves of (1 + wave % 7) tasks.
  uint64_t expected = 0;
  for (int wave = 0; wave < 300; wave++) expected += static_cast<uint64_t>(1 + wave % 7);
  EXPECT_EQ(counter.load(), expected);
}

/// Waiters on other threads must also see completion (WaitUntilAllFinished
/// is not reserved to the submitting thread).
TEST(WorkerPoolTest, ConcurrentWaitersAllWake) {
  common::WorkerPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 32; i++) {
    pool.SubmitTask([&] {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      counter.fetch_add(1);
    });
  }
  std::atomic<int> woke{0};
  std::thread waiters[3];
  for (auto &w : waiters) {
    w = std::thread([&] {
      pool.WaitUntilAllFinished();
      EXPECT_EQ(counter.load(), 32);
      woke.fetch_add(1);
    });
  }
  for (auto &w : waiters) w.join();
  EXPECT_EQ(woke.load(), 3);
}

namespace {

/// Run common::RunTasks over `n` indices and check that every index in
/// [0, n) was handed to exactly one task call, and no other index at all.
void ExpectEachIndexRunsOnce(common::WorkerPool *pool, uint64_t n) {
  std::vector<std::atomic<uint32_t>> runs(n);
  std::atomic<uint32_t> out_of_range{0};
  common::RunTasks(pool, n, [&](uint64_t i) {
    if (i < n) {
      runs[i].fetch_add(1);
    } else {
      out_of_range.fetch_add(1);
    }
  });
  for (uint64_t i = 0; i < n; i++) EXPECT_EQ(runs[i].load(), 1u) << "index " << i;
  EXPECT_EQ(out_of_range.load(), 0u);
}

}  // namespace

TEST(WorkerPoolTest, RunTasksWithoutAPoolRunsInline) {
  for (const uint64_t n : {1u, 2u, 37u}) ExpectEachIndexRunsOnce(nullptr, n);
}

TEST(WorkerPoolTest, RunTasksOnAShutDownPoolRunsInline) {
  common::WorkerPool pool(2);
  pool.Shutdown();
  for (const uint64_t n : {1u, 2u, 37u}) ExpectEachIndexRunsOnce(&pool, n);
}

TEST(WorkerPoolTest, RunTasksCoversEveryIndexOnLiveWorkers) {
  for (const uint32_t workers : {1u, 4u}) {
    common::WorkerPool pool(workers);
    for (const uint64_t n : {1u, 2u, 4u, 37u, 1000u}) ExpectEachIndexRunsOnce(&pool, n);
  }
}

TEST(WorkerPoolTest, RunTasksWithNoTasksCallsNothing) {
  common::WorkerPool pool(4);
  ExpectEachIndexRunsOnce(nullptr, 0);
  ExpectEachIndexRunsOnce(&pool, 0);
  pool.Shutdown();
  ExpectEachIndexRunsOnce(&pool, 0);
}

}  // namespace mainline
