#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

namespace dmac {
namespace {

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 1000; ++i) {
    pool.Submit([&count] { count.fetch_add(1); });
  }
  pool.WaitIdle();
  EXPECT_EQ(count.load(), 1000);
}

TEST(ThreadPoolTest, ZeroThreadsClampedToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::atomic<bool> ran{false};
  pool.Submit([&ran] { ran = true; });
  pool.WaitIdle();
  EXPECT_TRUE(ran.load());
}

TEST(ThreadPoolTest, WaitIdleOnEmptyPoolReturnsImmediately) {
  ThreadPool pool(2);
  pool.WaitIdle();  // must not hang
  SUCCEED();
}

TEST(ThreadPoolTest, WaitIdleBlocksUntilInFlightTaskCompletes) {
  ThreadPool pool(2);
  std::atomic<bool> done{false};
  pool.Submit([&done] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    done = true;
  });
  pool.WaitIdle();
  EXPECT_TRUE(done.load());
}

TEST(ThreadPoolTest, ReusableAcrossWaves) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  for (int wave = 0; wave < 5; ++wave) {
    for (int i = 0; i < 100; ++i) pool.Submit([&count] { ++count; });
    pool.WaitIdle();
    EXPECT_EQ(count.load(), (wave + 1) * 100);
  }
}

TEST(ThreadPoolTest, TasksRunConcurrently) {
  ThreadPool pool(2);
  std::atomic<int> running{0};
  std::atomic<int> max_running{0};
  for (int i = 0; i < 8; ++i) {
    pool.Submit([&] {
      const int now = ++running;
      int prev = max_running.load();
      while (now > prev && !max_running.compare_exchange_weak(prev, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      --running;
    });
  }
  pool.WaitIdle();
  EXPECT_GE(max_running.load(), 2);
}

TEST(ThreadPoolTest, DestructorDrainsQueue) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) pool.Submit([&count] { ++count; });
    // No WaitIdle: destructor must still run queued tasks or drain safely.
  }
  // All tasks either ran or the pool shut down without crashing.
  EXPECT_LE(count.load(), 50);
}

// --- Cooperative cancellation (docs/governance.md) -------------------------
//
// Tasks submitted with an abandon flag are popped and skipped — never run —
// once the flag is set, both by the worker loop and by the destructor's
// drain. A gate task pins the pool's only thread so the queue state when
// the flag flips is deterministic.

TEST(ThreadPoolTest, AbandonedQueuedTasksNeverRun) {
  ThreadPool pool(1);
  std::atomic<bool> gate{false};
  std::atomic<bool> abandon{false};
  std::atomic<int> ran{0};

  pool.Submit([&gate] {
    while (!gate.load()) std::this_thread::yield();
  });
  for (int i = 0; i < 16; ++i) {
    pool.Submit(&abandon, [&ran] { ++ran; });
  }
  // Everything behind the gate is still queued; firing the flag now must
  // skip all 16, deterministically.
  abandon.store(true);
  gate.store(true);
  pool.WaitIdle();  // skipped tasks count as completed
  EXPECT_EQ(ran.load(), 0);
}

TEST(ThreadPoolTest, UnsetFlagAndNullFlagTasksRunNormally) {
  ThreadPool pool(2);
  std::atomic<bool> abandon{false};
  std::atomic<int> ran{0};
  for (int i = 0; i < 8; ++i) pool.Submit(&abandon, [&ran] { ++ran; });
  for (int i = 0; i < 8; ++i) pool.Submit(nullptr, [&ran] { ++ran; });
  pool.WaitIdle();
  EXPECT_EQ(ran.load(), 16);
}

TEST(ThreadPoolTest, AbandonmentIsSelective) {
  ThreadPool pool(1);
  std::atomic<bool> gate{false};
  std::atomic<bool> cancelled{false};
  std::atomic<bool> live{false};
  std::atomic<int> cancelled_ran{0};
  std::atomic<int> live_ran{0};

  pool.Submit([&gate] {
    while (!gate.load()) std::this_thread::yield();
  });
  // Interleave two queries' tasks; only one query's flag fires.
  for (int i = 0; i < 8; ++i) {
    pool.Submit(&cancelled, [&cancelled_ran] { ++cancelled_ran; });
    pool.Submit(&live, [&live_ran] { ++live_ran; });
  }
  cancelled.store(true);
  gate.store(true);
  pool.WaitIdle();
  EXPECT_EQ(cancelled_ran.load(), 0);
  EXPECT_EQ(live_ran.load(), 8);
}

TEST(ThreadPoolTest, DestructorDrainSkipsAbandonedTasks) {
  std::atomic<bool> abandon{false};
  std::atomic<bool> gate{false};
  std::atomic<int> ran{0};
  {
    ThreadPool pool(1);
    pool.Submit([&gate] {
      while (!gate.load()) std::this_thread::yield();
    });
    for (int i = 0; i < 32; ++i) {
      pool.Submit(&abandon, [&ran] { ++ran; });
    }
    abandon.store(true);
    gate.store(true);
    // No WaitIdle: shutdown's drain must observe the flag and skip every
    // queued task, deterministically.
  }
  EXPECT_EQ(ran.load(), 0);
}

TEST(ThreadPoolTest, FlagSetAfterTaskStartedDoesNotInterrupt) {
  ThreadPool pool(1);
  std::atomic<bool> abandon{false};
  std::atomic<bool> started{false};
  std::atomic<bool> finished{false};
  pool.Submit(&abandon, [&] {
    started.store(true);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    finished.store(true);
  });
  while (!started.load()) std::this_thread::yield();
  abandon.store(true);  // too late — a running task is cooperative
  pool.WaitIdle();
  EXPECT_TRUE(finished.load());
}

// --- Per-batch completion and the compute pool's size ----------------------

TEST(ThreadPoolTest, TaskGroupWaitsOnlyForItsOwnTasks) {
  ThreadPool pool(2);
  std::atomic<bool> release{false};
  std::atomic<bool> other_done{false};
  pool.Submit([&] {
    // Bounded, so a group that waited for the whole pool fails, not hangs.
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (!release && std::chrono::steady_clock::now() < give_up) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    other_done = true;
  });
  TaskGroup group;
  std::atomic<int> ran{0};
  for (int i = 0; i < 16; ++i) pool.Submit(nullptr, [&ran] { ++ran; }, &group);
  group.Wait();
  EXPECT_EQ(ran.load(), 16);
  EXPECT_FALSE(other_done.load());
  release = true;
  pool.WaitIdle();
}

TEST(ThreadPoolTest, TaskGroupCountsAbandonedTasks) {
  ThreadPool pool(1);
  std::atomic<bool> gate{false};
  std::atomic<bool> abandon{false};
  std::atomic<int> ran{0};
  pool.Submit([&gate] {
    while (!gate.load()) std::this_thread::yield();
  });
  TaskGroup group;
  for (int i = 0; i < 8; ++i) pool.Submit(&abandon, [&ran] { ++ran; }, &group);
  abandon.store(true);
  gate.store(true);
  group.Wait();  // must not hang: skipped tasks are done
  EXPECT_EQ(ran.load(), 0);
}

TEST(ThreadPoolTest, ComputePoolThreadsIsCappedAndPositive) {
  EXPECT_EQ(ComputePoolThreads(1, 1), 1u);
  EXPECT_EQ(ComputePoolThreads(0, 0), 1u);
  const size_t threads = ComputePoolThreads(4, 2);
  EXPECT_GE(threads, 1u);
  EXPECT_LE(threads, 8u);
  EXPECT_LE(ComputePoolThreads(4, 2), ComputePoolThreads(64, 2));
}

}  // namespace
}  // namespace dmac
