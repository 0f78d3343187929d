#include "runtime/buffer_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <utility>
#include <vector>

namespace dmac {
namespace {

TEST(BufferPoolTest, AcquireReturnsZeroedBlock) {
  BufferPool pool;
  DenseBlock b = pool.Acquire(4, 5);
  EXPECT_EQ(b.rows(), 4);
  EXPECT_EQ(b.cols(), 5);
  EXPECT_EQ(b.CountNonZeros(), 0);
}

TEST(BufferPoolTest, RecyclesReleasedBlocks) {
  BufferPool pool;
  DenseBlock b = pool.Acquire(8, 8);
  b.Set(0, 0, 1.0f);
  pool.Release(std::move(b));
  EXPECT_EQ(pool.IdleBlocks(), 1u);
  DenseBlock again = pool.Acquire(8, 8);
  EXPECT_EQ(pool.IdleBlocks(), 0u);
  // Recycled block must come back clean.
  EXPECT_EQ(again.CountNonZeros(), 0);
}

TEST(BufferPoolTest, ShapesAreSegregated) {
  BufferPool pool;
  pool.Release(DenseBlock(2, 2));
  DenseBlock other = pool.Acquire(3, 3);
  EXPECT_EQ(other.rows(), 3);
  EXPECT_EQ(pool.IdleBlocks(), 1u);  // the 2x2 is still idle
}

TEST(BufferPoolTest, CapacityBoundPerShape) {
  BufferPool pool(/*max_per_shape=*/2);
  pool.Release(DenseBlock(4, 4));
  pool.Release(DenseBlock(4, 4));
  pool.Release(DenseBlock(4, 4));  // dropped
  EXPECT_EQ(pool.IdleBlocks(), 2u);
}

TEST(BufferPoolTest, ConcurrentAcquireRelease) {
  // Every block goes back fully dirtied; recycled blocks are zeroed outside
  // the pool's lock, so each acquire must still come back clean.
  BufferPool pool(8);
  std::atomic<int> dirty_acquires{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&pool, &dirty_acquires, t] {
      for (int i = 0; i < 200; ++i) {
        DenseBlock b = pool.Acquire(16, 16);
        if (b.CountNonZeros() != 0) dirty_acquires.fetch_add(1);
        for (int64_t k = 0; k < 16 * 16; ++k) b.data()[k] = 1.0f + t;
        pool.Release(std::move(b));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(dirty_acquires.load(), 0);
  EXPECT_LE(pool.IdleBlocks(), 8u);
  EXPECT_EQ(pool.Acquire(16, 16).CountNonZeros(), 0);
}

TEST(BufferPoolTest, DisownedBlockLeavesTheBooks) {
  const int64_t before = BufferPool::GlobalOutstandingBlocks();
  BufferPool pool;
  DenseBlock kept = pool.Acquire(4, 4);
  EXPECT_EQ(BufferPool::GlobalOutstandingBlocks(), before + 1);
  pool.Disown(kept);
  EXPECT_EQ(BufferPool::GlobalOutstandingBlocks(), before);
  EXPECT_EQ(pool.IdleBlocks(), 0u);
  EXPECT_EQ(kept.rows(), 4);  // the caller still owns the storage
}

TEST(BufferPoolTest, TracksGlobalOutstandingBlocks) {
  const int64_t before = BufferPool::GlobalOutstandingBlocks();
  BufferPool pool;
  DenseBlock a = pool.Acquire(4, 4);
  DenseBlock b = pool.Acquire(4, 4);
  EXPECT_EQ(BufferPool::GlobalOutstandingBlocks(), before + 2);
  pool.Release(std::move(a));
  EXPECT_EQ(BufferPool::GlobalOutstandingBlocks(), before + 1);
  pool.Release(std::move(b));
  EXPECT_EQ(BufferPool::GlobalOutstandingBlocks(), before);
}

}  // namespace
}  // namespace dmac
