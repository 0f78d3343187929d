#include "matrix/mem_tracker.h"

#include <gtest/gtest.h>

#include <memory>

#include "matrix/block.h"

namespace dmac {
namespace {

TEST(MemTrackerTest, AllocateAndReleaseBalance) {
  MemTracker& t = MemTracker::Global();
  const int64_t before = t.current_bytes();
  t.Allocate(1000);
  EXPECT_EQ(t.current_bytes(), before + 1000);
  t.Release(1000);
  EXPECT_EQ(t.current_bytes(), before);
}

TEST(MemTrackerTest, PeakTracksHighWater) {
  MemTracker& t = MemTracker::Global();
  t.ResetPeak();
  const int64_t base = t.peak_bytes();
  t.Allocate(5000);
  t.Release(5000);
  EXPECT_GE(t.peak_bytes(), base + 5000);
  t.ResetPeak();
  EXPECT_LT(t.peak_bytes(), base + 5000);
}

TEST(MemTrackerTest, DenseBlockLifetimeIsTracked) {
  MemTracker& t = MemTracker::Global();
  const int64_t before = t.current_bytes();
  {
    DenseBlock b(100, 100);
    EXPECT_EQ(t.current_bytes(), before + 4 * 100 * 100);
  }
  EXPECT_EQ(t.current_bytes(), before);
}

TEST(MemTrackerTest, CscBlockLifetimeIsTracked) {
  MemTracker& t = MemTracker::Global();
  const int64_t before = t.current_bytes();
  {
    CscBuilder builder(10, 10);
    for (int i = 0; i < 10; ++i) builder.Add(i, i, 1.0f);
    CscBlock b = builder.Build();
    EXPECT_EQ(t.current_bytes(), before + b.MemoryBytes());
  }
  EXPECT_EQ(t.current_bytes(), before);
}

TEST(MemTrackerTest, LiveBytesReturnToBaselineAsBlocksDie) {
  // The leak rule: live bytes count every outstanding block, dense or
  // sparse, and read their starting value once the last one is gone.
  MemTracker& t = MemTracker::Global();
  const int64_t before = t.current_bytes();
  auto a = std::make_unique<Block>(DenseBlock(4, 4));
  auto b = std::make_unique<Block>(DenseBlock(8, 2));
  CscBuilder builder(6, 6);
  builder.Add(1, 2, 3.0f);
  auto c = std::make_unique<Block>(builder.Build());
  const int64_t a_bytes = a->MemoryBytes();
  const int64_t c_bytes = c->MemoryBytes();
  EXPECT_EQ(t.current_bytes(), before + a_bytes + b->MemoryBytes() + c_bytes);
  b.reset();
  EXPECT_EQ(t.current_bytes(), before + a_bytes + c_bytes);
  a.reset();
  EXPECT_EQ(t.current_bytes(), before + c_bytes);
  c.reset();
  EXPECT_EQ(t.current_bytes(), before);
}

TEST(MemTrackerTest, CopiesCountTwice) {
  MemTracker& t = MemTracker::Global();
  const int64_t before = t.current_bytes();
  DenseBlock a(50, 50);
  DenseBlock b = a;
  EXPECT_EQ(t.current_bytes(), before + 2 * 4 * 50 * 50);
}

TEST(MemTrackerTest, MovesCountOnce) {
  MemTracker& t = MemTracker::Global();
  const int64_t before = t.current_bytes();
  DenseBlock a(50, 50);
  DenseBlock b = std::move(a);
  EXPECT_EQ(t.current_bytes(), before + 4 * 50 * 50);
}

}  // namespace
}  // namespace dmac
