#include "matrix/dense_block.h"

#include <gtest/gtest.h>

#include <limits>

namespace dmac {
namespace {

TEST(DenseBlockTest, ConstructsZeroed) {
  DenseBlock b(3, 4);
  EXPECT_EQ(b.rows(), 3);
  EXPECT_EQ(b.cols(), 4);
  for (int64_t c = 0; c < 4; ++c) {
    for (int64_t r = 0; r < 3; ++r) EXPECT_EQ(b.At(r, c), 0.0f);
  }
}

TEST(DenseBlockTest, ConstructsZeroedOverFreedStorage) {
  // A task's accumulator is a freshly constructed block; the allocator may
  // hand it storage a dirtied block of the same shape just gave back.
  for (int round = 0; round < 8; ++round) {
    {
      DenseBlock dirty(16, 16);
      for (int64_t k = 0; k < 16 * 16; ++k) dirty.data()[k] = 1.0f + round;
    }
    DenseBlock fresh(16, 16);
    EXPECT_EQ(fresh.CountNonZeros(), 0) << "round " << round;
  }
}

TEST(DenseBlockTest, SetAndGet) {
  DenseBlock b(2, 2);
  b.Set(0, 1, 3.5f);
  b.Set(1, 0, -2.0f);
  EXPECT_FLOAT_EQ(b.At(0, 1), 3.5f);
  EXPECT_FLOAT_EQ(b.At(1, 0), -2.0f);
  EXPECT_FLOAT_EQ(b.At(0, 0), 0.0f);
}

TEST(DenseBlockTest, ColumnMajorLayout) {
  DenseBlock b(3, 2);
  b.Set(2, 1, 7.0f);
  // Column 1 starts at offset rows()=3; element (2,1) is at offset 5.
  EXPECT_FLOAT_EQ(b.data()[5], 7.0f);
  EXPECT_FLOAT_EQ(b.col(1)[2], 7.0f);
}

TEST(DenseBlockTest, AccumulateAdds) {
  DenseBlock b(2, 2);
  b.Accumulate(1, 1, 2.0f);
  b.Accumulate(1, 1, 3.0f);
  EXPECT_FLOAT_EQ(b.At(1, 1), 5.0f);
}

TEST(DenseBlockTest, CountNonZeros) {
  DenseBlock b(4, 4);
  EXPECT_EQ(b.CountNonZeros(), 0);
  b.Set(0, 0, 1.0f);
  b.Set(3, 3, -1.0f);
  EXPECT_EQ(b.CountNonZeros(), 2);
}

// Every length 0-67 covers each vector tail the compiled scan can take;
// -0.0 counts as zero and NaN as non-zero, as `v != 0` says.
TEST(DenseBlockTest, CountNonZerosOverEveryTailLength) {
  const struct {
    Scalar value;
    bool counted;
  } kPattern[] = {{0.0f, false},
                  {-0.0f, false},
                  {std::numeric_limits<Scalar>::quiet_NaN(), true},
                  {1.5f, true},
                  {-0.0f, false},
                  {-std::numeric_limits<Scalar>::infinity(), true},
                  {0.0f, false}};
  for (int64_t n = 0; n <= 67; ++n) {
    DenseBlock b(n, 1);
    int64_t want = 0;
    for (int64_t i = 0; i < n; ++i) {
      const auto& entry = kPattern[(i * 3 + n) % 7];
      b.Set(i, 0, entry.value);
      want += entry.counted ? 1 : 0;
    }
    EXPECT_EQ(b.CountNonZeros(), want) << "n=" << n;
    EXPECT_EQ(AnyNonZero(b.data(), n), want > 0) << "n=" << n;
  }
}

TEST(DenseBlockTest, AnyNonZeroSeesOneValueAnywhere) {
  // Longer than one scan chunk; -0.0 everywhere else.
  const int64_t n = 1000;
  for (int64_t at : {int64_t{0}, int64_t{255}, int64_t{256}, n - 1}) {
    for (Scalar v : {std::numeric_limits<Scalar>::quiet_NaN(), 1e-30f}) {
      DenseBlock b(n, 1);
      for (int64_t i = 0; i < n; ++i) b.Set(i, 0, -0.0f);
      EXPECT_FALSE(AnyNonZero(b.data(), n));
      b.Set(at, 0, v);
      EXPECT_TRUE(AnyNonZero(b.data(), n)) << "at=" << at << " v=" << v;
    }
  }
}

TEST(DenseBlockTest, MemoryBytesIsFourMN) {
  DenseBlock b(10, 20);
  EXPECT_EQ(b.MemoryBytes(), 4 * 10 * 20);
}

TEST(DenseBlockTest, CopyIsDeep) {
  DenseBlock a(2, 2);
  a.Set(0, 0, 1.0f);
  DenseBlock b = a;
  b.Set(0, 0, 2.0f);
  EXPECT_FLOAT_EQ(a.At(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(b.At(0, 0), 2.0f);
}

TEST(DenseBlockTest, MoveTransfersOwnership) {
  DenseBlock a(2, 2);
  a.Set(1, 1, 4.0f);
  DenseBlock b = std::move(a);
  EXPECT_FLOAT_EQ(b.At(1, 1), 4.0f);
  EXPECT_EQ(a.rows(), 0);  // NOLINT(bugprone-use-after-move): documented state
}

TEST(DenseBlockTest, EmptyBlock) {
  DenseBlock b(0, 0);
  EXPECT_EQ(b.MemoryBytes(), 0);
  EXPECT_EQ(b.CountNonZeros(), 0);
}

}  // namespace
}  // namespace dmac
