#include "matrix/block.h"

#include <gtest/gtest.h>

#include <limits>

#include "matrix/block_ops.h"
#include "matrix/mem_tracker.h"

namespace dmac {
namespace {

Block SmallDense() {
  DenseBlock d(2, 3);
  d.Set(0, 0, 1);
  d.Set(1, 2, 5);
  return Block(std::move(d));
}

Block SmallSparse() {
  CscBuilder b(2, 3);
  b.Add(0, 0, 1);
  b.Add(1, 2, 5);
  return Block(b.Build());
}

TEST(BlockTest, KindDiscrimination) {
  EXPECT_TRUE(SmallDense().IsDense());
  EXPECT_FALSE(SmallDense().IsSparse());
  EXPECT_TRUE(SmallSparse().IsSparse());
  EXPECT_EQ(SmallSparse().kind(), BlockKind::kSparse);
}

// HasNonZero() is nnz() > 0 for both representations: a dense block of
// -0.0 has none, NaN is one, and a sparse block's stored entries count even
// when they are explicit zeros.
TEST(BlockTest, HasNonZeroAgreesWithNnz) {
  DenseBlock d(3, 300);
  for (int64_t c = 0; c < 300; ++c) {
    for (int64_t r = 0; r < 3; ++r) d.Set(r, c, -0.0f);
  }
  Block dense(d);
  EXPECT_EQ(dense.nnz(), 0);
  EXPECT_FALSE(dense.HasNonZero());
  dense.dense().Set(2, 299, std::numeric_limits<Scalar>::quiet_NaN());
  EXPECT_EQ(dense.nnz(), 1);
  EXPECT_TRUE(dense.HasNonZero());

  EXPECT_FALSE(Block(CscBlock(3, 3)).HasNonZero());
  const Block explicit_zero(CscBlock(3, 3, {0, 0, 1, 1}, {1}, {0.0f}));
  EXPECT_EQ(explicit_zero.nnz(), 1);
  EXPECT_TRUE(explicit_zero.HasNonZero());
  EXPECT_TRUE(SmallSparse().HasNonZero());
}

TEST(BlockTest, GenericAccessorsAgreeAcrossFormats) {
  Block d = SmallDense();
  Block s = SmallSparse();
  ASSERT_EQ(d.shape(), s.shape());
  for (int64_t r = 0; r < 2; ++r) {
    for (int64_t c = 0; c < 3; ++c) {
      EXPECT_FLOAT_EQ(d.At(r, c), s.At(r, c));
    }
  }
  EXPECT_EQ(d.nnz(), 2);
  EXPECT_EQ(s.nnz(), 2);
}

TEST(BlockTest, ToDenseFromSparse) {
  DenseBlock d = SmallSparse().ToDense();
  EXPECT_FLOAT_EQ(d.At(0, 0), 1);
  EXPECT_FLOAT_EQ(d.At(1, 2), 5);
  EXPECT_FLOAT_EQ(d.At(0, 1), 0);
}

TEST(BlockTest, ToSparseFromDense) {
  CscBlock s = SmallDense().ToSparse();
  EXPECT_EQ(s.nnz(), 2);
  EXPECT_FLOAT_EQ(s.At(1, 2), 5);
}

TEST(BlockTest, RoundTripPreservesValues) {
  Block original = SmallDense();
  Block round = Block(Block(original.ToSparse()).ToDense());
  EXPECT_TRUE(ApproxEqual(original, round, 0));
}

TEST(BlockTest, TransposedDense) {
  Block t = SmallDense().Transposed();
  EXPECT_EQ(t.rows(), 3);
  EXPECT_EQ(t.cols(), 2);
  EXPECT_FLOAT_EQ(t.At(2, 1), 5);
}

TEST(BlockTest, TransposedSparse) {
  Block t = SmallSparse().Transposed();
  EXPECT_TRUE(t.IsSparse());
  EXPECT_FLOAT_EQ(t.At(0, 0), 1);
  EXPECT_FLOAT_EQ(t.At(2, 1), 5);
}

TEST(BlockTest, CompactedPicksSparseForSparseData) {
  // 2 non-zeros out of 6 = 1/3 density < 0.5 threshold.
  Block c = SmallDense().Compacted(0.5);
  EXPECT_TRUE(c.IsSparse());
}

TEST(BlockTest, CompactedPicksDenseForDenseData) {
  DenseBlock d(2, 2);
  for (int64_t r = 0; r < 2; ++r) {
    for (int64_t c = 0; c < 2; ++c) d.Set(r, c, 1.0f);
  }
  Block sparse(Block(std::move(d)).ToSparse());
  Block c = sparse.Compacted(0.5);
  EXPECT_TRUE(c.IsDense());
}

TEST(BlockTest, CompactedMovesAKeptSparseBlock) {
  Block sparse = RandomSparseBlock(64, 64, 0.05, 3);
  const CscBlock want = sparse.sparse();
  MemTracker::Global().ResetPeak();
  const int64_t before = MemTracker::Global().current_bytes();
  const Block kept = std::move(sparse).Compacted(0.5);
  ASSERT_TRUE(kept.IsSparse());
  EXPECT_EQ(kept.sparse().col_ptr(), want.col_ptr());
  EXPECT_EQ(kept.sparse().row_idx(), want.row_idx());
  EXPECT_EQ(kept.sparse().values(), want.values());
  // Moved, not copied: no second copy was ever live.
  EXPECT_EQ(MemTracker::Global().peak_bytes(), before);
}

TEST(BlockTest, RandomDenseDeterministic) {
  Block a = RandomDenseBlock(8, 8, 77);
  Block b = RandomDenseBlock(8, 8, 77);
  EXPECT_TRUE(ApproxEqual(a, b, 0));
  Block c = RandomDenseBlock(8, 8, 78);
  EXPECT_FALSE(ApproxEqual(a, c, 1e-9));
}

TEST(BlockTest, RandomSparseRespectsSparsityRoughly) {
  Block b = RandomSparseBlock(100, 100, 0.1, 5);
  // Collisions only reduce the count; expect within 15% of target.
  EXPECT_GT(b.nnz(), 850);
  EXPECT_LE(b.nnz(), 1000);
}

TEST(BlockTest, RandomBlockSeedVariesByNameAndIndex) {
  const uint64_t s1 = RandomBlockSeed(1, "W", 0, 0);
  EXPECT_NE(s1, RandomBlockSeed(1, "H", 0, 0));
  EXPECT_NE(s1, RandomBlockSeed(1, "W", 1, 0));
  EXPECT_NE(s1, RandomBlockSeed(1, "W", 0, 1));
  EXPECT_NE(s1, RandomBlockSeed(2, "W", 0, 0));
  EXPECT_EQ(s1, RandomBlockSeed(1, "W", 0, 0));
}

TEST(BlockTest, MemoryBytesTracksRepresentation) {
  Block d = SmallDense();
  Block s = SmallSparse();
  EXPECT_EQ(d.MemoryBytes(), 4 * 2 * 3);
  EXPECT_EQ(s.MemoryBytes(), 4 * 4 + 8 * 2);
}

}  // namespace
}  // namespace dmac
