// Differential and property tests for the packed/tiled kernel layer
// (src/matrix/kernels.h) against the seed's reference loops
// (kernel_reference.h), across representations, densities, transpose
// flags, and awkward shapes.
#include "matrix/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "matrix/block_ops.h"
#include "matrix/mem_tracker.h"
#include "kernel_reference.h"

namespace dmac {
namespace {

// Operand flavors: one dense, two sparse densities, and all-zero (the
// column-skip prefilter's home turf).
enum class Flavor { kDense, kSparse30, kSparse5, kZero };

const Flavor kFlavors[] = {Flavor::kDense, Flavor::kSparse30,
                           Flavor::kSparse5, Flavor::kZero};

Block MakeOperand(Flavor f, int64_t rows, int64_t cols, uint64_t seed) {
  switch (f) {
    case Flavor::kDense:
      return RandomDenseBlock(rows, cols, seed);
    case Flavor::kSparse30:
      return RandomSparseBlock(rows, cols, 0.3, seed);
    case Flavor::kSparse5:
      return RandomSparseBlock(rows, cols, 0.05, seed);
    case Flavor::kZero:
      return RandomSparseBlock(rows, cols, 0.0, seed);
  }
  return RandomDenseBlock(rows, cols, seed);
}

const char* FlavorName(Flavor f) {
  switch (f) {
    case Flavor::kDense:
      return "dense";
    case Flavor::kSparse30:
      return "sparse30";
    case Flavor::kSparse5:
      return "sparse5";
    case Flavor::kZero:
      return "zero";
  }
  return "?";
}

/// |got - want| <= tol * (1 + |want|) element-wise; the blocked kernel's
/// k-split accumulation order legitimately differs from the reference.
void ExpectClose(const DenseBlock& got, const DenseBlock& want,
                 const std::string& what, double tol = 2e-3) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  for (int64_t c = 0; c < got.cols(); ++c) {
    for (int64_t r = 0; r < got.rows(); ++r) {
      const double g = got.At(r, c);
      const double w = want.At(r, c);
      ASSERT_LE(std::abs(g - w), tol * (1.0 + std::abs(w)))
          << what << " at (" << r << ", " << c << "): " << g << " vs " << w;
    }
  }
}

void ExpectBitIdentical(const DenseBlock& got, const DenseBlock& want,
                        const std::string& what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  for (int64_t c = 0; c < got.cols(); ++c) {
    for (int64_t r = 0; r < got.rows(); ++r) {
      ASSERT_EQ(got.At(r, c), want.At(r, c))
          << what << " at (" << r << ", " << c << ")";
    }
  }
}

struct Dims {
  int64_t m, k, n;
};

// Degenerate vectors, odd non-tile-multiples, a shape crossing the Mc, Kc
// and Nr boundaries (m > kGemmMc, k > kGemmKc, n > kGemmNr), and a wide one
// whose n > kGemmNc runs the macro-kernel's outer column loop twice.
const Dims kShapes[] = {
    {1, 17, 5}, {13, 1, 9}, {7, 9, 1}, {3, 3, 3},
    {33, 29, 31}, {130, 259, 63}, {9, 17, 1030},
};

// ---- differential: every flavor x flag combo vs the seed loops ----------

TEST(KernelDifferentialTest, AllFlavorsFlagsAndShapesMatchReference) {
  for (const Dims& d : kShapes) {
    for (Flavor fa : kFlavors) {
      for (Flavor fb : kFlavors) {
        for (int ta = 0; ta <= 1; ++ta) {
          for (int tb = 0; tb <= 1; ++tb) {
            // Operands are generated in their *stored* shape.
            const int64_t a_rows = ta ? d.k : d.m;
            const int64_t a_cols = ta ? d.m : d.k;
            const int64_t b_rows = tb ? d.n : d.k;
            const int64_t b_cols = tb ? d.k : d.n;
            const Block a = MakeOperand(fa, a_rows, a_cols, 7 * d.m + ta);
            const Block b = MakeOperand(fb, b_rows, b_cols, 11 * d.n + tb);
            const std::string what =
                std::string(FlavorName(fa)) + "x" + FlavorName(fb) + " " +
                std::to_string(d.m) + "x" + std::to_string(d.k) + "x" +
                std::to_string(d.n) + " ta=" + std::to_string(ta) +
                " tb=" + std::to_string(tb);

            DenseBlock acc(d.m, d.n);
            ASSERT_TRUE(
                MultiplyAccumulate(a, b, ta != 0, tb != 0, &acc).ok())
                << what;

            // Reference: materialize the transposes, run the seed loop for
            // this representation pair.
            const Block ea =
                ta ? Block(testref::DenseTranspose(a)) : Block(a.ToDense());
            const Block eb =
                tb ? Block(testref::DenseTranspose(b)) : Block(b.ToDense());
            DenseBlock ref(d.m, d.n);
            testref::GemmDenseDense(ea.dense(), eb.dense(), &ref);
            ExpectClose(acc, ref, what);

            // And the wide-accumulation oracle, straight off the stored
            // operands (element-wise At() makes it O(m·n·k·log nnz); skip
            // the largest shape to keep the sweep fast).
            if (d.m * d.k * d.n <= 33 * 29 * 31) {
              ExpectClose(acc, testref::WideMultiply(a, b, ta != 0, tb != 0),
                          what + " (wide)");
            }
          }
        }
      }
    }
  }
}

// The untransposed sparse-touching paths add every product in the seed
// loops' order (dense x sparse fuses up to four stored entries per pass
// over C's column, without reordering); their results must be
// bit-identical, not merely close.
TEST(KernelDifferentialTest, UntransposedSparsePathsAreBitIdentical) {
  const Block sa = RandomSparseBlock(37, 29, 0.2, 1);
  const Block sb = RandomSparseBlock(29, 23, 0.25, 2);
  const Block da = RandomDenseBlock(37, 29, 3);
  const Block db = RandomDenseBlock(29, 23, 4);

  {
    DenseBlock acc(37, 23), ref(37, 23);
    ASSERT_TRUE(MultiplyAccumulate(sa, db, false, false, &acc).ok());
    testref::GemmSparseDense(sa.sparse(), db.dense(), &ref);
    ExpectBitIdentical(acc, ref, "sparse x dense");
  }
  {
    DenseBlock acc(37, 23), ref(37, 23);
    ASSERT_TRUE(MultiplyAccumulate(da, sb, false, false, &acc).ok());
    testref::GemmDenseSparse(da.dense(), sb.sparse(), &ref);
    ExpectBitIdentical(acc, ref, "dense x sparse");
  }
  {
    DenseBlock acc(37, 23), ref(37, 23);
    ASSERT_TRUE(MultiplyAccumulate(sa, sb, false, false, &acc).ok());
    testref::GemmSparseSparse(sa.sparse(), sb.sparse(), &ref);
    ExpectBitIdentical(acc, ref, "sparse x sparse");
  }
}

// Bitwise equality, except that any NaN matches any NaN (the payload of a
// NaN sum depends on which operand the compiler puts first).
void ExpectSameBits(const DenseBlock& got, const DenseBlock& want,
                    const std::string& what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  for (int64_t i = 0; i < got.rows() * got.cols(); ++i) {
    const Scalar g = got.data()[i];
    const Scalar w = want.data()[i];
    if (std::isnan(w)) {
      ASSERT_TRUE(std::isnan(g)) << what << " at " << i << ": " << g;
    } else {
      ASSERT_EQ(std::memcmp(&g, &w, sizeof(Scalar)), 0)
          << what << " at " << i << ": " << g << " vs " << w;
    }
  }
}

// The fused dense x sparse pass against the seed's one-axpy-per-entry loop:
// B's columns hold 0-9 stored entries (every remainder of the four-entry
// pass, with and without full passes), and both operands carry -0.0, NaN
// and +-inf.
TEST(KernelDifferentialTest, FusedDenseSparseMatchesSeedLoopBitForBit) {
  const Scalar kSpecial[] = {-0.0f, std::numeric_limits<Scalar>::quiet_NaN(),
                             std::numeric_limits<Scalar>::infinity(),
                             -std::numeric_limits<Scalar>::infinity()};
  const int64_t k = 23;
  const int64_t n = 30;  // column j stores j % 10 entries
  for (int64_t m : {1, 3, 17, 64}) {
    Block a = RandomDenseBlock(m, k, 100 + m);
    for (int64_t i = 0; i < m * k; i += 13) {
      a.dense().data()[i] = kSpecial[(i / 13) % 4];
    }
    std::vector<int32_t> col_ptr{0};
    std::vector<int32_t> row_idx;
    std::vector<Scalar> values;
    const Block vals = RandomDenseBlock(k, n, 200 + m);
    for (int64_t j = 0; j < n; ++j) {
      std::vector<int32_t> rows;
      for (int64_t q = 0; q < j % 10; ++q) {
        rows.push_back(static_cast<int32_t>((j + 2 * q) % k));  // distinct
      }
      std::sort(rows.begin(), rows.end());
      for (int32_t r : rows) {
        row_idx.push_back(r);
        values.push_back((j + r) % 11 == 0 ? kSpecial[(j + r) % 4]
                                           : vals.At(r, j) - 0.5f);
      }
      col_ptr.push_back(static_cast<int32_t>(row_idx.size()));
    }
    const CscBlock b(k, n, std::move(col_ptr), std::move(row_idx),
                     std::move(values));
    // A non-zero starting C, so the loaded value matters.
    const Block c0 = RandomDenseBlock(m, n, 300 + m);
    DenseBlock acc = c0.dense();
    DenseBlock ref = c0.dense();
    ASSERT_TRUE(MultiplyAccumulate(a, Block(b), false, false, &acc).ok());
    testref::GemmDenseSparse(a.dense(), b, &ref);
    ExpectSameBits(acc, ref, "m=" + std::to_string(m));
  }
}

// ---- dense flag combinations are bit-identical ---------------------------
// Packing absorbs the transposes before the micro-kernel runs, so the same
// logical product computed through any flag combination must agree to the
// last bit (the transpose-fusion pass depends on this: fused and unfused
// plans produce identical numerics).

TEST(KernelPropertyTest, DenseFlagCombinationsAreBitIdentical) {
  const int64_t m = 45, k = 75, n = 19;
  const Block a = RandomDenseBlock(m, k, 21);
  const Block b = RandomDenseBlock(k, n, 22);
  const Block at(testref::DenseTranspose(a));  // stored k x m
  const Block bt(testref::DenseTranspose(b));  // stored n x k

  DenseBlock base(m, n);
  ASSERT_TRUE(MultiplyAccumulate(a, b, false, false, &base).ok());

  const struct {
    const Block* a;
    const Block* b;
    bool ta, tb;
    const char* what;
  } combos[] = {
      {&at, &b, true, false, "Ta"},
      {&a, &bt, false, true, "Tb"},
      {&at, &bt, true, true, "TaTb"},
  };
  for (const auto& c : combos) {
    DenseBlock acc(m, n);
    ASSERT_TRUE(MultiplyAccumulate(*c.a, *c.b, c.ta, c.tb, &acc).ok());
    ExpectBitIdentical(acc, base, c.what);
  }
}

// ---- scratch: buffers live exactly as long as the scratch ------------------

TEST(KernelScratchTest, PooledBuffersAreReturnedOnDestruction) {
  const int64_t before = MemTracker::Global().current_bytes();
  {
    GemmScratch scratch;
    const Block a = RandomDenseBlock(30, 40, 7);
    const Block b = RandomDenseBlock(40, 25, 8);
    DenseBlock acc(30, 25);
    const int64_t operands = MemTracker::Global().current_bytes();
    ASSERT_TRUE(
        MultiplyAccumulate(a, b, false, false, &acc, &scratch, nullptr).ok());
    EXPECT_GT(MemTracker::Global().current_bytes(), operands);
  }
  EXPECT_EQ(MemTracker::Global().current_bytes(), before);
}

TEST(KernelScratchTest, MoveTransfersOwnershipOfPooledBuffers) {
  const int64_t before = MemTracker::Global().current_bytes();
  {
    GemmScratch a;
    ASSERT_NE(a.PanelA(64), nullptr);
    GemmScratch b = std::move(a);
    // `a` must not double-free what `b` now owns.
    EXPECT_EQ(MemTracker::Global().current_bytes(),
              before + DenseBlock::MemoryBytesFor(64, 1));
  }
  EXPECT_EQ(MemTracker::Global().current_bytes(), before);
}

// ---- stats ---------------------------------------------------------------

TEST(KernelStatsTest, DenseFlopsAreTwoMNK) {
  const int64_t m = 30, k = 50, n = 20;
  const Block a = RandomDenseBlock(m, k, 9);
  const Block b = RandomDenseBlock(k, n, 10);
  DenseBlock acc(m, n);
  GemmStats stats;
  ASSERT_TRUE(
      MultiplyAccumulate(a, b, false, false, &acc, nullptr, &stats).ok());
  EXPECT_DOUBLE_EQ(stats.flops, 2.0 * m * n * k);
  EXPECT_GE(stats.pack_seconds, 0.0);
}

// ---- vector primitives ---------------------------------------------------

TEST(VecPrimitiveTest, SumAndSumSquaresMatchSequentialAccumulation) {
  std::vector<Scalar> v;
  for (int i = 0; i < 1003; ++i) {
    v.push_back(static_cast<Scalar>(std::sin(i * 0.37) * 2));
  }
  double sum = 0, sq = 0;
  for (Scalar x : v) {
    sum += x;
    sq += static_cast<double>(x) * x;
  }
  EXPECT_NEAR(VecSum(v.data(), static_cast<int64_t>(v.size())), sum, 1e-9);
  EXPECT_NEAR(VecSumSquares(v.data(), static_cast<int64_t>(v.size())), sq,
              1e-9);
}

TEST(VecPrimitiveTest, ShortAndEmptyInputs) {
  const Scalar v[3] = {1.5f, -2.5f, 4.0f};
  EXPECT_DOUBLE_EQ(VecSum(v, 0), 0.0);
  EXPECT_DOUBLE_EQ(VecSum(v, 3), 3.0);
  EXPECT_DOUBLE_EQ(VecSumSquares(v, 3), 1.5 * 1.5 + 2.5 * 2.5 + 16.0);
  EXPECT_EQ(VecColSum(v, 3), 3.0f);
}

}  // namespace
}  // namespace dmac
