#include "matrix/block_ops.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace dmac {
namespace {

/// Reference dense multiply for oracle checks.
DenseBlock NaiveMultiply(const Block& a, const Block& b) {
  DenseBlock c(a.rows(), b.cols());
  for (int64_t i = 0; i < a.rows(); ++i) {
    for (int64_t j = 0; j < b.cols(); ++j) {
      double acc = 0;
      for (int64_t k = 0; k < a.cols(); ++k) {
        acc += static_cast<double>(a.At(i, k)) * b.At(k, j);
      }
      c.Set(i, j, static_cast<Scalar>(acc));
    }
  }
  return c;
}

Block MakeOperand(bool sparse, int64_t rows, int64_t cols, uint64_t seed,
                  double sparsity = 0.3) {
  return sparse ? RandomSparseBlock(rows, cols, sparsity, seed)
                : RandomDenseBlock(rows, cols, seed);
}

// ---- multiply: all four representation combinations --------------------

class MultiplyFormatsTest
    : public ::testing::TestWithParam<std::tuple<bool, bool>> {};

TEST_P(MultiplyFormatsTest, MatchesNaiveOracle) {
  const auto [a_sparse, b_sparse] = GetParam();
  Block a = MakeOperand(a_sparse, 9, 13, 1);
  Block b = MakeOperand(b_sparse, 13, 7, 2);
  auto c = Multiply(a, b);
  ASSERT_TRUE(c.ok()) << c.status();
  DenseBlock expected = NaiveMultiply(a, b);
  EXPECT_TRUE(ApproxEqual(*c, Block(expected), 1e-3));
}

TEST_P(MultiplyFormatsTest, AccumulateAddsOnTopOfExisting) {
  const auto [a_sparse, b_sparse] = GetParam();
  Block a = MakeOperand(a_sparse, 5, 6, 3);
  Block b = MakeOperand(b_sparse, 6, 4, 4);
  DenseBlock acc(5, 4);
  acc.Set(0, 0, 100.0f);
  ASSERT_TRUE(MultiplyAccumulate(a, b, &acc).ok());
  DenseBlock expected = NaiveMultiply(a, b);
  EXPECT_NEAR(acc.At(0, 0), expected.At(0, 0) + 100.0f, 1e-2);
  EXPECT_NEAR(acc.At(3, 3), expected.At(3, 3), 1e-3);
}

INSTANTIATE_TEST_SUITE_P(
    AllFormats, MultiplyFormatsTest,
    ::testing::Combine(::testing::Bool(), ::testing::Bool()),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) ? "SparseA" : "DenseA") +
             (std::get<1>(info.param) ? "SparseB" : "DenseB");
    });

TEST(MultiplyTest, DimensionMismatchRejected) {
  Block a = RandomDenseBlock(3, 4, 1);
  Block b = RandomDenseBlock(5, 2, 2);
  EXPECT_EQ(Multiply(a, b).status().code(), StatusCode::kDimensionMismatch);
}

TEST(MultiplyTest, AccumulatorShapeChecked) {
  Block a = RandomDenseBlock(3, 4, 1);
  Block b = RandomDenseBlock(4, 2, 2);
  DenseBlock acc(3, 3);
  EXPECT_EQ(MultiplyAccumulate(a, b, &acc).code(),
            StatusCode::kDimensionMismatch);
}

TEST(MultiplyTest, IdentityIsNeutral) {
  Block a = RandomDenseBlock(6, 6, 9);
  CscBuilder eye(6, 6);
  for (int i = 0; i < 6; ++i) eye.Add(i, i, 1.0f);
  Block id(eye.Build());
  auto left = Multiply(id, a);
  auto right = Multiply(a, id);
  ASSERT_TRUE(left.ok() && right.ok());
  EXPECT_TRUE(ApproxEqual(*left, a, 1e-5));
  EXPECT_TRUE(ApproxEqual(*right, a, 1e-5));
}

TEST(MultiplySparseTest, MatchesDenseMultiply) {
  Block a = RandomSparseBlock(12, 15, 0.2, 5);
  Block b = RandomSparseBlock(15, 9, 0.2, 6);
  auto sparse = MultiplySparseChain({{&a.sparse(), &b.sparse()}}, 12, 9);
  ASSERT_TRUE(sparse.ok());
  auto dense = Multiply(a, b);
  ASSERT_TRUE(dense.ok());
  EXPECT_TRUE(ApproxEqual(Block(*sparse), *dense, 1e-3));
}

TEST(MultiplySparseTest, ResultIsStructurallySparse) {
  CscBuilder ab(4, 4);
  ab.Add(0, 0, 2.0f);
  Block a(ab.Build());
  auto c = MultiplySparseChain({{&a.sparse(), &a.sparse()}}, 4, 4);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->nnz(), 1);
  EXPECT_FLOAT_EQ(c->At(0, 0), 4.0f);
}

TEST(MultiplySparseTest, DimensionMismatchRejected) {
  CscBlock a(3, 4), b(5, 6);
  EXPECT_FALSE(MultiplySparseChain({{&a, &b}}, 3, 6).ok());
}

// ---- element-wise operators across format combinations ------------------

class CellwiseFormatsTest
    : public ::testing::TestWithParam<std::tuple<bool, bool>> {
 protected:
  void SetUp() override {
    const auto [a_sparse, b_sparse] = GetParam();
    a_ = MakeOperand(a_sparse, 8, 11, 21);
    b_ = MakeOperand(b_sparse, 8, 11, 22);
  }
  Block a_, b_;
};

TEST_P(CellwiseFormatsTest, AddMatchesElementwise) {
  auto c = Cellwise({CellOp::kAdd}, a_, &b_);
  ASSERT_TRUE(c.ok());
  for (int64_t r = 0; r < 8; ++r) {
    for (int64_t j = 0; j < 11; ++j) {
      EXPECT_NEAR(c->At(r, j), a_.At(r, j) + b_.At(r, j), 1e-5);
    }
  }
}

TEST_P(CellwiseFormatsTest, SubtractMatchesElementwise) {
  auto c = Cellwise({CellOp::kSubtract}, a_, &b_);
  ASSERT_TRUE(c.ok());
  for (int64_t r = 0; r < 8; ++r) {
    for (int64_t j = 0; j < 11; ++j) {
      EXPECT_NEAR(c->At(r, j), a_.At(r, j) - b_.At(r, j), 1e-5);
    }
  }
}

TEST_P(CellwiseFormatsTest, CellMultiplyMatchesElementwise) {
  auto c = Cellwise({CellOp::kMultiply}, a_, &b_);
  ASSERT_TRUE(c.ok());
  for (int64_t r = 0; r < 8; ++r) {
    for (int64_t j = 0; j < 11; ++j) {
      EXPECT_NEAR(c->At(r, j), a_.At(r, j) * b_.At(r, j), 1e-5);
    }
  }
}

TEST_P(CellwiseFormatsTest, SubtractSelfIsZero) {
  auto c = Cellwise({CellOp::kSubtract}, a_, &a_);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->nnz(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    AllFormats, CellwiseFormatsTest,
    ::testing::Combine(::testing::Bool(), ::testing::Bool()),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) ? "SparseA" : "DenseA") +
             (std::get<1>(info.param) ? "SparseB" : "DenseB");
    });

TEST(CellwiseTest, AddKeepsSparseWhenBothSparse) {
  Block a = RandomSparseBlock(10, 10, 0.1, 1);
  Block b = RandomSparseBlock(10, 10, 0.1, 2);
  auto c = Cellwise({CellOp::kAdd}, a, &b);
  ASSERT_TRUE(c.ok());
  EXPECT_TRUE(c->IsSparse());
}

TEST(CellwiseTest, CellMultiplyKeepsSparseWhenEitherSparse) {
  Block a = RandomSparseBlock(10, 10, 0.1, 1);
  Block b = RandomDenseBlock(10, 10, 2);
  auto c = Cellwise({CellOp::kMultiply}, a, &b);
  ASSERT_TRUE(c.ok());
  EXPECT_TRUE(c->IsSparse());
  auto c2 = Cellwise({CellOp::kMultiply}, b, &a);
  ASSERT_TRUE(c2.ok());
  EXPECT_TRUE(c2->IsSparse());
}

TEST(CellwiseTest, DivideSparseNumeratorKeepsPattern) {
  CscBuilder nb(2, 2);
  nb.Add(0, 0, 6.0f);
  Block num(nb.Build());
  Block den = RandomDenseBlock(2, 2, 3);
  auto c = Cellwise({CellOp::kDivide}, num, &den);
  ASSERT_TRUE(c.ok());
  EXPECT_TRUE(c->IsSparse());
  EXPECT_EQ(c->nnz(), 1);
  EXPECT_NEAR(c->At(0, 0), 6.0f / den.At(0, 0), 1e-4);
}

TEST(CellwiseTest, DivideByZeroYieldsInf) {
  DenseBlock n(1, 1), d(1, 1);
  n.Set(0, 0, 1.0f);
  const Block den(std::move(d));
  auto c = Cellwise({CellOp::kDivide}, Block(std::move(n)), &den);
  ASSERT_TRUE(c.ok());
  EXPECT_TRUE(std::isinf(c->At(0, 0)));
}

TEST(CellwiseTest, ShapeMismatchRejected) {
  Block a = RandomDenseBlock(2, 3, 1);
  Block b = RandomDenseBlock(3, 2, 2);
  EXPECT_FALSE(Cellwise({CellOp::kAdd}, a, &b).ok());
  EXPECT_FALSE(Cellwise({CellOp::kSubtract}, a, &b).ok());
  EXPECT_FALSE(Cellwise({CellOp::kMultiply}, a, &b).ok());
  EXPECT_FALSE(Cellwise({CellOp::kDivide}, a, &b).ok());
}

// ---- scalar ops, reductions, compaction ---------------------------------

TEST(ScalarOpsTest, MultiplyScalesBothFormats) {
  for (bool sparse : {false, true}) {
    Block a = MakeOperand(sparse, 5, 5, 31);
    Block c = *Cellwise({CellOp::kScale, 2.0f}, a);
    EXPECT_EQ(c.IsSparse(), sparse);
    for (int64_t r = 0; r < 5; ++r) {
      for (int64_t j = 0; j < 5; ++j) {
        EXPECT_NEAR(c.At(r, j), 2.0f * a.At(r, j), 1e-5);
      }
    }
  }
}

TEST(ScalarOpsTest, AddZeroIsIdentity) {
  Block a = RandomSparseBlock(5, 5, 0.2, 31);
  Block c = *Cellwise({CellOp::kShift, 0.0f}, a);
  EXPECT_TRUE(c.IsSparse());
  EXPECT_TRUE(ApproxEqual(a, c, 0));
}

TEST(ScalarOpsTest, AddNonZeroDensifiesSparse) {
  Block a = RandomSparseBlock(5, 5, 0.2, 31);
  Block c = *Cellwise({CellOp::kShift, 1.0f}, a);
  EXPECT_TRUE(c.IsDense());
  EXPECT_NEAR(c.At(0, 0), a.At(0, 0) + 1.0f, 1e-5);
}

TEST(ReductionTest, SumMatchesBothFormats) {
  Block d = RandomDenseBlock(7, 7, 41);
  Block s(d.ToSparse());
  EXPECT_NEAR(Sum(d), Sum(s), 1e-3);
  double manual = 0;
  for (int64_t r = 0; r < 7; ++r) {
    for (int64_t c = 0; c < 7; ++c) manual += d.At(r, c);
  }
  EXPECT_NEAR(Sum(d), manual, 1e-3);
}

TEST(ReductionTest, SumSquaresIsNonNegativeAndExact) {
  Block d = RandomDenseBlock(6, 3, 43);
  double manual = 0;
  for (int64_t r = 0; r < 6; ++r) {
    for (int64_t c = 0; c < 3; ++c) {
      manual += static_cast<double>(d.At(r, c)) * d.At(r, c);
    }
  }
  EXPECT_NEAR(SumSquares(d), manual, 1e-4);
  EXPECT_GE(SumSquares(d), 0);
}

TEST(CompactTest, FromDenseKeepsValuesBothWays) {
  DenseBlock dense(4, 4);
  dense.Set(1, 2, 3.0f);
  Block sparse_out = CompactFromDense(&dense, 0.5);
  EXPECT_TRUE(sparse_out.IsSparse());
  EXPECT_FLOAT_EQ(sparse_out.At(1, 2), 3.0f);

  for (int64_t r = 0; r < 4; ++r) {
    for (int64_t c = 0; c < 4; ++c) dense.Set(r, c, 1.0f);
  }
  Block dense_out = CompactFromDense(&dense, 0.5);
  EXPECT_TRUE(dense_out.IsDense());
}

TEST(ApproxEqualTest, DetectsDifferences) {
  Block a = RandomDenseBlock(3, 3, 50);
  Block b = a;
  EXPECT_TRUE(ApproxEqual(a, b, 0));
  b.dense().Set(2, 2, b.dense().At(2, 2) + 1.0f);
  EXPECT_FALSE(ApproxEqual(a, b, 0.5));
  EXPECT_TRUE(ApproxEqual(a, b, 1.5));
}

TEST(ApproxEqualTest, ShapeMismatchIsNotEqual) {
  EXPECT_FALSE(ApproxEqual(RandomDenseBlock(2, 3, 1),
                           RandomDenseBlock(3, 2, 1), 100));
}

// ---- algebraic property sweep -------------------------------------------

class AlgebraPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(AlgebraPropertyTest, MultiplyTransposeIdentity) {
  // (A·B)^T == B^T · A^T
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  Block a = MakeOperand(seed % 2 == 0, 6, 8, seed);
  Block b = MakeOperand(seed % 3 == 0, 8, 5, seed + 100);
  auto ab = Multiply(a, b);
  ASSERT_TRUE(ab.ok());
  auto btat = Multiply(b.Transposed(), a.Transposed());
  ASSERT_TRUE(btat.ok());
  EXPECT_TRUE(ApproxEqual(ab->Transposed(), *btat, 1e-3));
}

TEST_P(AlgebraPropertyTest, DistributiveLaw) {
  // A·(B + C) == A·B + A·C
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  Block a = MakeOperand(seed % 2 == 1, 5, 6, seed);
  Block b = MakeOperand(false, 6, 4, seed + 1);
  Block c = MakeOperand(true, 6, 4, seed + 2);
  auto bc = Cellwise({CellOp::kAdd}, b, &c);
  ASSERT_TRUE(bc.ok());
  auto lhs = Multiply(a, *bc);
  auto ab = Multiply(a, b);
  auto ac = Multiply(a, c);
  ASSERT_TRUE(lhs.ok() && ab.ok() && ac.ok());
  auto rhs = Cellwise({CellOp::kAdd}, *ab, &*ac);
  ASSERT_TRUE(rhs.ok());
  EXPECT_TRUE(ApproxEqual(*lhs, *rhs, 1e-2));
}

INSTANTIATE_TEST_SUITE_P(Seeds, AlgebraPropertyTest,
                         ::testing::Range(1, 11));

// ---- ApproxEqual across representations ---------------------------------
// The rewrite walks stored structures directly (two-pointer union for
// sparse/sparse, pointer-advance for sparse/dense) instead of calling At()
// per element; these pin down equal behavior across every pairing.

TEST(ApproxEqualRepresentationTest, AllPairingsAgreeOnEquality) {
  const Block sp = RandomSparseBlock(40, 30, 0.15, 77);
  const Block dn(sp.ToDense());
  EXPECT_TRUE(ApproxEqual(sp, sp, 0));
  EXPECT_TRUE(ApproxEqual(sp, dn, 0));
  EXPECT_TRUE(ApproxEqual(dn, sp, 0));
  EXPECT_TRUE(ApproxEqual(dn, dn, 0));
}

TEST(ApproxEqualRepresentationTest, DetectsDifferenceInEveryPairing) {
  const Block sp = RandomSparseBlock(40, 30, 0.15, 78);
  DenseBlock bumped = sp.ToDense();
  bumped.Set(39, 29, bumped.At(39, 29) + 1.0f);  // outside typical pattern
  const Block dn(std::move(bumped));
  EXPECT_FALSE(ApproxEqual(sp, dn, 0.5));
  EXPECT_FALSE(ApproxEqual(dn, sp, 0.5));
  EXPECT_TRUE(ApproxEqual(sp, dn, 1.5));
}

TEST(ApproxEqualRepresentationTest, DisjointSparsePatternsCompareByValue) {
  // Entries present in only one operand must compare against zero.
  CscBuilder ba(5, 5), bb(5, 5);
  ba.Add(1, 1, 0.5f);
  bb.Add(3, 3, 0.5f);
  const Block a(ba.Build());
  const Block b(bb.Build());
  EXPECT_FALSE(ApproxEqual(a, b, 0.4));
  EXPECT_TRUE(ApproxEqual(a, b, 0.6));
}

TEST(ApproxEqualRepresentationTest, ExplicitZerosEqualAbsentEntries) {
  CscBuilder ba(4, 4);
  ba.Add(2, 2, 0.0f);  // explicitly stored zero
  const Block a(ba.Build());
  const Block empty(CscBuilder(4, 4).Build());
  EXPECT_TRUE(ApproxEqual(a, empty, 0));
  EXPECT_TRUE(ApproxEqual(empty, a, 0));
}

// ---- SumBlocks sparse aggregation ---------------------------------------

TEST(SumBlocksTest, ManySparsePartialsMatchPairwiseMergesExactly) {
  // The >2-sparse scatter path must be FP-identical to the pairwise union
  // merges it replaced (inputs scattered in order per column == pairwise
  // left-fold addition order).
  std::vector<Block> partials;
  for (uint64_t s = 0; s < 5; ++s) {
    partials.push_back(RandomSparseBlock(50, 40, 0.1, 200 + s));
  }
  std::vector<const Block*> ptrs;
  for (const Block& b : partials) ptrs.push_back(&b);

  auto got = SumBlocks(ptrs, /*density_threshold=*/0.9);
  ASSERT_TRUE(got.ok());

  Block want = partials[0];
  for (size_t i = 1; i < partials.size(); ++i) {
    auto sum = Cellwise({CellOp::kAdd}, want, &partials[i]);
    ASSERT_TRUE(sum.ok());
    want = std::move(*sum);
  }
  const DenseBlock gd = got->ToDense();
  const DenseBlock wd = want.ToDense();
  for (int64_t c = 0; c < wd.cols(); ++c) {
    for (int64_t r = 0; r < wd.rows(); ++r) {
      ASSERT_EQ(gd.At(r, c), wd.At(r, c)) << "(" << r << ", " << c << ")";
    }
  }
}

TEST(SumBlocksTest, CancellationThroughZeroLeavesNoDuplicates) {
  // +1, -1, +2 at one coordinate drives the workspace through zero; the
  // occupancy list then holds the row twice and must dedup on emit.
  CscBuilder b1(3, 3), b2(3, 3), b3(3, 3);
  b1.Add(1, 1, 1.0f);
  b2.Add(1, 1, -1.0f);
  b3.Add(1, 1, 2.0f);
  b3.Add(0, 2, 5.0f);
  const Block p1(b1.Build()), p2(b2.Build()), p3(b3.Build());
  auto got = SumBlocks({&p1, &p2, &p3}, 0.9);
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(got->IsSparse());
  EXPECT_EQ(got->sparse().nnz(), 2);
  EXPECT_EQ(got->At(1, 1), 2.0f);
  EXPECT_EQ(got->At(0, 2), 5.0f);
}

TEST(SumBlocksTest, ExactCancellationYieldsEmptyResult) {
  CscBuilder b1(3, 3), b2(3, 3), b3(3, 3);
  b1.Add(2, 0, 4.0f);
  b2.Add(2, 0, -4.0f);
  b3.Add(1, 1, 0.0f);  // explicit zero never emitted
  const Block p1(b1.Build()), p2(b2.Build()), p3(b3.Build());
  auto got = SumBlocks({&p1, &p2, &p3}, 0.9);
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(got->IsSparse());
  EXPECT_EQ(got->sparse().nnz(), 0);
}

TEST(SumBlocksTest, ShapeMismatchRejected) {
  const Block p1 = RandomSparseBlock(4, 4, 0.2, 1);
  const Block p2 = RandomSparseBlock(4, 4, 0.2, 2);
  const Block p3 = RandomSparseBlock(5, 4, 0.2, 3);
  EXPECT_FALSE(SumBlocks({&p1, &p2, &p3}, 0.5).ok());
}

TEST(SumBlocksTest, MixedInputsAccumulateDensely) {
  const Block sp = RandomSparseBlock(10, 10, 0.2, 4);
  const Block dn = RandomDenseBlock(10, 10, 5);
  auto got = SumBlocks({&sp, &dn}, 0.05);
  ASSERT_TRUE(got.ok());
  auto want = Cellwise({CellOp::kAdd}, sp, &dn);
  ASSERT_TRUE(want.ok());
  EXPECT_TRUE(ApproxEqual(*got, *want, 0));
}

// ---- owned first operands: in-place execution (§5.2) ---------------------

constexpr Scalar kInf = std::numeric_limits<Scalar>::infinity();
constexpr Scalar kNaN = std::numeric_limits<Scalar>::quiet_NaN();

/// 5x4 operand holding -0.0, NaN, ±inf, zeros and ordinary values. The
/// sparse form stores -0.0 and NaN explicitly (CscBuilder would drop -0.0).
Block SpecialOperand(bool sparse) {
  const std::vector<Scalar> values = {-0.0f, kNaN, kInf, 2.5f, -kInf,
                                      -3.0f, 1e-30f, 7.0f, 0.5f};
  std::vector<int32_t> col_ptr = {0, 3, 5, 7, 9};
  std::vector<int32_t> row_idx = {0, 2, 4, 1, 3, 0, 4, 2, 3};
  CscBlock csc(5, 4, col_ptr, row_idx, values);
  if (sparse) return Block(std::move(csc));
  return Block(Block(std::move(csc)).ToDense());
}

/// The second operand: dense ones/zeros/specials, or a sparse pattern that
/// overlaps the first operand's only in part.
Block OtherOperand(bool sparse) {
  CscBuilder b(5, 4);
  b.Add(0, 0, 4.0f);
  b.Add(2, 0, -1.0f);
  b.Add(3, 1, kInf);
  b.Add(1, 2, 2.0f);
  b.Add(4, 3, -0.5f);
  Block csc(b.Build());
  if (sparse) return csc;
  DenseBlock d = csc.ToDense();
  d.Set(4, 0, 3.0f);  // a non-zero where the other pattern is absent
  return Block(std::move(d));
}

bool SameScalarBits(Scalar x, Scalar y) {
  return std::memcmp(&x, &y, sizeof(Scalar)) == 0 ||
         (std::isnan(x) && std::isnan(y));
}

/// Same representation, same pattern, same value bits.
void ExpectSameBits(const Block& want, const Block& got) {
  ASSERT_EQ(want.kind(), got.kind());
  ASSERT_EQ(want.shape(), got.shape());
  if (want.IsDense()) {
    const int64_t n = want.rows() * want.cols();
    for (int64_t i = 0; i < n; ++i) {
      EXPECT_TRUE(SameScalarBits(want.dense().data()[i], got.dense().data()[i]))
          << "element " << i << ": " << want.dense().data()[i] << " vs "
          << got.dense().data()[i];
    }
    return;
  }
  EXPECT_EQ(want.sparse().col_ptr(), got.sparse().col_ptr());
  EXPECT_EQ(want.sparse().row_idx(), got.sparse().row_idx());
  ASSERT_EQ(want.sparse().nnz(), got.sparse().nnz());
  for (int64_t p = 0; p < want.sparse().nnz(); ++p) {
    EXPECT_TRUE(SameScalarBits(want.sparse().values()[p],
                               got.sparse().values()[p]))
        << "value " << p;
  }
}

/// Address of a block's value storage.
const Scalar* Storage(const Block& b) {
  return b.IsDense() ? b.dense().data() : b.sparse().values().data();
}

/// Runs `op` on a borrowed and on an owned copy of `a`: same bits and
/// representation either way, the borrowed operand untouched, and the
/// owned operand's storage reused exactly when `reuse`.
template <typename Op>
void ExpectOwnedMatchesBorrowed(const Block& a, bool reuse, const Op& op) {
  const Block before = a;
  const Result<Block> borrowed = op(a);
  ASSERT_TRUE(borrowed.ok()) << borrowed.status();
  ExpectSameBits(before, a);

  Block owned_in = a;
  const Scalar* storage = Storage(owned_in);
  const Result<Block> owned = op(std::move(owned_in));
  ASSERT_TRUE(owned.ok()) << owned.status();
  ExpectSameBits(*borrowed, *owned);
  EXPECT_EQ(Storage(*owned) == storage, reuse);
}

class OwnedCellwiseTest
    : public ::testing::TestWithParam<std::tuple<bool, bool>> {};

TEST_P(OwnedCellwiseTest, SameBitsAndRepresentationAsBorrowed) {
  const auto [a_sparse, b_sparse] = GetParam();
  const Block a = SpecialOperand(a_sparse);
  const Block b = OtherOperand(b_sparse);
  // Add and Subtract stay sparse only when both operands are sparse,
  // CellMultiply when either is, CellDivide when the numerator is.
  const bool union_dense = !(a_sparse && b_sparse);
  const bool product_dense = !a_sparse && !b_sparse;
  const bool quotient_dense = !a_sparse;
  struct Case {
    const char* name;
    bool dense_out;
    Scalar (*fn)(Scalar, Scalar);
  };
  const Case cases[] = {
      {"add", union_dense, [](Scalar x, Scalar y) { return x + y; }},
      {"subtract", union_dense, [](Scalar x, Scalar y) { return x - y; }},
      {"cell-multiply", product_dense,
       [](Scalar x, Scalar y) { return x * y; }},
      {"cell-divide", quotient_dense,
       [](Scalar x, Scalar y) { return x / y; }},
  };
  for (int k = 0; k < 4; ++k) {
    const Case& c = cases[k];
    SCOPED_TRACE(c.name);
    const CellOp::Kind kinds[] = {CellOp::kAdd, CellOp::kSubtract,
                                  CellOp::kMultiply, CellOp::kDivide};
    const auto op = [&b, k, &kinds](auto&& x) -> Result<Block> {
      return Cellwise({kinds[k]}, std::forward<decltype(x)>(x), &b);
    };
    // Only a dense first operand of a dense result is written in place.
    ExpectOwnedMatchesBorrowed(a, !a_sparse && c.dense_out, op);
    const Result<Block> got = op(a);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->IsDense(), c.dense_out);
    if (c.dense_out) {
      for (int64_t r = 0; r < a.rows(); ++r) {
        for (int64_t j = 0; j < a.cols(); ++j) {
          EXPECT_TRUE(
              SameScalarBits(got->At(r, j), c.fn(a.At(r, j), b.At(r, j))))
              << "(" << r << "," << j << ")";
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFormats, OwnedCellwiseTest,
    ::testing::Combine(::testing::Bool(), ::testing::Bool()),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) ? "SparseA" : "DenseA") +
             (std::get<1>(info.param) ? "SparseB" : "DenseB");
    });

TEST(OwnedScalarOpsTest, SameBitsAndRepresentationAsBorrowed) {
  for (bool sparse : {false, true}) {
    SCOPED_TRACE(sparse ? "sparse" : "dense");
    const Block a = SpecialOperand(sparse);
    for (Scalar s : {2.5f, -0.0f, 0.0f, -kInf, kNaN}) {
      // Scaling keeps every representation and pattern.
      ExpectOwnedMatchesBorrowed(a, /*reuse=*/true, [s](auto&& x) {
        return Cellwise({CellOp::kScale, s}, std::forward<decltype(x)>(x));
      });
      // Adding zero returns the operand; anything else densifies.
      ExpectOwnedMatchesBorrowed(
          a, /*reuse=*/!sparse || s == Scalar{0}, [s](auto&& x) {
            return Cellwise({CellOp::kShift, s},
                            std::forward<decltype(x)>(x));
          });
    }
    for (UnaryFnKind fn : {UnaryFnKind::kExp, UnaryFnKind::kLog,
                           UnaryFnKind::kAbs, UnaryFnKind::kSigmoid,
                           UnaryFnKind::kSquare}) {
      SCOPED_TRACE(UnaryFnName(fn));
      ExpectOwnedMatchesBorrowed(
          a, /*reuse=*/!sparse || UnaryFnPreservesZero(fn), [fn](auto&& x) {
            return Cellwise({.kind = CellOp::kUnary, .fn = fn},
                            std::forward<decltype(x)>(x));
          });
    }
  }
}

TEST(OwnedScalarOpsTest, SparseTimesZeroKeepsExplicitZeros) {
  const Block a = SpecialOperand(/*sparse=*/true);
  for (Block got : {*Cellwise({CellOp::kScale, 0.0f}, a),
                    *Cellwise({CellOp::kScale, 0.0f}, Block(a))}) {
    ASSERT_TRUE(got.IsSparse());
    EXPECT_EQ(got.sparse().col_ptr(), a.sparse().col_ptr());
    EXPECT_EQ(got.sparse().row_idx(), a.sparse().row_idx());
    ASSERT_EQ(got.nnz(), a.nnz());
    // x * 0 is ±0 for finite x and NaN for NaN/inf: stored, never dropped.
    for (int64_t p = 0; p < got.nnz(); ++p) {
      const Scalar x = a.sparse().values()[p];
      EXPECT_TRUE(SameScalarBits(got.sparse().values()[p], x * 0.0f)) << p;
    }
  }
}

TEST(OwnedScalarOpsTest, AddZeroReturnsTheOperandItself) {
  for (bool sparse : {false, true}) {
    Block a = SpecialOperand(sparse);
    const Block before = a;
    const Scalar* storage = Storage(a);
    Block got = *Cellwise({CellOp::kShift, 0.0f}, std::move(a));
    EXPECT_EQ(got.IsSparse(), sparse);
    EXPECT_EQ(Storage(got), storage);
    ExpectSameBits(before, got);
  }
}

TEST(OwnedCellMultiplyTest, DropsZeroProductsFromSparsePattern) {
  // A sparse operand's entries whose product is zero leave the pattern,
  // whichever side is sparse and whether or not the first is owned.
  CscBuilder sb(4, 3);
  sb.Add(0, 0, 2.0f);
  sb.Add(3, 0, 5.0f);
  sb.Add(1, 2, -1.0f);
  const Block sparse(sb.Build());
  DenseBlock d(4, 3);
  d.Set(0, 0, 3.0f);  // (3,0) and (1,2) meet zeros
  d.Set(2, 1, 9.0f);
  const Block dense(std::move(d));
  for (int owned = 0; owned < 2; ++owned) {
    for (int sparse_first = 0; sparse_first < 2; ++sparse_first) {
      const Block& first = sparse_first ? sparse : dense;
      const Block& second = sparse_first ? dense : sparse;
      Result<Block> got =
          owned ? Cellwise({CellOp::kMultiply}, Block(first), &second)
                : Cellwise({CellOp::kMultiply}, first, &second);
      ASSERT_TRUE(got.ok());
      ASSERT_TRUE(got->IsSparse());
      EXPECT_EQ(got->nnz(), 1);
      EXPECT_EQ(got->At(0, 0), 6.0f);
    }
  }
}

TEST(OwnedCellMultiplyTest, SparseProductIsSymmetricInItsOperands) {
  // Each operand stores inf or NaN where the other holds a structural
  // zero: the product covers only the entries both store, so a * b and
  // b * a give the same bits, owned or borrowed.
  CscBuilder ab(3, 3);
  ab.Add(0, 0, kInf);
  ab.Add(1, 1, 2.0f);
  ab.Add(2, 1, kInf);
  ab.Add(2, 2, kNaN);
  CscBuilder bb(3, 3);
  bb.Add(1, 0, -kInf);
  bb.Add(1, 1, 3.0f);
  bb.Add(2, 1, -2.0f);
  bb.Add(0, 2, kNaN);
  const Block a(ab.Build());
  const Block b(bb.Build());
  for (int owned = 0; owned < 2; ++owned) {
    for (int swap = 0; swap < 2; ++swap) {
      const Block& first = swap ? b : a;
      const Block& second = swap ? a : b;
      Result<Block> got =
          owned ? Cellwise({CellOp::kMultiply}, Block(first), &second)
                : Cellwise({CellOp::kMultiply}, first, &second);
      ASSERT_TRUE(got.ok());
      ASSERT_TRUE(got->IsSparse());
      EXPECT_EQ(got->nnz(), 2);
      for (int64_t r = 0; r < 3; ++r) {
        for (int64_t c = 0; c < 3; ++c) {
          const Scalar want = r == 1 && c == 1   ? 6.0f
                              : r == 2 && c == 1 ? -kInf
                                                 : 0.0f;
          EXPECT_TRUE(SameScalarBits(got->At(r, c), want))
              << "(" << r << "," << c << ") owned=" << owned
              << " swap=" << swap << ": " << got->At(r, c);
        }
      }
    }
  }
}

// ---- every element-wise function against a per-element reference --------

/// What `op` computes at one element, as plain float arithmetic.
Scalar ReferenceCell(const CellOp& op, Scalar x, Scalar y) {
  const Scalar s = op.scalar;
  switch (op.kind) {
    case CellOp::kAdd:
      return x + y;
    case CellOp::kSubtract:
      return x - y;
    case CellOp::kMultiply:
      return x * y;
    case CellOp::kDivide:
      return x / y;
    case CellOp::kScale:
      return x * s;
    case CellOp::kShift:
      return s == Scalar{0} ? x : x + s;  // a shift by 0 is the operand
    case CellOp::kUnary:
      switch (op.fn) {
        case UnaryFnKind::kExp:
          return std::exp(x);
        case UnaryFnKind::kLog:
          return std::log(x);
        case UnaryFnKind::kAbs:
          return std::abs(x);
        case UnaryFnKind::kSigmoid:
          return 1.0f / (1.0f + std::exp(-x));
        case UnaryFnKind::kSquare:
          return x * x;
      }
  }
  ADD_FAILURE() << "unknown function";
  return 0;
}

/// The representation rules of CellOp: whether the result is sparse and,
/// if so, whether (r, c) lies in the pattern it is drawn from.
bool SparseResultRule(const CellOp& op, const Block& a, const Block* b) {
  switch (op.kind) {
    case CellOp::kAdd:
    case CellOp::kSubtract:
      return a.IsSparse() && b->IsSparse();
    case CellOp::kMultiply:
      return a.IsSparse() || b->IsSparse();
    case CellOp::kDivide:
    case CellOp::kScale:
      return a.IsSparse();
    case CellOp::kShift:
      return a.IsSparse() && op.scalar == Scalar{0};
    case CellOp::kUnary:
      return a.IsSparse() && UnaryFnPreservesZero(op.fn);
  }
  return false;
}

bool Stored(const Block& x, int64_t r, int64_t c) {
  if (x.IsDense()) return true;
  const CscBlock& s = x.sparse();
  for (int32_t p = s.ColStart(c); p < s.ColEnd(c); ++p) {
    if (s.row_idx()[p] == r) return true;
  }
  return false;
}

bool InPattern(const CellOp& op, const Block& a, const Block* b, int64_t r,
               int64_t c) {
  switch (op.kind) {
    case CellOp::kAdd:
    case CellOp::kSubtract:
      return Stored(a, r, c) || Stored(*b, r, c);
    case CellOp::kMultiply:  // the sparse side's pattern, or both's overlap
      return Stored(a, r, c) && Stored(*b, r, c);
    default:  // the numerator's or the operand's pattern
      return Stored(a, r, c);
  }
}

/// Checks `got` = op(a, b) element by element against ReferenceCell, and
/// its representation and pattern against the rules.
void ExpectCellwiseResult(const CellOp& op, const Block& a, const Block* b,
                          const Block& got) {
  const bool sparse = SparseResultRule(op, a, b);
  ASSERT_EQ(got.IsSparse(), sparse);
  // Scale, shift and unary rewrite the operand's stored values, explicit
  // zeros included; the other functions drop zero results from a pattern.
  const bool keeps_zeros = !op.binary();
  for (int64_t r = 0; r < a.rows(); ++r) {
    for (int64_t c = 0; c < a.cols(); ++c) {
      SCOPED_TRACE("(" + std::to_string(r) + "," + std::to_string(c) + ")");
      const bool in_pattern = !sparse || InPattern(op, a, b, r, c);
      const Scalar want =
          in_pattern ? ReferenceCell(op, a.At(r, c),
                                     b != nullptr ? b->At(r, c) : Scalar{0})
                     : Scalar{0};
      const bool stored =
          !sparse || (in_pattern && (keeps_zeros || want != Scalar{0}));
      EXPECT_EQ(Stored(got, r, c), stored);
      if (stored) {
        EXPECT_TRUE(SameScalarBits(got.At(r, c), want))
            << got.At(r, c) << " vs " << want;
      } else {
        EXPECT_EQ(want, Scalar{0});
        EXPECT_TRUE(SameScalarBits(got.At(r, c), Scalar{0}));
      }
    }
  }
}

TEST(CellwiseValueTest, EveryFunctionMatchesItsScalarReference) {
  std::vector<CellOp> ops = {{CellOp::kAdd},
                             {CellOp::kSubtract},
                             {CellOp::kMultiply},
                             {CellOp::kDivide}};
  for (Scalar s : {2.5f, 0.0f, -0.0f, -kInf, kNaN}) {
    ops.push_back({CellOp::kScale, s});
    ops.push_back({CellOp::kShift, s});
  }
  for (UnaryFnKind fn : {UnaryFnKind::kExp, UnaryFnKind::kLog,
                         UnaryFnKind::kAbs, UnaryFnKind::kSigmoid,
                         UnaryFnKind::kSquare}) {
    ops.push_back({.kind = CellOp::kUnary, .fn = fn});
  }
  for (const CellOp& op : ops) {
    for (bool a_sparse : {false, true}) {
      for (bool b_sparse : {false, true}) {
        if (!op.binary() && b_sparse) continue;
        const Block a = SpecialOperand(a_sparse);
        const Block b_block = OtherOperand(b_sparse);
        const Block* b = op.binary() ? &b_block : nullptr;
        SCOPED_TRACE(std::string(op.name()) + " " + std::to_string(op.scalar) +
                     (a_sparse ? " sparse" : " dense") +
                     (op.binary() ? (b_sparse ? " x sparse" : " x dense")
                                  : ""));
        const Result<Block> borrowed = Cellwise(op, a, b);
        ASSERT_TRUE(borrowed.ok()) << borrowed.status();
        ExpectCellwiseResult(op, a, b, *borrowed);
        const Result<Block> owned = Cellwise(op, Block(a), b);
        ASSERT_TRUE(owned.ok()) << owned.status();
        ExpectCellwiseResult(op, a, b, *owned);
      }
    }
  }
}

TEST(CellwiseValueTest, OperandCountMustMatchTheFunction) {
  const Block a = SpecialOperand(false);
  EXPECT_FALSE(Cellwise({CellOp::kAdd}, a).ok());
  EXPECT_FALSE(Cellwise({CellOp::kScale, 2.0f}, a, &a).ok());
}

// ---- CompactFromDense takes the accumulator -------------------------------

/// An 8x8 accumulator with `nnz` non-zeros (NaN and +-inf among them) and
/// -0.0 in every other element, which counts as zero.
DenseBlock AccumulatorWithNonZeros(int64_t nnz) {
  DenseBlock acc(8, 8);
  Scalar* data = acc.data();
  for (int64_t i = 0; i < 64; ++i) data[i] = -0.0f;
  for (int64_t q = 0; q < nnz; ++q) {
    const int64_t i = (q * 37) % 64;  // 37 is coprime to 64: distinct slots
    data[i] = q == 0 ? kNaN : q == 1 ? kInf : q == 2 ? -kInf : 0.25f * q;
  }
  return acc;
}

TEST(CompactTest, DenseResultKeepsTheAccumulatorStorage) {
  DenseBlock acc = AccumulatorWithNonZeros(40);
  const Scalar* storage = acc.data();
  const Block out = CompactFromDense(&acc, kDensityThreshold);
  ASSERT_TRUE(out.IsDense());
  EXPECT_EQ(out.dense().data(), storage);
  EXPECT_EQ(acc.rows() * acc.cols(), 0);
}

TEST(CompactTest, SparseResultLeavesTheAccumulatorInPlace) {
  DenseBlock acc = AccumulatorWithNonZeros(5);
  const Scalar* storage = acc.data();
  const Block out = CompactFromDense(&acc, kDensityThreshold);
  ASSERT_TRUE(out.IsSparse());
  EXPECT_EQ(acc.data(), storage);
  EXPECT_EQ(acc.rows(), 8);
  EXPECT_EQ(acc.cols(), 8);
}

// Around the 0.5 threshold (32 of 64) the representation and every bit are
// what compacting a copy of the accumulator gives.
TEST(CompactTest, MatchesCompactedCopyAroundTheThreshold) {
  for (int64_t nnz : {0, 1, 30, 31, 32, 33, 34, 64}) {
    SCOPED_TRACE("nnz=" + std::to_string(nnz));
    DenseBlock acc = AccumulatorWithNonZeros(nnz);
    const Block want = Block(acc).Compacted(kDensityThreshold);
    EXPECT_EQ(want.IsSparse(), nnz < 32);
    ExpectSameBits(want, CompactFromDense(&acc, kDensityThreshold));
  }
}

}  // namespace
}  // namespace dmac
