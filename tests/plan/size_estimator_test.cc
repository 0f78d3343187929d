#include "plan/size_estimator.h"

#include <gtest/gtest.h>

#include "lang/decompose.h"
#include "lang/program.h"

namespace dmac {
namespace {

StatsMap EstimateFor(const Program& p) {
  auto ops = Decompose(p);
  EXPECT_TRUE(ops.ok()) << ops.status();
  auto stats = EstimateSizes(*ops);
  EXPECT_TRUE(stats.ok()) << stats.status();
  return *stats;
}

TEST(SizeEstimatorTest, MultiplyShapeAndWorstCaseSparsity) {
  ProgramBuilder pb;
  Mat a = pb.Load("A", {100, 50}, 0.01);
  Mat b = pb.Load("B", {50, 30}, 0.02);
  Mat c = pb.Var("C");
  pb.Assign(c, a.mm(b));
  pb.Output(c);
  StatsMap stats = EstimateFor(pb.Build());
  const MatrixStats& cs = stats.at("C#1");
  EXPECT_EQ(cs.shape, (Shape{100, 30}));
  EXPECT_DOUBLE_EQ(cs.sparsity, 1.0);  // worst case for multiplication
}

TEST(SizeEstimatorTest, CellwiseSparsityIsSumCapped) {
  ProgramBuilder pb;
  Mat a = pb.Load("A", {10, 10}, 0.3);
  Mat b = pb.Load("B", {10, 10}, 0.4);
  Mat c = pb.Var("C");
  Mat d = pb.Var("D");
  pb.Assign(c, a + b);
  pb.Assign(d, c * c);
  pb.Output(c);
  pb.Output(d);
  StatsMap stats = EstimateFor(pb.Build());
  EXPECT_DOUBLE_EQ(stats.at("C#1").sparsity, 0.7);
  EXPECT_DOUBLE_EQ(stats.at("D#1").sparsity, 1.0);  // 0.7+0.7 capped at 1
}

TEST(SizeEstimatorTest, UnaryPreservesSparsity) {
  ProgramBuilder pb;
  Mat a = pb.Load("A", {10, 10}, 0.25);
  Mat c = pb.Var("C");
  pb.Assign(c, a * 3.0);
  pb.Output(c);
  StatsMap stats = EstimateFor(pb.Build());
  EXPECT_DOUBLE_EQ(stats.at("C#1").sparsity, 0.25);
}

TEST(SizeEstimatorTest, ShiftFillsStructuralZeros) {
  // V + 1 stores 1 wherever V held a structural zero: the result is dense.
  ProgramBuilder pb;
  Mat v = pb.Load("V", {10, 10}, 0.25);
  Mat c = pb.Var("C");
  pb.Assign(c, v + 1.0);
  pb.Output(c);
  StatsMap stats = EstimateFor(pb.Build());
  EXPECT_DOUBLE_EQ(stats.at("C#1").sparsity, 1.0);
}

TEST(SizeEstimatorTest, TransposedRefSwapsShape) {
  ProgramBuilder pb;
  Mat a = pb.Load("A", {100, 50}, 0.5);
  Mat c = pb.Var("C");
  pb.Assign(c, a.t().mm(a));
  pb.Output(c);
  StatsMap stats = EstimateFor(pb.Build());
  EXPECT_EQ(stats.at("C#1").shape, (Shape{50, 50}));
}

TEST(SizeEstimatorTest, EstimatedBytesPicksCheaperEncoding) {
  // Dense: 4·m·n. Sparse: 4·n + 8·m·n·s. Crossover at s = 0.5 (minus the
  // pointer term).
  MatrixStats dense{{100, 100}, 0.9};
  EXPECT_DOUBLE_EQ(dense.EstimatedBytes(), 4.0 * 100 * 100);
  MatrixStats sparse{{100, 100}, 0.01};
  EXPECT_DOUBLE_EQ(sparse.EstimatedBytes(), 4.0 * 100 + 8.0 * 100 * 100 * 0.01);
  EXPECT_LT(sparse.EstimatedBytes(), dense.EstimatedBytes());
}

TEST(SizeEstimatorTest, DimensionMismatchDetected) {
  ProgramBuilder pb;
  Mat a = pb.Load("A", {10, 10}, 1.0);
  Mat b = pb.Load("B", {10, 11}, 1.0);
  Mat c = pb.Var("C");
  pb.Assign(c, a + b);
  pb.Output(c);
  auto ops = Decompose(pb.Build());
  ASSERT_TRUE(ops.ok());
  EXPECT_EQ(EstimateSizes(*ops).status().code(),
            StatusCode::kDimensionMismatch);
}

TEST(SizeEstimatorTest, ValueReduceRequiresScalarShape) {
  ProgramBuilder pb;
  Mat a = pb.Load("A", {10, 10}, 1.0);
  Scl s = pb.ScalarVar("s", 0.0);
  pb.Assign(s, a.Value());  // not 1x1
  pb.OutputScalar(s);
  auto ops = Decompose(pb.Build());
  ASSERT_TRUE(ops.ok());
  EXPECT_FALSE(EstimateSizes(*ops).ok());
}

TEST(SizeEstimatorTest, StatsForRefTransposes) {
  StatsMap stats;
  stats["A"] = {{30, 20}, 0.5};
  auto direct = StatsForRef(stats, {"A", false});
  auto transposed = StatsForRef(stats, {"A", true});
  ASSERT_TRUE(direct.ok() && transposed.ok());
  EXPECT_EQ(direct->shape, (Shape{30, 20}));
  EXPECT_EQ(transposed->shape, (Shape{20, 30}));
  EXPECT_FALSE(StatsForRef(stats, {"missing", false}).ok());
}

}  // namespace
}  // namespace dmac
