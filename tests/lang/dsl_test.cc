#include <gtest/gtest.h>

#include "lang/program.h"

namespace dmac {
namespace {

/// The element-wise function of `e`, which must be a kCellwise node.
CellOp::Kind CellKind(const MatrixExprPtr& e) {
  EXPECT_EQ(e->kind, MatrixExpr::Kind::kCellwise);
  return e->cell.kind;
}

TEST(DslTest, LoadDeclaresStatementAndReturnsVarRef) {
  ProgramBuilder pb;
  Mat v = pb.Load("V", {10, 20}, 0.5);
  EXPECT_EQ(v.expr()->kind, MatrixExpr::Kind::kVarRef);
  EXPECT_EQ(v.expr()->name, "V");
  Program p = pb.Build();
  ASSERT_EQ(p.statements.size(), 1u);
  EXPECT_EQ(p.statements[0].target, "V");
  EXPECT_EQ(p.statements[0].matrix->kind, MatrixExpr::Kind::kLoad);
  EXPECT_EQ(p.statements[0].matrix->shape, (Shape{10, 20}));
  EXPECT_DOUBLE_EQ(p.statements[0].matrix->sparsity, 0.5);
}

TEST(DslTest, OperatorsBuildExpectedTrees) {
  ProgramBuilder pb;
  Mat a = pb.Load("A", {2, 2}, 1.0);
  Mat b = pb.Load("B", {2, 2}, 1.0);

  Mat mm = a.mm(b);
  EXPECT_EQ(mm.expr()->kind, MatrixExpr::Kind::kMultiply);

  EXPECT_EQ(CellKind((a + b).expr()), CellOp::kAdd);
  EXPECT_EQ(CellKind((a - b).expr()), CellOp::kSubtract);
  EXPECT_EQ(CellKind((a * b).expr()), CellOp::kMultiply);
  EXPECT_EQ(CellKind((a / b).expr()), CellOp::kDivide);
  EXPECT_EQ(a.t().expr()->kind, MatrixExpr::Kind::kTranspose);
}

TEST(DslTest, ScalarOperatorsOnMatrices) {
  ProgramBuilder pb;
  Mat a = pb.Load("A", {2, 2}, 1.0);
  Mat scaled = a * 0.85;
  EXPECT_EQ(CellKind(scaled.expr()), CellOp::kScale);
  EXPECT_EQ(scaled.expr()->scalar->kind, ScalarExpr::Kind::kLiteral);
  EXPECT_DOUBLE_EQ(scaled.expr()->scalar->literal, 0.85);

  Mat shifted = a + 1.5;
  EXPECT_EQ(CellKind(shifted.expr()), CellOp::kShift);
  Mat shifted_down = a - 1.5;
  EXPECT_EQ(CellKind(shifted_down.expr()), CellOp::kShift);
  EXPECT_DOUBLE_EQ(shifted_down.expr()->scalar->literal, -1.5);

  Mat left = 2.0 * a;
  EXPECT_EQ(CellKind(left.expr()), CellOp::kScale);
}

TEST(DslTest, ReductionsProduceScalarExprs) {
  ProgramBuilder pb;
  Mat a = pb.Load("A", {2, 2}, 1.0);
  EXPECT_EQ(a.Sum().expr()->reduce, ReduceKind::kSum);
  EXPECT_EQ(a.Norm2().expr()->reduce, ReduceKind::kNorm2);
  EXPECT_EQ(a.Value().expr()->reduce, ReduceKind::kValue);
}

TEST(DslTest, ScalarArithmetic) {
  Scl a(2.0), b(3.0);
  EXPECT_EQ((a + b).expr()->op, '+');
  EXPECT_EQ((a - b).expr()->op, '-');
  EXPECT_EQ((a * b).expr()->op, '*');
  EXPECT_EQ((a / b).expr()->op, '/');
  EXPECT_EQ(a.Sqrt().expr()->kind, ScalarExpr::Kind::kSqrt);
}

TEST(DslTest, AssignAppendsStatements) {
  ProgramBuilder pb;
  Mat a = pb.Load("A", {2, 2}, 1.0);
  Mat b = pb.Var("B");
  pb.Assign(b, a.mm(a));
  pb.Output(b);
  Program p = pb.Build();
  ASSERT_EQ(p.statements.size(), 2u);
  EXPECT_EQ(p.statements[1].target, "B");
  ASSERT_EQ(p.outputs.size(), 1u);
  EXPECT_EQ(p.outputs[0], "B");
}

TEST(DslTest, ScalarVarAndOutputs) {
  ProgramBuilder pb;
  Mat a = pb.Load("A", {2, 2}, 1.0);
  Scl s = pb.ScalarVar("s", 1.5);
  pb.Assign(s, a.Sum() * s);
  pb.OutputScalar(s);
  Program p = pb.Build();
  ASSERT_EQ(p.statements.size(), 3u);  // load, s=1.5, s=sum*s
  EXPECT_EQ(p.statements[1].kind, Statement::Kind::kAssignScalar);
  ASSERT_EQ(p.scalar_outputs.size(), 1u);
  EXPECT_EQ(p.scalar_outputs[0], "s");
}

TEST(DslTest, RandomDeclares) {
  ProgramBuilder pb;
  Mat w = pb.Random("W", {5, 3});
  (void)w;
  Program p = pb.Build();
  ASSERT_EQ(p.statements.size(), 1u);
  EXPECT_EQ(p.statements[0].matrix->kind, MatrixExpr::Kind::kRandom);
  EXPECT_EQ(p.statements[0].matrix->shape, (Shape{5, 3}));
}

}  // namespace
}  // namespace dmac
