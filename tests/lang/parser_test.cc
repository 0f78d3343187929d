#include "lang/parser.h"

#include <gtest/gtest.h>

#include "apps/local_interpreter.h"
#include "apps/runner.h"
#include "data/synthetic.h"
#include "lang/decompose.h"

namespace dmac {
namespace {

Program MustParse(const std::string& src) {
  auto p = ParseProgram(src);
  EXPECT_TRUE(p.ok()) << p.status();
  return p.ok() ? *p : Program{};
}

/// The element-wise function of `e`, which must be a kCellwise node.
CellOp::Kind CellKind(const MatrixExprPtr& e) {
  EXPECT_EQ(e->kind, MatrixExpr::Kind::kCellwise);
  return e->cell.kind;
}

TEST(ParserTest, LoadAssignOutput) {
  Program p = MustParse(
      "V = load(\"V\", 10, 20, 0.5)\n"
      "output(V)\n");
  ASSERT_EQ(p.statements.size(), 1u);
  EXPECT_EQ(p.statements[0].target, "V");
  EXPECT_EQ(p.statements[0].matrix->kind, MatrixExpr::Kind::kLoad);
  EXPECT_EQ(p.statements[0].matrix->shape, (Shape{10, 20}));
  EXPECT_DOUBLE_EQ(p.statements[0].matrix->sparsity, 0.5);
  ASSERT_EQ(p.outputs.size(), 1u);
  EXPECT_EQ(p.outputs[0], "V");
}

TEST(ParserTest, OperatorPrecedence) {
  // %*% binds tighter than *, which binds tighter than +.
  Program p = MustParse(
      "A = load(\"A\", 4, 4, 1)\n"
      "B = A + A * A %*% A\n"
      "output(B)\n");
  const MatrixExprPtr& root = p.statements[1].matrix;
  ASSERT_EQ(root->kind, MatrixExpr::Kind::kCellwise);
  EXPECT_EQ(root->cell.kind, CellOp::kAdd);
  ASSERT_EQ(root->rhs->kind, MatrixExpr::Kind::kCellwise);
  EXPECT_EQ(root->rhs->cell.kind, CellOp::kMultiply);
  EXPECT_EQ(root->rhs->rhs->kind, MatrixExpr::Kind::kMultiply);
}

TEST(ParserTest, ParenthesesOverridePrecedence) {
  Program p = MustParse(
      "A = load(\"A\", 4, 4, 1)\n"
      "B = (A + A) * A\n"
      "output(B)\n");
  const MatrixExprPtr& root = p.statements[1].matrix;
  EXPECT_EQ(CellKind(root), CellOp::kMultiply);
  EXPECT_EQ(CellKind(root->lhs), CellOp::kAdd);
}

TEST(ParserTest, TransposeAndReductions) {
  Program p = MustParse(
      "A = load(\"A\", 4, 6, 1)\n"
      "G = t(A) %*% A\n"
      "s = sum(G)\n"
      "n = norm2(G)\n"
      "output_scalar(s)\n"
      "output_scalar(n)\n");
  EXPECT_EQ(p.statements[1].matrix->lhs->kind, MatrixExpr::Kind::kTranspose);
  EXPECT_EQ(p.statements[2].scalar->kind, ScalarExpr::Kind::kReduce);
  EXPECT_EQ(p.statements[2].scalar->reduce, ReduceKind::kSum);
  EXPECT_EQ(p.statements[3].scalar->reduce, ReduceKind::kNorm2);
  EXPECT_EQ(p.scalar_outputs.size(), 2u);
}

TEST(ParserTest, MatrixScalarMixing) {
  Program p = MustParse(
      "A = load(\"A\", 4, 4, 1)\n"
      "B = A * 0.85 + 0.15\n"
      "C = A / 2\n"
      "D = 3 * A\n"
      "output(B)\noutput(C)\noutput(D)\n");
  EXPECT_EQ(CellKind(p.statements[1].matrix), CellOp::kShift);
  EXPECT_EQ(CellKind(p.statements[1].matrix->lhs), CellOp::kScale);
  EXPECT_EQ(CellKind(p.statements[2].matrix), CellOp::kScale);
  EXPECT_EQ(CellKind(p.statements[3].matrix), CellOp::kScale);
}

TEST(ParserTest, ForLoopUnrolls) {
  Program p = MustParse(
      "A = load(\"A\", 4, 4, 1)\n"
      "for i in 0:3 { A = A %*% A }\n"
      "output(A)\n");
  // 1 load + 3 unrolled assignments.
  EXPECT_EQ(p.statements.size(), 4u);
}

TEST(ParserTest, LoopBoundFromConstant) {
  Program p = MustParse(
      "iters = 2\n"
      "A = load(\"A\", 4, 4, 1)\n"
      "for i in 0:iters { A = A + A }\n"
      "output(A)\n");
  EXPECT_EQ(p.statements.size(), 4u);  // iters=, load, 2 adds
}

TEST(ParserTest, NestedLoops) {
  Program p = MustParse(
      "A = load(\"A\", 4, 4, 1)\n"
      "for i in 0:2 { for j in 0:2 { A = A + A } }\n"
      "output(A)\n");
  EXPECT_EQ(p.statements.size(), 5u);  // load + 4 adds
}

TEST(ParserTest, LoopVariableReadsAsLiteral) {
  Program p = MustParse(
      "A = load(\"A\", 4, 4, 1)\n"
      "for i in 1:3 { A = A * i }\n"
      "output(A)\n");
  // Two unrolled iterations with literals 1 and 2.
  EXPECT_DOUBLE_EQ(p.statements[1].matrix->scalar->literal, 1.0);
  EXPECT_DOUBLE_EQ(p.statements[2].matrix->scalar->literal, 2.0);
}

TEST(ParserTest, CommentsAndSeparators) {
  Program p = MustParse(
      "# a comment\n"
      "A = load(\"A\", 2, 2, 1); B = A + A  // trailing comment\n"
      "output(B)\n");
  EXPECT_EQ(p.statements.size(), 2u);
}

TEST(ParserTest, UnaryMinus) {
  Program p = MustParse(
      "A = load(\"A\", 2, 2, 1)\n"
      "B = -A\n"
      "s = -sum(A)\n"
      "output(B)\noutput_scalar(s)\n");
  EXPECT_EQ(CellKind(p.statements[1].matrix), CellOp::kScale);
  EXPECT_DOUBLE_EQ(p.statements[1].matrix->scalar->literal, -1.0);
}

TEST(ParserTest, ErrorsCarryLocation) {
  auto r = ParseProgram("A = load(\"A\", 2, 2, 1)\nB = A %% A\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("line 2"), std::string::npos);
}

TEST(ParserTest, RejectsBadConstructs) {
  EXPECT_FALSE(ParseProgram("A = ").ok());
  EXPECT_FALSE(ParseProgram("output(missing)\n").ok());
  EXPECT_FALSE(ParseProgram("A = unknown_fn(1)\n").ok());
  EXPECT_FALSE(ParseProgram("x = 1\nA = x %*% x\n").ok());  // scalar %*%
  EXPECT_FALSE(ParseProgram("A = load(\"A\", 2, 2, 1)\nA = 5\n").ok());
  EXPECT_FALSE(
      ParseProgram("A = load(\"A\", 2, 2, 1)\nB = 1 / A\noutput(B)\n").ok());
  EXPECT_FALSE(ParseProgram("for i in 0:2 { x = 1 ").ok());  // unterminated
}

TEST(ParserTest, ParsedGnmfMatchesBuilderGnmf) {
  // The script front end and the C++ DSL must produce the same decomposed
  // operator sequence for the paper's Code 1.
  const std::string script =
      "V = load(\"V\", 100, 80, 0.1)\n"
      "W = random(100, 8)\n"
      "H = random(8, 80)\n"
      "for i in 0:2 {\n"
      "  H = H * (t(W) %*% V) / (t(W) %*% W %*% H)\n"
      "  W = W * (V %*% t(H)) / (W %*% H %*% t(H))\n"
      "}\n"
      "output(W)\noutput(H)\n";
  Program parsed = MustParse(script);
  auto parsed_ops = Decompose(parsed);
  ASSERT_TRUE(parsed_ops.ok());

  ProgramBuilder pb;
  Mat v = pb.Load("V", {100, 80}, 0.1);
  Mat w = pb.Random("W", {100, 8});
  Mat h = pb.Random("H", {8, 80});
  for (int i = 0; i < 2; ++i) {
    pb.Assign(h, h * (w.t().mm(v)) / (w.t().mm(w).mm(h)));
    pb.Assign(w, w * (v.mm(h.t())) / (w.mm(h).mm(h.t())));
  }
  pb.Output(w);
  pb.Output(h);
  auto built_ops = Decompose(pb.Build());
  ASSERT_TRUE(built_ops.ok());

  ASSERT_EQ(parsed_ops->ops.size(), built_ops->ops.size());
  for (size_t i = 0; i < parsed_ops->ops.size(); ++i) {
    EXPECT_EQ(parsed_ops->ops[i].kind, built_ops->ops[i].kind) << i;
  }
}

TEST(ParserTest, ParsedScriptExecutesCorrectly) {
  const std::string script =
      "A = load(\"A\", 24, 24, 0.3)\n"
      "B = A %*% A + A * 2\n"
      "total = sum(B)\n"
      "output(B)\noutput_scalar(total)\n";
  Program p = MustParse(script);
  LocalMatrix a = SyntheticSparse(24, 24, 0.3, 8, 3);
  Bindings bindings{{"A", &a}};
  RunConfig config;
  config.block_size = 8;
  auto dist = RunProgram(p, bindings, config);
  ASSERT_TRUE(dist.ok()) << dist.status();
  auto local = InterpretLocally(p, bindings, 8, config.seed);
  ASSERT_TRUE(local.ok());
  EXPECT_TRUE(
      dist->result.matrices.at("B").ApproxEqual(local->matrices.at("B"),
                                                1e-2));
  EXPECT_NEAR(dist->result.scalars.at("total"), local->scalars.at("total"),
              std::abs(local->scalars.at("total")) * 1e-4);
}

}  // namespace
}  // namespace dmac
