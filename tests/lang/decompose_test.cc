#include "lang/decompose.h"

#include <gtest/gtest.h>

#include "lang/program.h"

namespace dmac {
namespace {

OperatorList MustDecompose(const Program& p) {
  auto r = Decompose(p);
  EXPECT_TRUE(r.ok()) << r.status();
  return *r;
}

TEST(DecomposeTest, SimpleMultiplyYieldsThreeOps) {
  ProgramBuilder pb;
  Mat a = pb.Load("A", {4, 6}, 1.0);
  Mat b = pb.Load("B", {6, 3}, 1.0);
  Mat c = pb.Var("C");
  pb.Assign(c, a.mm(b));
  pb.Output(c);
  OperatorList ops = MustDecompose(pb.Build());
  ASSERT_EQ(ops.ops.size(), 3u);
  EXPECT_EQ(ops.ops[0].kind, OpKind::kLoad);
  EXPECT_EQ(ops.ops[1].kind, OpKind::kLoad);
  EXPECT_EQ(ops.ops[2].kind, OpKind::kMultiply);
  EXPECT_EQ(ops.ops[2].output, "C#1");
  ASSERT_TRUE(ops.output_bindings.count("C"));
  EXPECT_EQ(ops.output_bindings.at("C").name, "C#1");
}

TEST(DecomposeTest, TransposeIsARefModifierNotAnOp) {
  ProgramBuilder pb;
  Mat a = pb.Load("A", {4, 4}, 1.0);
  Mat c = pb.Var("C");
  pb.Assign(c, a.t().mm(a));
  pb.Output(c);
  OperatorList ops = MustDecompose(pb.Build());
  ASSERT_EQ(ops.ops.size(), 2u);  // load + multiply; no transpose op
  const Operator& mul = ops.ops[1];
  EXPECT_TRUE(mul.inputs[0].transposed);
  EXPECT_FALSE(mul.inputs[1].transposed);
  EXPECT_EQ(mul.inputs[0].name, mul.inputs[1].name);
}

TEST(DecomposeTest, ReassignmentCreatesNewVersions) {
  ProgramBuilder pb;
  Mat a = pb.Load("A", {4, 4}, 1.0);
  Mat x = pb.Var("X");
  pb.Assign(x, a.mm(a));
  pb.Assign(x, x.mm(a));
  pb.Output(x);
  OperatorList ops = MustDecompose(pb.Build());
  ASSERT_EQ(ops.ops.size(), 3u);
  EXPECT_EQ(ops.ops[1].output, "X#1");
  EXPECT_EQ(ops.ops[2].output, "X#2");
  EXPECT_EQ(ops.ops[2].inputs[0].name, "X#1");
  EXPECT_EQ(ops.output_bindings.at("X").name, "X#2");
}

TEST(DecomposeTest, AliasAssignmentEmitsNoOperator) {
  ProgramBuilder pb;
  Mat a = pb.Load("A", {4, 5}, 1.0);
  Mat b = pb.Var("B");
  pb.Assign(b, a);        // pure alias
  Mat c = pb.Var("C");
  pb.Assign(c, b.t());    // alias of transpose
  pb.Output(c);
  OperatorList ops = MustDecompose(pb.Build());
  ASSERT_EQ(ops.ops.size(), 1u);  // just the load
  EXPECT_EQ(ops.output_bindings.at("C").name, "A#1");
  EXPECT_TRUE(ops.output_bindings.at("C").transposed);
}

TEST(DecomposeTest, MultiplicationsOrderedFirstWithinStatement) {
  // H * (Wt V) / (Wt W H): all three multiplies must precede the
  // cell-wise ops (paper §4.2.3).
  ProgramBuilder pb;
  Mat v = pb.Load("V", {30, 20}, 0.5);
  Mat w = pb.Random("W", {30, 4});
  Mat h = pb.Random("H", {4, 20});
  pb.Assign(h, h * (w.t().mm(v)) / (w.t().mm(w).mm(h)));
  pb.Output(h);
  OperatorList ops = MustDecompose(pb.Build());
  bool seen_cellwise = false;
  for (const Operator& op : ops.ops) {
    if (op.kind == OpKind::kCellwise && (op.cell.kind == CellOp::kMultiply ||
                                         op.cell.kind == CellOp::kDivide)) {
      seen_cellwise = true;
    }
    if (op.kind == OpKind::kMultiply) {
      EXPECT_FALSE(seen_cellwise)
          << "multiplication scheduled after a cell-wise op";
    }
  }
}

TEST(DecomposeTest, MultiplyChainReassociated) {
  // W(1000x4) %*% H(4x800) %*% Ht(800x4): evaluating (W H) Ht would create
  // a 1000x800 intermediate; the chain optimizer must group (H Ht) first.
  ProgramBuilder pb;
  Mat w = pb.Random("W", {1000, 4});
  Mat h = pb.Random("H", {4, 800});
  Mat out = pb.Var("out");
  pb.Assign(out, w.mm(h).mm(h.t()));
  pb.Output(out);
  OperatorList ops = MustDecompose(pb.Build());
  // Find the first multiply: it must be H x H^T (4x800 by 800x4).
  for (const Operator& op : ops.ops) {
    if (op.kind == OpKind::kMultiply) {
      EXPECT_EQ(op.inputs[0].name, op.inputs[1].name);
      EXPECT_FALSE(op.inputs[0].transposed);
      EXPECT_TRUE(op.inputs[1].transposed);
      break;
    }
  }
}

TEST(DecomposeTest, ChainDimensionMismatchReported) {
  ProgramBuilder pb;
  Mat a = pb.Load("A", {3, 4}, 1.0);
  Mat b = pb.Load("B", {5, 6}, 1.0);
  Mat c = pb.Var("C");
  pb.Assign(c, a.mm(b));
  pb.Output(c);
  auto r = Decompose(pb.Build());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDimensionMismatch);
}

TEST(DecomposeTest, UseBeforeAssignmentReported) {
  ProgramBuilder pb;
  Mat ghost = pb.Var("ghost");
  Mat c = pb.Var("C");
  pb.Assign(c, ghost.mm(ghost));
  auto r = Decompose(pb.Build());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(DecomposeTest, ScalarReduceBecomesReduceOp) {
  ProgramBuilder pb;
  Mat a = pb.Load("A", {4, 4}, 1.0);
  Scl s = pb.ScalarVar("s", 0.0);
  pb.Assign(s, (a * a).Sum());
  pb.OutputScalar(s);
  OperatorList ops = MustDecompose(pb.Build());
  // load, cell-multiply, reduce, scalar-assign; the dead initial `s = 0`
  // is eliminated.
  ASSERT_EQ(ops.ops.size(), 4u);
  int reduces = 0, assigns = 0;
  for (const Operator& op : ops.ops) {
    reduces += op.kind == OpKind::kReduce;
    assigns += op.kind == OpKind::kScalarAssign;
  }
  EXPECT_EQ(reduces, 1);
  EXPECT_EQ(assigns, 1);
  EXPECT_TRUE(ops.scalar_output_bindings.count("s"));
}

TEST(DecomposeTest, ScalarVarResolvedToLatestVersion) {
  ProgramBuilder pb;
  Mat a = pb.Load("A", {4, 4}, 1.0);
  Scl s = pb.ScalarVar("s", 2.0);
  Mat b1 = pb.Var("B1");
  pb.Assign(b1, s * a);
  pb.Assign(s, Scl(3.0));
  Mat b2 = pb.Var("B2");
  pb.Assign(b2, s * a);
  pb.Output(b1);
  pb.Output(b2);
  OperatorList ops = MustDecompose(pb.Build());
  // Two scalar-multiply ops must reference different scalar versions.
  std::vector<std::string> refs;
  for (const Operator& op : ops.ops) {
    if (op.kind == OpKind::kCellwise && op.cell.kind == CellOp::kScale) {
      refs.push_back(op.scalar->name);
    }
  }
  ASSERT_EQ(refs.size(), 2u);
  EXPECT_NE(refs[0], refs[1]);
}

TEST(DecomposeTest, GnmfIterationOpCount) {
  ProgramBuilder pb;
  Mat v = pb.Load("V", {100, 80}, 0.1);
  Mat w = pb.Random("W", {100, 8});
  Mat h = pb.Random("H", {8, 80});
  pb.Assign(h, h * (w.t().mm(v)) / (w.t().mm(w).mm(h)));
  pb.Assign(w, w * (v.mm(h.t())) / (w.mm(h).mm(h.t())));
  pb.Output(w);
  pb.Output(h);
  OperatorList ops = MustDecompose(pb.Build());
  // 3 leaves + per statement: 3 multiplies + 2 cell-wise = 13 total.
  EXPECT_EQ(ops.ops.size(), 13u);
}

TEST(DecomposeTest, DeadComputationEliminated) {
  ProgramBuilder pb;
  Mat a = pb.Load("A", {8, 8}, 1.0);
  Mat unused = pb.Var("unused");
  pb.Assign(unused, a.mm(a).mm(a));  // never output
  Mat b = pb.Var("B");
  pb.Assign(b, a + a);
  pb.Output(b);
  OperatorList ops = MustDecompose(pb.Build());
  // Only the load and the add survive.
  ASSERT_EQ(ops.ops.size(), 2u);
  EXPECT_EQ(ops.ops[0].kind, OpKind::kLoad);
  EXPECT_EQ(ops.ops[1].kind, OpKind::kCellwise);
  EXPECT_EQ(ops.ops[1].cell.kind, CellOp::kAdd);
}

TEST(DecomposeTest, DeadLoadEliminated) {
  ProgramBuilder pb;
  Mat a = pb.Load("A", {8, 8}, 1.0);
  Mat ghost = pb.Load("Ghost", {100, 100}, 1.0);  // never used
  (void)ghost;
  Mat b = pb.Var("B");
  pb.Assign(b, a * 2.0);
  pb.Output(b);
  OperatorList ops = MustDecompose(pb.Build());
  for (const Operator& op : ops.ops) {
    EXPECT_NE(op.source, "Ghost");
  }
}

TEST(DecomposeTest, ScalarChainKeptAliveThroughMatrixUse) {
  // s feeds a scalar-multiply; the reduce producing s must survive DCE.
  ProgramBuilder pb;
  Mat a = pb.Load("A", {8, 8}, 1.0);
  Scl s = pb.ScalarVar("s", 0.0);
  pb.Assign(s, a.Sum());
  Mat b = pb.Var("B");
  pb.Assign(b, s * a);
  pb.Output(b);
  OperatorList ops = MustDecompose(pb.Build());
  int reduces = 0;
  for (const Operator& op : ops.ops) reduces += op.kind == OpKind::kReduce;
  EXPECT_EQ(reduces, 1);
}

TEST(DecomposeTest, IntermediateIterationsStayLiveInLoops) {
  // Every iteration's ops feed the next; nothing may be eliminated.
  ProgramBuilder pb;
  Mat a = pb.Load("A", {8, 8}, 1.0);
  Mat x = pb.Var("X");
  pb.Assign(x, a);
  for (int i = 0; i < 4; ++i) pb.Assign(x, x.mm(a));
  pb.Output(x);
  OperatorList ops = MustDecompose(pb.Build());
  EXPECT_EQ(ops.ops.size(), 5u);  // load + 4 multiplies
}

TEST(DecomposeTest, OutputNeverAssignedReported) {
  ProgramBuilder pb;
  Mat ghost = pb.Var("ghost");
  pb.Output(ghost);
  auto r = Decompose(pb.Build());
  EXPECT_FALSE(r.ok());
}

}  // namespace
}  // namespace dmac
