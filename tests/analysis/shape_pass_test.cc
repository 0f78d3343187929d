// Golden diagnostics of the shape-inference pass, and the GeneratePlan
// front gate: a shape-mismatched operator list must come back as a
// kDimensionMismatch Status, never an assert or undefined behavior.
#include <gtest/gtest.h>

#include "analysis/analyzer.h"
#include "analysis_test_util.h"
#include "plan/planner.h"

namespace dmac {
namespace {

Operator Load(int id, const std::string& out, int64_t rows, int64_t cols,
              double sparsity = 1.0) {
  Operator op;
  op.id = id;
  op.kind = OpKind::kLoad;
  op.output = out;
  op.decl_shape = {rows, cols};
  op.decl_sparsity = sparsity;
  op.source = out;
  return op;
}

Operator Binary(int id, OpKind kind, const std::string& a,
                const std::string& b, const std::string& out) {
  Operator op;
  op.id = id;
  op.kind = kind;
  op.inputs = {{a, false}, {b, false}};
  op.output = out;
  return op;
}

/// V(10×20) %*% W(30×5): inner dimensions do not conform.
OperatorList NonConformingMultiply() {
  OperatorList ops;
  ops.ops.push_back(Load(0, "V#1", 10, 20));
  ops.ops.push_back(Load(1, "W#1", 30, 5));
  ops.ops.push_back(Binary(2, OpKind::kMultiply, "V#1", "W#1", "C#1"));
  ops.output_bindings["C"] = {"C#1", false};
  return ops;
}

TEST(ShapePassTest, NonConformingMultiplyIsDiagnosed) {
  const OperatorList ops = NonConformingMultiply();
  const AnalysisReport report = AnalyzeProgram(&ops, nullptr, 4);
  EXPECT_TRUE(HasDiag(report, "shape-inference", Severity::kError,
                      "operand shapes do not conform"))
      << Dump(report);
  // The diagnostic names the offending operator.
  bool named = false;
  for (const Diagnostic& d : report.FromPass("shape-inference")) {
    named |= d.op_id == 2;
  }
  EXPECT_TRUE(named) << Dump(report);
}

TEST(ShapePassTest, GeneratePlanRejectsNonConformingListWithStatus) {
  const OperatorList ops = NonConformingMultiply();
  auto plan = GeneratePlan(ops, PlannerOptions{});
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kDimensionMismatch);
  EXPECT_NE(plan.status().ToString().find("do not conform"),
            std::string::npos);
}

TEST(ShapePassTest, CellwiseShapeMismatchIsDiagnosed) {
  OperatorList ops;
  ops.ops.push_back(Load(0, "A#1", 10, 10));
  ops.ops.push_back(Load(1, "B#1", 10, 11));
  ops.ops.push_back(Binary(2, OpKind::kCellwise, "A#1", "B#1", "C#1"));
  ops.output_bindings["C"] = {"C#1", false};

  const AnalysisReport report = AnalyzeProgram(&ops, nullptr, 4);
  EXPECT_TRUE(HasDiag(report, "shape-inference", Severity::kError,
                      "operand shapes differ"))
      << Dump(report);
  auto plan = GeneratePlan(ops, PlannerOptions{});
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kDimensionMismatch);
}

TEST(ShapePassTest, WrongArityIsDiagnosedWithoutCrashing) {
  OperatorList ops;
  ops.ops.push_back(Load(0, "A#1", 10, 10));
  Operator bad;  // a multiply with a single operand
  bad.id = 1;
  bad.kind = OpKind::kMultiply;
  bad.inputs = {{"A#1", false}};
  bad.output = "C#1";
  ops.ops.push_back(bad);
  ops.output_bindings["C"] = {"C#1", false};

  const AnalysisReport report = AnalyzeProgram(&ops, nullptr, 4);
  EXPECT_TRUE(HasDiag(report, "shape-inference", Severity::kError,
                      "has 1 inputs, expected 2"))
      << Dump(report);
  EXPECT_FALSE(GeneratePlan(ops, PlannerOptions{}).ok());
}

TEST(ShapePassTest, NonPositiveDeclaredShapeIsDiagnosed) {
  OperatorList ops;
  ops.ops.push_back(Load(0, "A#1", 0, 10));
  ops.output_bindings["A"] = {"A#1", false};

  const AnalysisReport report = AnalyzeProgram(&ops, nullptr, 4);
  EXPECT_TRUE(HasDiag(report, "shape-inference", Severity::kError,
                      "is not positive"))
      << Dump(report);
  EXPECT_FALSE(GeneratePlan(ops, PlannerOptions{}).ok());
}

TEST(ShapePassTest, ValueReduceOfNon1x1IsDiagnosed) {
  const OperatorList ops = ParseOps(
      "V = load(\"V\", 10, 10, 1)\n"
      "a = value(V)\n"
      "output_scalar(a)\n");
  const AnalysisReport report = AnalyzeProgram(&ops, nullptr, 4);
  EXPECT_TRUE(HasDiag(report, "shape-inference", Severity::kError,
                      ".value requires a 1x1 matrix"))
      << Dump(report);
}

TEST(ShapePassTest, StaleNodeShapeInPlanIsDiagnosed) {
  const OperatorList ops = ParseOps(
      "V = load(\"V\", 200, 100, 1)\n"
      "W = load(\"W\", 100, 50, 1)\n"
      "C = V %*% W\n"
      "output(C)\n");
  Plan plan = MustPlan(ops);
  ASSERT_FALSE(plan.outputs.empty());
  PlanNode& out = plan.nodes[static_cast<size_t>(plan.outputs[0].node)];
  out.stats.shape = {7, 7};  // corrupt the recorded output shape

  const AnalysisReport report = AnalyzeProgram(&ops, &plan, 4);
  EXPECT_TRUE(HasDiag(report, "shape-inference", Severity::kError,
                      "records shape 7x7, inputs imply 200x50"))
      << Dump(report);
  EXPECT_FALSE(VerifyPlan(ops, plan, 4).ok());
}

}  // namespace
}  // namespace dmac
