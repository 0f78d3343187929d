// Golden diagnostics of the comm-cost and alias-safety passes.
//
// comm-cost recomputes every step's communication bytes from shapes and
// schemes (§4.1 cost situations) and must catch a plan whose recorded
// estimates drifted from what the shapes imply; alias-safety catches the
// §5 in-place hazard (updating a matrix that is still live).
#include <gtest/gtest.h>

#include "analysis/analyzer.h"
#include "analysis_test_util.h"

namespace dmac {
namespace {

const char kProgram[] =
    "V = load(\"V\", 100000, 1000, 0.001)\n"
    "w = random(1000, 1)\n"
    "p = V %*% w\n"
    "q = t(V) %*% p\n"
    "output(q)\n";

// ---- comm-cost -----------------------------------------------------------

TEST(CommPassTest, ValidPlanCommEstimatesReconcile) {
  const OperatorList ops = ParseOps(kProgram);
  const Plan plan = MustPlan(ops);
  const AnalysisReport report = AnalyzeProgram(&ops, &plan, 4);
  EXPECT_TRUE(report.FromPass("comm-cost").empty()) << Dump(report);
}

TEST(CommPassTest, InflatedStepEstimateIsDiagnosed) {
  const OperatorList ops = ParseOps(kProgram);
  Plan plan = MustPlan(ops);
  PlanStep* comm_step = nullptr;
  for (PlanStep& step : plan.steps) {
    if (step.Communicates()) comm_step = &step;
  }
  ASSERT_NE(comm_step, nullptr);
  comm_step->comm_bytes = comm_step->comm_bytes * 10 + 12345;

  const AnalysisReport report = AnalyzeProgram(&ops, &plan, 4);
  EXPECT_TRUE(HasDiag(report, "comm-cost", Severity::kError,
                      "shapes and schemes imply"))
      << Dump(report);
}

TEST(CommPassTest, PhantomCommOnALocalStepIsDiagnosed) {
  const OperatorList ops = ParseOps(kProgram);
  Plan plan = MustPlan(ops);
  PlanStep* local_step = nullptr;
  for (PlanStep& step : plan.steps) {
    if (!step.Communicates() && step.kind == StepKind::kCompute) {
      local_step = &step;
    }
  }
  ASSERT_NE(local_step, nullptr);
  local_step->comm_bytes = 1e6;  // a local step claims network traffic

  const AnalysisReport report = AnalyzeProgram(&ops, &plan, 4);
  EXPECT_TRUE(HasDiag(report, "comm-cost", Severity::kError,
                      "shapes and schemes imply"))
      << Dump(report);
}

TEST(CommPassTest, WrongPlanTotalIsDiagnosed) {
  const OperatorList ops = ParseOps(kProgram);
  Plan plan = MustPlan(ops);
  plan.total_comm_bytes += 4096;

  const AnalysisReport report = AnalyzeProgram(&ops, &plan, 4);
  EXPECT_TRUE(HasDiag(report, "comm-cost", Severity::kError,
                      "plan total_comm_bytes is"))
      << Dump(report);
}

// ---- alias-safety --------------------------------------------------------

TEST(AliasPassTest, SelfReadingUpdateIsDiagnosed) {
  OperatorList ops;
  Operator load;
  load.id = 0;
  load.kind = OpKind::kLoad;
  load.output = "A#1";
  load.decl_shape = {10, 10};
  load.source = "A";
  ops.ops.push_back(load);

  Operator update;  // A#1 = A#1 + A#1 — an in-place self update
  update.id = 1;
  update.kind = OpKind::kCellwise;  // CellOp::kAdd
  update.inputs = {{"A#1", false}, {"A#1", false}};
  update.output = "A#1";
  ops.ops.push_back(update);
  ops.output_bindings["A"] = {"A#1", false};

  const AnalysisReport report = AnalyzeProgram(&ops, nullptr, 4);
  EXPECT_TRUE(HasDiag(report, "alias-safety", Severity::kError,
                      "in place while reading it"))
      << Dump(report);
}

TEST(AliasPassTest, OverwritingALiveMatrixIsDiagnosed) {
  OperatorList ops;
  Operator load;
  load.id = 0;
  load.kind = OpKind::kLoad;
  load.output = "A#1";
  load.decl_shape = {10, 10};
  load.source = "A";
  ops.ops.push_back(load);

  Operator clobber;  // redefine A#1 from fresh data...
  clobber.id = 1;
  clobber.kind = OpKind::kRandom;
  clobber.output = "A#1";
  clobber.decl_shape = {10, 10};
  clobber.source = "seed";
  ops.ops.push_back(clobber);

  Operator reader;  // ...while a later operator still reads it
  reader.id = 2;
  reader.kind = OpKind::kRowSums;
  reader.inputs = {{"A#1", false}};
  reader.output = "B#1";
  ops.ops.push_back(reader);
  ops.output_bindings["B"] = {"B#1", false};

  const AnalysisReport report = AnalyzeProgram(&ops, nullptr, 4);
  EXPECT_TRUE(HasDiag(report, "alias-safety", Severity::kError,
                      "while it is still live"))
      << Dump(report);
}

TEST(AliasPassTest, StepReadingItsOwnOutputIsDiagnosed) {
  const OperatorList ops = ParseOps(kProgram);
  Plan plan = MustPlan(ops);
  PlanStep* compute = nullptr;
  for (PlanStep& step : plan.steps) {
    if (step.kind == StepKind::kCompute && !step.inputs.empty() &&
        step.output >= 0) {
      compute = &step;
    }
  }
  ASSERT_NE(compute, nullptr);
  compute->inputs[0] = compute->output;

  const AnalysisReport report = AnalyzeProgram(&ops, &plan, 4);
  EXPECT_TRUE(HasDiag(report, "alias-safety", Severity::kError,
                      "reads and writes node"))
      << Dump(report);
}

TEST(AliasPassTest, SsaProgramsHaveNoAliasErrors) {
  const OperatorList ops = ParseOps(kProgram);
  const Plan plan = MustPlan(ops);
  const AnalysisReport report = AnalyzeProgram(&ops, &plan, 4);
  for (const Diagnostic& d : report.FromPass("alias-safety")) {
    EXPECT_NE(d.severity, Severity::kError) << d.ToString();
  }
}

}  // namespace
}  // namespace dmac
