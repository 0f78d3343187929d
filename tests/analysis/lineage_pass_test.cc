// lineage-completeness pass: producer_step annotations, producibility of
// consumed nodes, and termination of output lineage closures.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/passes.h"
#include "analysis_test_util.h"

namespace dmac {
namespace {

constexpr char kPass[] = "lineage-completeness";

AnalysisReport RunPass(const Plan& plan) {
  AnalysisContext ctx;
  ctx.plan = &plan;
  std::vector<Diagnostic> out;
  MakeLineageCompletenessPass()->Run(ctx, &out);
  AnalysisReport report;
  report.diagnostics = std::move(out);
  return report;
}

Plan SmallPlan() {
  return MustPlan(ParseOps(
      "A = load(\"A\", 600, 400, 0.1)\n"
      "B = load(\"B\", 400, 300, 1)\n"
      "C = A %*% B\n"
      "output(C)\n"));
}

TEST(LineagePassTest, CleanPlanHasNoFindings) {
  const AnalysisReport report = RunPass(SmallPlan());
  EXPECT_TRUE(report.diagnostics.empty()) << Dump(report);
}

TEST(LineagePassTest, OperatorOnlyContextIsSkipped) {
  AnalysisContext ctx;
  const OperatorList ops = ParseOps(
      "A = load(\"A\", 10, 10, 1)\n"
      "output(A)\n");
  ctx.ops = &ops;
  std::vector<Diagnostic> out;
  MakeLineageCompletenessPass()->Run(ctx, &out);
  EXPECT_TRUE(out.empty());
}

TEST(LineagePassTest, StaleProducerAnnotationIsAnError) {
  Plan plan = SmallPlan();
  // Point one produced node at a different (valid) step.
  for (PlanNode& node : plan.nodes) {
    if (node.producer_step > 0) {
      node.producer_step = 0;
      break;
    }
  }
  const AnalysisReport report = RunPass(plan);
  EXPECT_TRUE(HasDiag(report, kPass, Severity::kError,
                      "but is written by step"))
      << Dump(report);
}

TEST(LineagePassTest, OutOfRangeProducerAnnotationIsAnError) {
  Plan plan = SmallPlan();
  plan.nodes.front().producer_step = 999;
  const AnalysisReport report = RunPass(plan);
  EXPECT_TRUE(HasDiag(report, kPass, Severity::kError,
                      "outside the step table"))
      << Dump(report);
}

TEST(LineagePassTest, MissingProducerStepIsAnError) {
  Plan plan = SmallPlan();
  // Delete the producing step of some consumed node: its consumers and the
  // output lineage both lose their recovery recipe.
  plan.steps.erase(plan.steps.begin());
  const AnalysisReport report = RunPass(plan);
  EXPECT_TRUE(HasDiag(report, kPass, Severity::kError, "no step produces"))
      << Dump(report);
}

TEST(LineagePassTest, StepIdOffItsPositionIsAnError) {
  Plan plan = SmallPlan();
  // Erasing the first step shifts every later step one position down, so
  // each id now names the step after it in the table.
  plan.steps.erase(plan.steps.begin());
  const AnalysisReport report = RunPass(plan);
  EXPECT_TRUE(HasDiag(report, kPass, Severity::kError,
                      "sits at position 0 of the step table"))
      << Dump(report);
}

TEST(LineagePassTest, LineageCycleIsAnError) {
  Plan plan = SmallPlan();
  // Rewire the output's producer to consume its own output node.
  const int out_node = plan.outputs.front().node;
  for (PlanStep& step : plan.steps) {
    if (step.output == out_node) {
      step.inputs.assign(1, out_node);
      break;
    }
  }
  const AnalysisReport report = RunPass(plan);
  EXPECT_TRUE(HasDiag(report, kPass, Severity::kError, "cycles through"))
      << Dump(report);
}

TEST(LineagePassTest, ResumeWithoutCheckpointHintsWarns) {
  const Plan plan = SmallPlan();
  AnalysisContext ctx;
  ctx.plan = &plan;
  ctx.resume = true;
  std::vector<Diagnostic> out;
  MakeLineageCompletenessPass()->Run(ctx, &out);
  AnalysisReport report;
  report.diagnostics = std::move(out);
  EXPECT_TRUE(
      HasDiag(report, kPass, Severity::kWarning, "no checkpoint hints"))
      << Dump(report);
}

TEST(LineagePassTest, ResumeWithCheckpointHintsDoesNotWarn) {
  Plan plan = SmallPlan();
  plan.nodes.back().checkpoint_hint = true;
  AnalysisContext ctx;
  ctx.plan = &plan;
  ctx.resume = true;
  std::vector<Diagnostic> out;
  MakeLineageCompletenessPass()->Run(ctx, &out);
  EXPECT_TRUE(out.empty());
}

TEST(LineagePassTest, NoResumeNoCadenceWarning) {
  // The same hint-free plan is silent without resume (RunPass leaves
  // ctx.resume at its default false).
  const AnalysisReport report = RunPass(SmallPlan());
  EXPECT_TRUE(report.diagnostics.empty()) << Dump(report);
}

TEST(LineagePassTest, AnalyzeProgramPlumbsResumeThrough) {
  const OperatorList ops = ParseOps(
      "A = load(\"A\", 600, 400, 0.1)\n"
      "B = load(\"B\", 400, 300, 1)\n"
      "C = A %*% B\n"
      "output(C)\n");
  const Plan plan = MustPlan(ops);
  const AnalysisReport report =
      AnalyzeProgram(&ops, &plan, /*num_workers=*/4, /*min_workers=*/1,
                     /*resume=*/true);
  EXPECT_TRUE(
      HasDiag(report, kPass, Severity::kWarning, "no checkpoint hints"))
      << Dump(report);
}

TEST(LineagePassTest, EveryPaperPlanIsLineageComplete) {
  for (const char* script :
       {"V = load(\"V\", 3000, 1200, 0.01)\n"
        "W = random(3000, 40)\n"
        "H = random(40, 1200)\n"
        "H = H * (t(W) %*% V) / (t(W) %*% W %*% H)\n"
        "W = W * (V %*% t(H)) / (W %*% H %*% t(H))\n"
        "output(W)\noutput(H)\n",
        "link = load(\"link\", 5000, 5000, 0.001)\n"
        "D = load(\"D\", 1, 5000, 1)\n"
        "rank = random(1, 5000)\n"
        "rank = (rank %*% link) * 0.85 + D * 0.15\n"
        "output(rank)\n"}) {
    const AnalysisReport report = RunPass(MustPlan(ParseOps(script)));
    EXPECT_TRUE(report.diagnostics.empty()) << Dump(report);
  }
}

}  // namespace
}  // namespace dmac
