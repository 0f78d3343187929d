// Plan::Finalize() invariants: topological ordering, stage assignment,
// flexible-scheme collapse, and cycle detection on hand-built plans.
#include <gtest/gtest.h>

#include "plan/plan.h"

namespace dmac {
namespace {

int AddNode(Plan* plan, const std::string& name, SchemeSet schemes) {
  PlanNode node;
  node.id = static_cast<int>(plan->nodes.size());
  node.matrix = name;
  node.schemes = schemes;
  node.stats = {{16, 16}, 1.0};
  plan->nodes.push_back(node);
  return node.id;
}

PlanStep& AddStep(Plan* plan, StepKind kind, std::vector<int> inputs,
                  int output) {
  PlanStep step;
  step.id = static_cast<int>(plan->steps.size());
  step.kind = kind;
  step.inputs = std::move(inputs);
  step.output = output;
  if (kind == StepKind::kLoad) {
    step.source = "X";
    step.decl_shape = {16, 16};
  }
  plan->steps.push_back(std::move(step));
  return plan->steps.back();
}

TEST(PlanFinalizeTest, ReordersStepsTopologically) {
  Plan plan;
  const int a = AddNode(&plan, "A", SchemeBit(Scheme::kRow));
  const int b = AddNode(&plan, "B", SchemeBit(Scheme::kRow));
  const int c = AddNode(&plan, "C", SchemeBit(Scheme::kRow));
  // Steps inserted out of order: consumer before producer.
  PlanStep& mul = AddStep(&plan, StepKind::kCompute, {a, b}, c);
  mul.op_kind = OpKind::kCellwise;
  mul.cell.kind = CellOp::kMultiply;
  AddStep(&plan, StepKind::kLoad, {}, a);
  AddStep(&plan, StepKind::kLoad, {}, b);

  ASSERT_TRUE(plan.Finalize().ok());
  // After finalize, every input precedes its consumer.
  std::vector<bool> produced(plan.nodes.size(), false);
  for (const PlanStep& s : plan.steps) {
    for (int in : s.inputs) EXPECT_TRUE(produced[static_cast<size_t>(in)]);
    if (s.output >= 0) produced[static_cast<size_t>(s.output)] = true;
  }
}

TEST(PlanFinalizeTest, StagesStartAtCommunication) {
  Plan plan;
  const int a = AddNode(&plan, "A", SchemeBit(Scheme::kRow));
  const int b = AddNode(&plan, "B", SchemeBit(Scheme::kCol));
  const int c = AddNode(&plan, "C", SchemeBit(Scheme::kCol));
  AddStep(&plan, StepKind::kLoad, {}, a);       // comm: stage 1
  AddStep(&plan, StepKind::kPartition, {a}, b)  // comm: stage 2
      .comm_bytes = 128;
  PlanStep& local = AddStep(&plan, StepKind::kTranspose, {b}, c);  // stage 2
  ASSERT_TRUE(plan.Finalize().ok());
  EXPECT_EQ(plan.steps[0].stage, 1);
  EXPECT_EQ(plan.steps[1].stage, 2);
  EXPECT_EQ(plan.steps[2].stage, 2);
  EXPECT_EQ(plan.num_stages, 2);
  EXPECT_DOUBLE_EQ(plan.total_comm_bytes, 128);
  (void)local;
}

TEST(PlanFinalizeTest, CollapsesFlexibleSchemes) {
  Plan plan;
  const int a = AddNode(&plan, "A",
                        SchemeBit(Scheme::kRow) | SchemeBit(Scheme::kCol));
  AddStep(&plan, StepKind::kLoad, {}, a);
  ASSERT_TRUE(plan.Finalize().ok());
  EXPECT_TRUE(SchemeSetIsSingle(plan.nodes[0].schemes));
  EXPECT_EQ(plan.nodes[0].scheme(), Scheme::kRow);
}

TEST(PlanFinalizeTest, DetectsCycles) {
  Plan plan;
  const int a = AddNode(&plan, "A", SchemeBit(Scheme::kRow));
  const int b = AddNode(&plan, "B", SchemeBit(Scheme::kRow));
  AddStep(&plan, StepKind::kTranspose, {b}, a);
  AddStep(&plan, StepKind::kTranspose, {a}, b);
  Status st = plan.Finalize();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInternal);
}

TEST(PlanFinalizeTest, MissingProducerDetected) {
  Plan plan;
  const int a = AddNode(&plan, "A", SchemeBit(Scheme::kRow));
  const int b = AddNode(&plan, "B", SchemeBit(Scheme::kRow));
  AddStep(&plan, StepKind::kTranspose, {b}, a);  // b never produced
  EXPECT_FALSE(plan.Finalize().ok());
}

TEST(PlanFinalizeTest, ToStringListsStagesInOrder) {
  Plan plan;
  const int a = AddNode(&plan, "A", SchemeBit(Scheme::kRow));
  const int b = AddNode(&plan, "B", SchemeBit(Scheme::kBroadcast));
  AddStep(&plan, StepKind::kLoad, {}, a);
  AddStep(&plan, StepKind::kBroadcast, {a}, b).comm_bytes = 64;
  ASSERT_TRUE(plan.Finalize().ok());
  const std::string text = plan.ToString();
  const size_t s1 = text.find("=== Stage 1 ===");
  const size_t s2 = text.find("=== Stage 2 ===");
  ASSERT_NE(s1, std::string::npos);
  ASSERT_NE(s2, std::string::npos);
  EXPECT_LT(s1, s2);
  EXPECT_NE(text.find("broadcast"), std::string::npos);
  EXPECT_NE(text.find("B(b)"), std::string::npos);
}

}  // namespace
}  // namespace dmac
