// Footprint estimate (plan/footprint.h) under in-place execution: an
// element-wise step whose first input dies there writes into that input,
// so the input's bytes leave before the output's enter.
#include "plan/footprint.h"

#include <gtest/gtest.h>

#include "lang/decompose.h"
#include "lang/program.h"
#include "plan/planner.h"

namespace dmac {
namespace {

constexpr int kWorkers = 4;

Plan MustPlan(const Program& p) {
  auto ops = Decompose(p);
  EXPECT_TRUE(ops.ok()) << ops.status();
  PlannerOptions opts;
  opts.num_workers = kWorkers;
  auto plan = GeneratePlan(*ops, opts);
  EXPECT_TRUE(plan.ok()) << plan.status();
  return *plan;
}

int64_t NodeBytes(const Plan& plan, int id) {
  const PlanNode& node = plan.nodes[static_cast<size_t>(id)];
  const int64_t replicas = node.scheme() == Scheme::kBroadcast ? kWorkers : 1;
  return static_cast<int64_t>(node.stats.EstimatedBytes()) * replicas;
}

/// C = (A %*% B) * 2 with a thin A and B: the dense product dominates.
/// `keep_product` also outputs the product, so it outlives the scale.
Program ScaledProduct(bool keep_product) {
  ProgramBuilder pb;
  Mat a = pb.Load("A", {400, 8}, 1.0);
  Mat b = pb.Load("B", {8, 300}, 1.0);
  Mat p = pb.Var("P");
  pb.Assign(p, a.mm(b));
  Mat c = pb.Var("C");
  pb.Assign(c, p * 2.0);
  if (keep_product) pb.Output(p);
  pb.Output(c);
  return pb.Build();
}

const PlanStep& ScaleStep(const Plan& plan) {
  for (const PlanStep& s : plan.steps) {
    if (s.op_kind == OpKind::kCellwise && s.cell.kind == CellOp::kScale) {
      return s;
    }
  }
  ADD_FAILURE() << "no scalar multiply in\n" << plan.ToString();
  return plan.steps.front();
}

TEST(FootprintTest, ScaleOfADyingProductAddsNoBytes) {
  const Plan plan = MustPlan(ScaledProduct(/*keep_product=*/false));
  const PlanStep& scale = ScaleStep(plan);
  const int64_t product = NodeBytes(plan, scale.inputs[0]);
  const int64_t scaled = NodeBytes(plan, scale.output);
  ASSERT_EQ(product, scaled);
  const int64_t peak = EstimatePlanFootprintBytes(plan, kWorkers);
  // The product and its scaled copy are never resident together.
  EXPECT_GE(peak, product);
  EXPECT_LT(peak, product + scaled);
}

TEST(FootprintTest, ProductThatOutlivesTheScaleIsCountedWithIt) {
  const Plan plan = MustPlan(ScaledProduct(/*keep_product=*/true));
  const PlanStep& scale = ScaleStep(plan);
  EXPECT_GE(EstimatePlanFootprintBytes(plan, kWorkers),
            NodeBytes(plan, scale.inputs[0]) + NodeBytes(plan, scale.output));
}

TEST(FootprintTest, LoadedInputIsNotWrittenInto) {
  // C = A * 2 reads A's load, which aliases the caller's binding: the
  // estimate charges both, as the run allocates C beside the binding.
  ProgramBuilder pb;
  Mat a = pb.Load("A", {400, 300}, 1.0);
  Mat c = pb.Var("C");
  pb.Assign(c, a * 2.0);
  pb.Output(c);
  const Plan plan = MustPlan(pb.Build());
  const PlanStep& scale = ScaleStep(plan);
  EXPECT_GE(EstimatePlanFootprintBytes(plan, kWorkers),
            NodeBytes(plan, scale.inputs[0]) + NodeBytes(plan, scale.output));
}

}  // namespace
}  // namespace dmac
