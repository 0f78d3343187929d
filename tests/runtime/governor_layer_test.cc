// GovernorLayer: a run with neither a budget nor a spill store gets no
// layer (a cancel token alone is the executor's poll), the account follows
// the stores' resident owned bytes at step boundaries, and a step whose
// single output block exceeds the whole budget fails before it runs.
#include "runtime/governor_layer.h"

#include <gtest/gtest.h>

#include <memory>

#include "matrix/dense_block.h"

namespace dmac {
namespace {

/// A one-node plan: step 0 of `kind` produces node 0, a rows x cols matrix.
Plan OneStepPlan(StepKind kind, int64_t rows, int64_t cols) {
  Plan plan;
  PlanNode node;
  node.id = 0;
  node.stats.shape = {rows, cols};
  node.producer_step = 0;
  plan.nodes.push_back(node);
  PlanStep step;
  step.id = 0;
  step.kind = kind;
  step.output = 0;
  step.decl_shape = {rows, cols};
  plan.steps.push_back(step);
  return plan;
}

GovernorContext Budgeted(int64_t limit_bytes) {
  GovernorContext gov;
  gov.budget = std::make_shared<MemoryBudget>(limit_bytes);
  return gov;
}

TEST(GovernorLayerTest, NoBudgetAndNoSpillStoreConstructNoLayer) {
  const Plan plan;
  const NodeTable nodes;
  EXPECT_EQ(GovernorLayer::Create(GovernorContext{}, plan, &nodes, 16),
            nullptr);
  GovernorContext token_only;
  token_only.token = CancelToken::Cancellable();
  EXPECT_EQ(GovernorLayer::Create(token_only, plan, &nodes, 16), nullptr);
}

TEST(GovernorLayerTest, BudgetOrSpillStoreConstructsALayer) {
  const Plan plan;
  const NodeTable nodes;
  EXPECT_NE(GovernorLayer::Create(Budgeted(0), plan, &nodes, 16), nullptr);
  GovernorContext spill_only;
  auto spill = SpillStore::Create();
  ASSERT_TRUE(spill.ok()) << spill.status();
  spill_only.spill = *spill;
  EXPECT_NE(GovernorLayer::Create(spill_only, plan, &nodes, 16), nullptr);
}

TEST(GovernorLayerTest, ChargesResidentOwnedBytesAtStepBoundaries) {
  const Plan plan = OneStepPlan(StepKind::kRandom, 4, 4);
  NodeTable nodes(1);
  const GovernorContext gov = Budgeted(0);
  {
    auto layer = GovernorLayer::Create(gov, plan, &nodes, 4);
    auto dm = std::make_shared<DistMatrix>(BlockGrid{{4, 8}, 4},
                                           Scheme::kRow, 1);
    nodes[0] = dm;
    dm->Put(0, 0, 0, NewBlockPtr(Block(DenseBlock(4, 4))));
    // An alias of a caller's block is not owned and not charged.
    const Block binding(DenseBlock(4, 4));
    dm->Put(0, 0, 1, DistMatrix::BlockPtr(std::shared_ptr<void>(), &binding));
    EXPECT_EQ(gov.budget->used_bytes(), 0);  // nothing until the boundary
    layer->AfterStep();
    const int64_t owned = dm->OwnedBytes();
    EXPECT_GT(owned, 0);
    EXPECT_EQ(gov.budget->used_bytes(), owned);

    nodes[0] = nullptr;  // the node dies: its charge goes at the next step
    dm.reset();
    ASSERT_TRUE(layer->BeforeStep(plan.steps[0]).ok());
    EXPECT_EQ(gov.budget->used_bytes(), 0);
    EXPECT_EQ(gov.budget->peak_bytes(), owned);
    nodes[0] = std::make_shared<DistMatrix>(BlockGrid{{4, 4}, 4},
                                            Scheme::kRow, 1);
    nodes[0]->Put(0, 0, 0, NewBlockPtr(Block(DenseBlock(4, 4))));
    layer->AfterStep();
    EXPECT_GT(gov.budget->used_bytes(), 0);
  }
  // The layer returns its charge when the run ends.
  EXPECT_EQ(gov.budget->used_bytes(), 0);
}

TEST(GovernorLayerTest, OversizeOutputBlockIsRejectedBeforeTheStepRuns) {
  // A 128x128 output block can never fit a 64-byte budget, even with
  // everything else spilled: the step fails before it runs.
  const Plan plan = OneStepPlan(StepKind::kRandom, 128, 128);
  const NodeTable nodes(1);
  const GovernorContext gov = Budgeted(64);
  auto layer = GovernorLayer::Create(gov, plan, &nodes, 128);
  ASSERT_NE(layer, nullptr);
  const Status st = layer->BeforeStep(plan.steps[0]);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted) << st;
  EXPECT_EQ(gov.budget->used_bytes(), 0);

  // A load aliases the caller's binding and owns nothing: never rejected.
  const Plan load = OneStepPlan(StepKind::kLoad, 128, 128);
  auto load_layer = GovernorLayer::Create(gov, load, &nodes, 128);
  EXPECT_TRUE(load_layer->BeforeStep(load.steps[0]).ok());
}

}  // namespace
}  // namespace dmac
