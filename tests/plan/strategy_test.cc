#include "plan/strategy.h"

#include <gtest/gtest.h>

namespace dmac {
namespace {

Operator MakeOp(OpKind kind) {
  Operator op;
  op.kind = kind;
  op.inputs = {{"A", false}, {"B", false}};
  op.output = "C";
  return op;
}

TEST(StrategyTest, MultiplyHasThreeStrategies) {
  auto strategies = CandidateStrategies(MakeOp(OpKind::kMultiply));
  ASSERT_EQ(strategies.size(), 3u);

  // Fig. 2: RMM1 = A(b) × B(c) → AB(c).
  EXPECT_EQ(strategies[0].mult_algo, MultAlgo::kRMM1);
  EXPECT_EQ(strategies[0].input_schemes[0], Scheme::kBroadcast);
  EXPECT_EQ(strategies[0].input_schemes[1], Scheme::kCol);
  EXPECT_EQ(strategies[0].out_schemes, SchemeBit(Scheme::kCol));
  EXPECT_FALSE(strategies[0].output_comm);

  // RMM2 = A(r) × B(b) → AB(r).
  EXPECT_EQ(strategies[1].mult_algo, MultAlgo::kRMM2);
  EXPECT_EQ(strategies[1].input_schemes[0], Scheme::kRow);
  EXPECT_EQ(strategies[1].input_schemes[1], Scheme::kBroadcast);
  EXPECT_EQ(strategies[1].out_schemes, SchemeBit(Scheme::kRow));
  EXPECT_FALSE(strategies[1].output_comm);

  // CPMM = A(c) × B(r) → AB(r|c), with output communication.
  EXPECT_EQ(strategies[2].mult_algo, MultAlgo::kCPMM);
  EXPECT_EQ(strategies[2].input_schemes[0], Scheme::kCol);
  EXPECT_EQ(strategies[2].input_schemes[1], Scheme::kRow);
  EXPECT_EQ(strategies[2].out_schemes,
            SchemeBit(Scheme::kRow) | SchemeBit(Scheme::kCol));
  EXPECT_TRUE(strategies[2].output_comm);
}

TEST(StrategyTest, CellwiseRequiresAlignedSchemes) {
  for (CellOp::Kind kind : {CellOp::kAdd, CellOp::kSubtract,
                            CellOp::kMultiply, CellOp::kDivide}) {
    Operator op = MakeOp(OpKind::kCellwise);
    op.cell.kind = kind;
    auto strategies = CandidateStrategies(op);
    ASSERT_EQ(strategies.size(), 3u);
    for (const Strategy& s : strategies) {
      ASSERT_EQ(s.input_schemes.size(), 2u);
      EXPECT_EQ(s.input_schemes[0], s.input_schemes[1]);
      EXPECT_EQ(s.out_schemes, SchemeBit(s.input_schemes[0]));
      EXPECT_FALSE(s.output_comm);
    }
  }
}

TEST(StrategyTest, ScalarOpsPreserveScheme) {
  for (CellOp::Kind kind : {CellOp::kScale, CellOp::kShift}) {
    Operator op = MakeOp(OpKind::kCellwise);
    op.cell.kind = kind;
    op.inputs = {{"A", false}};
    auto strategies = CandidateStrategies(op);
    ASSERT_EQ(strategies.size(), 3u);
    for (const Strategy& s : strategies) {
      ASSERT_EQ(s.input_schemes.size(), 1u);
      EXPECT_EQ(s.out_schemes, SchemeBit(s.input_schemes[0]));
    }
  }
}

TEST(StrategyTest, ReduceAcceptsAnySchemeNoOutput) {
  Operator op = MakeOp(OpKind::kReduce);
  op.inputs = {{"A", false}};
  auto strategies = CandidateStrategies(op);
  ASSERT_EQ(strategies.size(), 3u);
  for (const Strategy& s : strategies) {
    EXPECT_EQ(s.out_schemes, kNoSchemes);
  }
}

TEST(StrategyTest, LeavesOfferAllThreeSchemes) {
  for (OpKind kind : {OpKind::kLoad, OpKind::kRandom}) {
    Operator op = MakeOp(kind);
    op.inputs.clear();
    auto strategies = CandidateStrategies(op);
    ASSERT_EQ(strategies.size(), 3u);
    SchemeSet seen = kNoSchemes;
    for (const Strategy& s : strategies) seen |= s.out_schemes;
    EXPECT_EQ(seen, SchemeBit(Scheme::kRow) | SchemeBit(Scheme::kCol) |
                        SchemeBit(Scheme::kBroadcast));
  }
}

TEST(StrategyTest, ScalarAssignHasNoStrategies) {
  Operator op = MakeOp(OpKind::kScalarAssign);
  EXPECT_TRUE(CandidateStrategies(op).empty());
}

TEST(StrategyTest, ToStringIsReadable) {
  auto strategies = CandidateStrategies(MakeOp(OpKind::kMultiply));
  EXPECT_EQ(strategies[0].ToString(), "{b,c}->c (RMM1)");
  EXPECT_EQ(strategies[2].ToString(), "{c,r}->r|c (CPMM)");
}

}  // namespace
}  // namespace dmac
