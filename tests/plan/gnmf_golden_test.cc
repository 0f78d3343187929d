// Golden test: the structure of the GNMF plan at Netflix scale — the
// reproduction's analogue of the paper's Fig. 3 walkthrough. Pins down
// which strategy each multiply uses in steady state and which matrices
// ever cross the network, so planner regressions are caught precisely.
#include <gtest/gtest.h>

#include <map>

#include "apps/gnmf.h"
#include "lang/decompose.h"
#include "plan/planner.h"

namespace dmac {
namespace {

Plan NetflixGnmfPlan(int iterations) {
  Program p = BuildGnmfProgram({480189, 17770, 0.011, 200, iterations});
  auto ops = Decompose(p);
  EXPECT_TRUE(ops.ok());
  PlannerOptions opts;
  opts.num_workers = 4;
  auto plan = GeneratePlan(*ops, opts);
  EXPECT_TRUE(plan.ok());
  return *plan;
}

TEST(GnmfGoldenTest, SteadyStateMultiplyStrategies) {
  // Iteration 2+ is steady state. Expected per iteration, as in §6.2/Fig. 3:
  //   WᵀV   → CPMM  (Wᵀ(c) free from W(r); V(r) cached)
  //   WᵀW   → CPMM  (tiny k×k output)
  //   WᵀW·H → RMM   (broadcast the tiny k×k factor)
  //   V·Hᵀ  → RMM2  (broadcast the small Hᵀ)
  //   H·Hᵀ  → RMM   (k×k output from broadcast H)
  //   W·HHᵀ → RMM2  (broadcast the tiny k×k factor)
  Plan plan = NetflixGnmfPlan(3);

  // Count strategies over the final iteration's multiply steps.
  std::vector<MultAlgo> algos;
  for (const PlanStep& s : plan.steps) {
    if (s.kind == StepKind::kCompute && s.op_kind == OpKind::kMultiply) {
      algos.push_back(s.mult_algo);
    }
  }
  // 6 multiplies per iteration, 3 iterations.
  ASSERT_EQ(algos.size(), 18u);
  std::map<MultAlgo, int> last_iteration;
  for (size_t i = 12; i < 18; ++i) ++last_iteration[algos[i]];
  EXPECT_EQ(last_iteration[MultAlgo::kCPMM], 2);  // WᵀV and WᵀW
  EXPECT_EQ(last_iteration[MultAlgo::kRMM1] + last_iteration[MultAlgo::kRMM2],
            4);
}

TEST(GnmfGoldenTest, OnlySmallMatricesMoveInSteadyState) {
  // After the one-time V load/partition, no step may move anything within
  // an order of magnitude of |V| (~750 MB) or dense |W| (~384 MB): only
  // k-width factors (≲ 57 MB at k=200) travel.
  Plan plan = NetflixGnmfPlan(3);
  double v_scale_moves = 0;
  int load_steps = 0;
  for (const PlanStep& s : plan.steps) {
    if (s.kind == StepKind::kLoad) {
      ++load_steps;
      continue;
    }
    EXPECT_LT(s.comm_bytes, 80e6) << "step " << s.id << " moves "
                                  << s.comm_bytes;
    v_scale_moves += s.comm_bytes > 100e6;
  }
  EXPECT_EQ(load_steps, 1);
  EXPECT_EQ(v_scale_moves, 0);
}

TEST(GnmfGoldenTest, SteadyStateCommMatchesPaperRate) {
  // §6.2: ~1.5 GB over 10 iterations. Our plan's steady-state rate:
  // CPMM(WᵀV) N·|WᵀV| + CPMM(WᵀW) N·|WᵀW| + broadcasts of WᵀW, Hᵀ, HHᵀ
  // ≈ 115 MB per iteration at N=4.
  Plan plan3 = NetflixGnmfPlan(3);
  Plan plan4 = NetflixGnmfPlan(4);
  const double per_iteration =
      plan4.total_comm_bytes - plan3.total_comm_bytes;
  EXPECT_GT(per_iteration, 80e6);
  EXPECT_LT(per_iteration, 150e6);
  // 10 iterations land in the paper's reported ballpark (~1.5 GB ± load).
  const double ten_iterations =
      plan3.total_comm_bytes + 7 * per_iteration;
  EXPECT_GT(ten_iterations, 1.0e9);
  EXPECT_LT(ten_iterations, 2.5e9);
}

TEST(GnmfGoldenTest, CellwiseOperatorsAreFullyLocal) {
  // §6.2: "DMac can conduct this computation phase without any
  // communication cost" — every cell-wise step must cost zero and sit in
  // the same stage as at least one of its producers.
  Plan plan = NetflixGnmfPlan(2);
  for (const PlanStep& s : plan.steps) {
    if (s.kind != StepKind::kCompute) continue;
    if (s.op_kind == OpKind::kCellwise &&
        (s.cell.kind == CellOp::kMultiply || s.cell.kind == CellOp::kDivide)) {
      EXPECT_EQ(s.comm_bytes, 0);
      EXPECT_FALSE(s.Communicates());
    }
  }
}

TEST(GnmfGoldenTest, TransposesAreDerivedNotShipped) {
  // Every Wᵀ/Hᵀ in the program resolves through local transpose/extract
  // steps; a transpose must never be preceded by a partition of the same
  // matrix within the iteration (that would be a Transpose-Partition
  // dependency the planner should have avoided).
  Plan plan = NetflixGnmfPlan(2);
  int transposes = 0;
  for (const PlanStep& s : plan.steps) {
    if (s.kind == StepKind::kTranspose) {
      ++transposes;
      EXPECT_EQ(s.comm_bytes, 0);
    }
  }
  EXPECT_GT(transposes, 0);
}

TEST(GnmfGoldenTest, StageCountGrowsLinearlyWithIterations) {
  // Stages per iteration are constant in steady state (the paper's Fig. 3
  // shows a fixed per-iteration stage structure).
  const int s2 = NetflixGnmfPlan(2).num_stages;
  const int s3 = NetflixGnmfPlan(3).num_stages;
  const int s4 = NetflixGnmfPlan(4).num_stages;
  EXPECT_EQ(s3 - s2, s4 - s3);
  EXPECT_GT(s3, s2);
}

}  // namespace
}  // namespace dmac
