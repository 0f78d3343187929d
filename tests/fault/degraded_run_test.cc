// Permanent worker loss and degraded-mode execution
// (docs/fault_tolerance.md).
//
// The acceptance properties: losing a worker mid-query completes
// bit-identical to the fault-free run with zero stale-epoch writes applied
// (the audit counter), an in-flight death during a CPMM shuffle is fenced
// by the membership epoch, and dropping below the --min-workers quorum
// fails clean with kUnavailable instead of burning retries.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "apps/runner.h"
#include "fault_test_util.h"
#include "plan/plan.h"

namespace dmac {
namespace {

RunConfig BaseConfig(int workers) {
  RunConfig config;
  config.num_workers = workers;
  config.threads_per_worker = 2;
  config.seed = 42;
  return config;
}

/// Step ids of the plan this config would run, keyed by kind.
std::vector<int> StepIdsOfKind(const FaultAppCase& app,
                               const RunConfig& config, StepKind kind,
                               MultAlgo algo = MultAlgo::kNone) {
  auto plan = PlanProgram(app.program, config);
  EXPECT_TRUE(plan.ok()) << plan.status();
  std::vector<int> ids;
  if (!plan.ok()) return ids;
  for (const PlanStep& step : plan->steps) {
    if (step.kind != kind) continue;
    if (algo != MultAlgo::kNone && step.mult_algo != algo) continue;
    ids.push_back(step.id);
  }
  return ids;
}

TEST(DegradedRunTest, GnmfLosingOneOfFourWorkersIsBitIdentical) {
  const FaultAppCase app = MakeSmallGnmf();
  const Bindings bindings = app.MakeBindings();
  const RunConfig clean = BaseConfig(4);
  const auto baseline = RunProgram(app.program, bindings, clean);
  ASSERT_TRUE(baseline.ok()) << baseline.status();

  // Kill worker 1 at a boundary in the middle of the query.
  const auto computes =
      StepIdsOfKind(app, clean, StepKind::kCompute);
  ASSERT_FALSE(computes.empty());
  RunConfig config = clean;
  config.fault.enabled = true;
  config.fault.death_step = computes[computes.size() / 2];
  config.fault.death_worker = 1;
  const auto outcome = RunProgram(app.program, bindings, config);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  ExpectBitIdentical(baseline->result, outcome->result, "gnmf/death");

  const ExecStats& stats = outcome->result.stats;
  EXPECT_EQ(stats.workers_dead, 1);
  EXPECT_GT(stats.membership_epoch, 1);
  EXPECT_GT(stats.detection_seconds, 0.0);
  EXPECT_EQ(stats.net_stale_applied, 0);  // the audit counter
}

TEST(DegradedRunTest, InFlightDeathDuringCpmmShuffleIsEpochFenced) {
  const FaultAppCase app = MakeSmallGnmf();
  const Bindings bindings = app.MakeBindings();
  const RunConfig clean = BaseConfig(4);
  const auto baseline = RunProgram(app.program, bindings, clean);
  ASSERT_TRUE(baseline.ok()) << baseline.status();

  const auto cpmm_steps =
      StepIdsOfKind(app, clean, StepKind::kCompute, MultAlgo::kCPMM);
  if (cpmm_steps.empty()) {
    GTEST_SKIP() << "plan has no CPMM step to kill mid-shuffle";
  }
  RunConfig config = clean;
  config.fault.enabled = true;
  config.fault.death_step = cpmm_steps.front();
  // Worker 1 always has partials in flight to other owners at this step;
  // worker 0's partials happen to stay local (nothing to fence).
  config.fault.death_worker = 1;
  config.fault.death_in_flight = true;
  const auto outcome = RunProgram(app.program, bindings, config);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  ExpectBitIdentical(baseline->result, outcome->result, "gnmf/in-flight");

  const ExecStats& stats = outcome->result.stats;
  EXPECT_EQ(stats.workers_dead, 1);
  // The victim's partials were in flight when the epoch moved: they must
  // have been fenced, never applied.
  EXPECT_GT(stats.net_stale_fenced, 0);
  EXPECT_EQ(stats.net_stale_applied, 0);
}

TEST(DegradedRunTest, InFlightDeathDuringAggregateShuffleIsEpochFenced) {
  // Crossed colSums shares CPMM's shuffle-and-sum round, so a death there
  // must be fenced the same way.
  const FaultAppCase app = MakeSmallColSums();
  const Bindings bindings = app.MakeBindings();
  const RunConfig clean = BaseConfig(4);
  const auto baseline = RunProgram(app.program, bindings, clean);
  ASSERT_TRUE(baseline.ok()) << baseline.status();

  auto plan = PlanProgram(app.program, clean);
  ASSERT_TRUE(plan.ok()) << plan.status();
  int aggregate_step = -1;
  for (const PlanStep& step : plan->steps) {
    if (step.op_kind == OpKind::kColSums && step.comm_bytes > 0) {
      aggregate_step = step.id;  // crossed: the sums shuffle
      break;
    }
  }
  ASSERT_GE(aggregate_step, 0) << "plan has no crossed colSums step";
  RunConfig config = clean;
  config.fault.enabled = true;
  config.fault.death_step = aggregate_step;
  // Worker 1 holds W's block-rows, so its partial vectors are in flight to
  // their owner (worker 0) when it dies.
  config.fault.death_worker = 1;
  config.fault.death_in_flight = true;
  const auto outcome = RunProgram(app.program, bindings, config);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  ExpectBitIdentical(baseline->result, outcome->result, "colsums/in-flight");

  const ExecStats& stats = outcome->result.stats;
  EXPECT_EQ(stats.workers_dead, 1);
  EXPECT_GT(stats.net_stale_fenced, 0);
  EXPECT_EQ(stats.net_stale_applied, 0);
}

TEST(DegradedRunTest, BelowQuorumFailsCleanWithUnavailable) {
  const FaultAppCase app = MakeSmallGnmf();
  const Bindings bindings = app.MakeBindings();
  RunConfig config = BaseConfig(3);
  config.min_workers = 3;  // any death breaks quorum
  config.fault.enabled = true;
  config.fault.death_step = 0;
  config.fault.death_worker = 2;
  const auto outcome = RunProgram(app.program, bindings, config);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(outcome.status().message().find("quorum"), std::string::npos)
      << outcome.status();
}

TEST(DegradedRunTest, OutOfRangeDeathWorkerIsInvalid) {
  // A spec that asks for a death of a worker the cluster does not have must
  // fail at setup, not run clean.
  const FaultAppCase app = MakeSmallGnmf();
  RunConfig config = BaseConfig(3);
  config.fault.enabled = true;
  config.fault.death_step = 0;
  config.fault.death_worker = config.num_workers;
  const auto outcome = RunProgram(app.program, app.MakeBindings(), config);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kInvalidArgument)
      << outcome.status();
  EXPECT_NE(outcome.status().message().find("death_worker"),
            std::string::npos)
      << outcome.status();
}

class DeathSweepTest : public ::testing::TestWithParam<int> {
 protected:
  static FaultAppCase MakeCase(int index) {
    return index == 0 ? MakeSmallGnmf() : MakeSmallPageRank();
  }
};

TEST_P(DeathSweepTest, QuorumBudgetedDeathsStayBitIdenticalAcrossSeeds) {
  const FaultAppCase app = MakeCase(GetParam());
  const Bindings bindings = app.MakeBindings();
  const RunConfig clean = BaseConfig(3);
  const auto baseline = RunProgram(app.program, bindings, clean);
  ASSERT_TRUE(baseline.ok()) << baseline.status();

  int64_t total_deaths = 0;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    RunConfig config = clean;
    config.min_workers = 2;  // the quorum boundary: at most one death
    config.fault.enabled = true;
    config.fault.seed = seed;
    config.fault.death_prob = 0.05;
    const std::string context =
        app.name + "/death/seed=" + std::to_string(seed);
    const auto outcome = RunProgram(app.program, bindings, config);
    ASSERT_TRUE(outcome.ok()) << context << ": " << outcome.status();
    ExpectBitIdentical(baseline->result, outcome->result, context);
    const ExecStats& stats = outcome->result.stats;
    // The death budget stops at the quorum: never more than
    // num_workers - min_workers deaths, and never a failed run.
    EXPECT_LE(stats.workers_dead, 1) << context;
    EXPECT_EQ(stats.net_stale_applied, 0) << context;
    total_deaths += stats.workers_dead;
  }
  // The sweep must actually kill workers, not pass vacuously.
  EXPECT_GT(total_deaths, 0) << app.name;
}

INSTANTIATE_TEST_SUITE_P(Apps, DeathSweepTest, ::testing::Values(0, 1),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return info.param == 0 ? std::string("gnmf")
                                                  : std::string("pagerank");
                         });

}  // namespace
}  // namespace dmac
