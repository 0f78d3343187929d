// Executor-level recovery semantics: retry exhaustion surfaces a clean
// error, transient faults resolve within the retry budget, checkpointing
// is transparent, and the disabled fault path touches nothing.
#include <gtest/gtest.h>

#include <string>

#include "apps/runner.h"
#include "fault_test_util.h"

namespace dmac {
namespace {

RunConfig BaseConfig() {
  RunConfig config;
  config.num_workers = 3;
  config.threads_per_worker = 2;
  config.seed = 42;
  return config;
}

/// The id of some kCompute step of `program`'s plan — a step whose worker
/// task launches pass through the injector.
int AnyComputeStepId(const Program& program, const RunConfig& config) {
  auto plan = PlanProgram(program, config);
  EXPECT_TRUE(plan.ok()) << plan.status();
  for (const PlanStep& step : plan->steps) {
    if (step.kind == StepKind::kCompute) return step.id;
  }
  ADD_FAILURE() << "plan has no compute step";
  return -1;
}

TEST(RecoveryTest, RetryExhaustionIsACleanError) {
  const FaultAppCase app = MakeSmallGnmf();
  RunConfig config = BaseConfig();
  config.fault.enabled = true;
  config.fault.max_retries = 2;
  config.fault.permanent_fail_step =
      AnyComputeStepId(app.program, config);

  const auto outcome = RunProgram(app.program, app.MakeBindings(), config);
  // A permanent fault must surface as a Status, not a crash or a partial
  // result (RunProgram returns no result at all on error).
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kUnavailable)
      << outcome.status();
  EXPECT_NE(outcome.status().ToString().find("attempts"), std::string::npos)
      << outcome.status();
}

TEST(RecoveryTest, ZeroRetriesGivesUpOnTheFirstFailure) {
  const FaultAppCase app = MakeSmallGnmf();
  RunConfig config = BaseConfig();
  config.fault.enabled = true;
  config.fault.max_retries = 0;
  config.fault.permanent_fail_step =
      AnyComputeStepId(app.program, config);
  const auto outcome = RunProgram(app.program, app.MakeBindings(), config);
  ASSERT_FALSE(outcome.ok());
  EXPECT_NE(outcome.status().ToString().find("1 attempts"),
            std::string::npos)
      << outcome.status();
}

TEST(RecoveryTest, TransientFaultsResolveWithinTheRetryBudget) {
  const FaultAppCase app = MakeSmallGnmf();
  const auto baseline =
      RunProgram(app.program, app.MakeBindings(), BaseConfig());
  ASSERT_TRUE(baseline.ok()) << baseline.status();

  RunConfig config = BaseConfig();
  config.fault.enabled = true;
  config.fault.seed = 5;
  config.fault.transient_prob = 0.5;
  const auto outcome = RunProgram(app.program, app.MakeBindings(), config);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  // The injector's per-step budget guarantees convergence; at this rate the
  // fixed schedule certainly fired.
  EXPECT_GT(outcome->result.stats.faults_injected, 0);
  EXPECT_GT(outcome->result.stats.retries, 0);
  EXPECT_GT(outcome->result.stats.recovery_seconds, 0);
  ExpectBitIdentical(baseline->result, outcome->result, "transient");
  // Recovery work must not inflate the useful-compute account.
  EXPECT_NEAR(outcome->result.stats.TotalComputeSeconds(),
              baseline->result.stats.TotalComputeSeconds(),
              0.5 * baseline->result.stats.TotalComputeSeconds() + 0.05);
}

TEST(RecoveryTest, StragglersAreHarmless) {
  const FaultAppCase app = MakeSmallPageRank();
  const auto baseline =
      RunProgram(app.program, app.MakeBindings(), BaseConfig());
  ASSERT_TRUE(baseline.ok()) << baseline.status();

  RunConfig config = BaseConfig();
  config.fault.enabled = true;
  config.fault.seed = 9;
  config.fault.straggler_prob = 0.5;
  config.fault.straggler_delay_seconds = 0.02;
  const auto outcome = RunProgram(app.program, app.MakeBindings(), config);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  const ExecStats& stats = outcome->result.stats;
  EXPECT_GT(stats.faults_injected, 0);
  ExpectBitIdentical(baseline->result, outcome->result, "straggler");
  // Every injected fault is a straggler, and its delay is charged to the
  // worker's stage seconds, not to recovery.
  EXPECT_DOUBLE_EQ(stats.recovery_seconds, 0);
  EXPECT_GE(stats.TotalComputeSeconds(),
            config.fault.straggler_delay_seconds *
                static_cast<double>(stats.faults_injected));
}

TEST(RecoveryTest, RandomOutputDrawsOneLaunchFaultPerWorker) {
  // Each worker generates all of its blocks of a random matrix in one task
  // launch, so a certain straggler fires once per worker, not per block.
  auto program = ParseProgram("R = random(256, 256)\noutput(R)\n");
  ASSERT_TRUE(program.ok()) << program.status();
  RunConfig config = BaseConfig();
  config.block_size = kFaultBs;  // a 16 x 16 block grid
  config.fault.enabled = true;
  config.fault.straggler_prob = 1;
  const auto outcome = RunProgram(*program, Bindings{}, config);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_EQ(outcome->result.stats.faults_injected, config.num_workers);
}

TEST(RecoveryTest, CheckpointingIsTransparent) {
  const FaultAppCase app = MakeSmallGnmf();
  const auto baseline =
      RunProgram(app.program, app.MakeBindings(), BaseConfig());
  ASSERT_TRUE(baseline.ok()) << baseline.status();

  RunConfig config = BaseConfig();
  config.checkpoint_every = 1;
  const auto outcome = RunProgram(app.program, app.MakeBindings(), config);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  // GNMF hints W and H; every producing step triggers the counter.
  EXPECT_GT(outcome->result.stats.checkpoint_bytes, 0);
  ExpectBitIdentical(baseline->result, outcome->result, "checkpoint");
}

TEST(RecoveryTest, CheckpointsServeRecoveryInsteadOfRecompute) {
  // The same fixed-seed crash schedule over an iterative program, with and
  // without checkpoints: checkpointed nodes are restored from their lineage
  // records instead of re-running their producers, and the results agree.
  const FaultAppCase app = MakeSmallGnmf();
  RunConfig config = BaseConfig();
  config.fault.enabled = true;
  config.fault.seed = 7;
  config.fault.crash_prob = 0.2;
  const auto lineage_only =
      RunProgram(app.program, app.MakeBindings(), config);
  ASSERT_TRUE(lineage_only.ok()) << lineage_only.status();
  config.checkpoint_every = 1;
  const auto checkpointed =
      RunProgram(app.program, app.MakeBindings(), config);
  ASSERT_TRUE(checkpointed.ok()) << checkpointed.status();

  const ExecStats& without = lineage_only->result.stats;
  const ExecStats& with = checkpointed->result.stats;
  ASSERT_GT(with.faults_injected, 0);
  EXPECT_EQ(with.faults_injected, without.faults_injected);
  EXPECT_GT(with.checkpoint_bytes, 0);
  EXPECT_GT(with.restored_blocks, without.restored_blocks);
  EXPECT_LT(with.recomputed_blocks, without.recomputed_blocks);
  ExpectBitIdentical(lineage_only->result, checkpointed->result,
                     "checkpointed recovery");
}

/// Runs the small GNMF clean and under `faulted`, and checks that the
/// faulted run's useful communication is the clean run's to the byte: the
/// attempt that succeeds is useful work, while failed attempts and recovery
/// sweeps are charged to recovery.
void ExpectCleanRunsTraffic(const RunConfig& faulted) {
  const FaultAppCase app = MakeSmallGnmf();
  const auto clean =
      RunProgram(app.program, app.MakeBindings(), BaseConfig());
  ASSERT_TRUE(clean.ok()) << clean.status();
  const auto outcome = RunProgram(app.program, app.MakeBindings(), faulted);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  const ExecStats& stats = outcome->result.stats;
  ASSERT_GT(stats.retries, 0);  // the schedule fired and was retried
  EXPECT_EQ(stats.comm_bytes(), clean->result.stats.comm_bytes());
  EXPECT_EQ(stats.comm_events(), clean->result.stats.comm_events());
  ExpectBitIdentical(clean->result, outcome->result, "faulted");
}

TEST(RecoveryTest, RetriedLaunchesCountTheCleanRunsTraffic) {
  RunConfig config = BaseConfig();
  config.fault.enabled = true;
  config.fault.seed = 5;
  config.fault.transient_prob = 0.5;
  ExpectCleanRunsTraffic(config);
}

TEST(RecoveryTest, RecoveredCrashesAndLostBlocksCountTheCleanRunsTraffic) {
  RunConfig config = BaseConfig();
  config.fault.enabled = true;
  config.fault.seed = 7;
  config.fault.crash_prob = 0.2;
  config.fault.lost_block_prob = 0.02;
  ExpectCleanRunsTraffic(config);
}

TEST(RecoveryTest, DisabledFaultPathLeavesCountersZero) {
  const FaultAppCase app = MakeSmallPageRank();
  const auto outcome =
      RunProgram(app.program, app.MakeBindings(), BaseConfig());
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  const ExecStats& stats = outcome->result.stats;
  EXPECT_EQ(stats.faults_injected, 0);
  EXPECT_EQ(stats.retries, 0);
  EXPECT_EQ(stats.recomputed_blocks, 0);
  EXPECT_EQ(stats.restored_blocks, 0);
  EXPECT_EQ(stats.checkpoint_bytes, 0);
  EXPECT_DOUBLE_EQ(stats.recovery_bytes, 0);
  EXPECT_DOUBLE_EQ(stats.recovery_seconds, 0);
}

TEST(RecoveryTest, EnabledButQuietSpecChangesNothing) {
  // enabled with all probabilities zero: the fault path runs (checksums,
  // lineage) but injects nothing — results and counters as a plain run.
  const FaultAppCase app = MakeSmallGnmf();
  const auto baseline =
      RunProgram(app.program, app.MakeBindings(), BaseConfig());
  ASSERT_TRUE(baseline.ok()) << baseline.status();

  RunConfig config = BaseConfig();
  config.fault.enabled = true;
  const auto outcome = RunProgram(app.program, app.MakeBindings(), config);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_EQ(outcome->result.stats.faults_injected, 0);
  EXPECT_EQ(outcome->result.stats.retries, 0);
  ExpectBitIdentical(baseline->result, outcome->result, "quiet");
}

TEST(RecoveryTest, InvalidSpecIsRejectedBeforeExecution) {
  const FaultAppCase app = MakeSmallGnmf();
  RunConfig config = BaseConfig();
  config.fault.enabled = true;
  config.fault.crash_prob = 2.0;
  const auto outcome = RunProgram(app.program, app.MakeBindings(), config);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace dmac
