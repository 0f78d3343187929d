// End-to-end governed execution through RunProgram: budgets force spill
// without changing results, the account and the spill volume do not depend
// on the engine's thread count, impossible budgets fail cleanly with no leaked
// spill files, recovery composes with spilling (regression for the
// broadcast-replica-repair bug), and a fired token preempts the fault
// layer's retry loop without being counted as a retry.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "../fault/fault_test_util.h"
#include "common/status.h"
#include "fault/fault_spec.h"
#include "governor/context.h"
#include "matrix/mem_tracker.h"
#include "obs/metrics.h"

namespace dmac {
namespace {

RunConfig BaseConfig() {
  RunConfig config;
  config.num_workers = 3;
  config.threads_per_worker = 2;
  config.seed = 42;
  return config;
}

/// Attaches a fresh budget + spill store to `config` and returns them.
GovernorContext Governed(RunConfig* config, int64_t limit_bytes) {
  GovernorContext gov;
  gov.budget = std::make_shared<MemoryBudget>(limit_bytes);
  auto spill = SpillStore::Create();
  EXPECT_TRUE(spill.ok()) << spill.status();
  gov.spill = *spill;
  config->governor = gov;
  return gov;
}

int AnyComputeStepId(const Program& program, const RunConfig& config) {
  auto plan = PlanProgram(program, config);
  EXPECT_TRUE(plan.ok()) << plan.status();
  for (const PlanStep& step : plan->steps) {
    if (step.kind == StepKind::kCompute) return step.id;
  }
  ADD_FAILURE() << "plan has no compute step";
  return -1;
}

TEST(GovernedRunTest, TightBudgetSpillsButResultsAreBitIdentical) {
  const FaultAppCase app = MakeSmallGnmf();
  const auto clean = RunProgram(app.program, app.MakeBindings(),
                                BaseConfig());
  ASSERT_TRUE(clean.ok()) << clean.status();

  // Pass 1: unlimited budget, purely to observe the peak resident set.
  RunConfig probe = BaseConfig();
  GovernorContext probe_gov = Governed(&probe, 0);
  ASSERT_TRUE(RunProgram(app.program, app.MakeBindings(), probe).ok());
  const int64_t peak = probe_gov.budget->peak_bytes();
  ASSERT_GT(peak, 0);
  EXPECT_EQ(probe_gov.spill->live_files(), 0);

  // Pass 2: squeeze to 60% of the peak — the run must spill to fit, yet
  // produce exactly the same bits.
  RunConfig tight = BaseConfig();
  GovernorContext gov = Governed(&tight, peak * 6 / 10);
  const auto governed = RunProgram(app.program, app.MakeBindings(), tight);
  ASSERT_TRUE(governed.ok()) << governed.status();
  EXPECT_GT(gov.spill->spilled_bytes(), 0);
  // Spilled blocks are either restored before their next read or Remove()d
  // when their matrix dies cold — never left behind.
  EXPECT_LE(gov.spill->restored_bytes(), gov.spill->spilled_bytes());
  EXPECT_EQ(gov.spill->live_files(), 0);
  ExpectBitIdentical(clean->result, governed->result, "tight budget");
}

TEST(GovernedRunTest, BudgetAccountIsFixedByThePlan) {
  // The account is charged from the stores at step boundaries, so neither
  // the engine's thread count nor how its threads interleave moves the
  // peak, and with it every spill decision.
  const FaultAppCase app = MakeSmallGnmf();
  int64_t peak = -1;
  int64_t spilled = -1;
  for (const int threads : {1, 2, 4}) {
    for (int repeat = 0; repeat < 3; ++repeat) {
      SCOPED_TRACE("threads " + std::to_string(threads) + ", repeat " +
                   std::to_string(repeat));
      RunConfig probe = BaseConfig();
      probe.threads_per_worker = threads;
      GovernorContext probe_gov = Governed(&probe, 0);
      ASSERT_TRUE(RunProgram(app.program, app.MakeBindings(), probe).ok());
      if (peak < 0) peak = probe_gov.budget->peak_bytes();
      EXPECT_EQ(probe_gov.budget->peak_bytes(), peak);

      RunConfig tight = BaseConfig();
      tight.threads_per_worker = threads;
      GovernorContext gov = Governed(&tight, peak * 6 / 10);
      const auto governed = RunProgram(app.program, app.MakeBindings(), tight);
      ASSERT_TRUE(governed.ok()) << governed.status();
      if (spilled < 0) spilled = gov.spill->spilled_bytes();
      EXPECT_EQ(gov.spill->spilled_bytes(), spilled);
    }
  }
  EXPECT_GT(spilled, 0);
}

TEST(GovernedRunTest, ImpossibleBudgetFailsCleanWithNoLeaks) {
  const FaultAppCase app = MakeSmallGnmf();
  RunConfig config = BaseConfig();
  GovernorContext gov = Governed(&config, 100);  // < one block

  const int64_t before = MemTracker::Global().current_bytes();
  const auto outcome = RunProgram(app.program, app.MakeBindings(), config);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kResourceExhausted)
      << outcome.status();
  // Clean failure: no partial result, no leaked spill files or blocks
  // (live block bytes back where they started), and every budget charge
  // returned.
  EXPECT_EQ(gov.spill->live_files(), 0);
  EXPECT_EQ(MemTracker::Global().current_bytes(), before);
  EXPECT_EQ(gov.budget->used_bytes(), 0);
}

// Regression: a spilled broadcast replica passes VerifyAt (its spill file
// carries the checksum) but is not resident; replica repair must not copy
// it into the crashed worker's slot as a null block, or the final lineage
// manifest check reports a bogus divergence (surfaced as kInternal by the
// chaos soak under tiny budgets).
TEST(GovernedRunTest, RecoveryComposesWithSpilledBroadcastReplicas) {
  const FaultAppCase app = MakeSmallGnmf();
  const auto clean = RunProgram(app.program, app.MakeBindings(),
                                BaseConfig());
  ASSERT_TRUE(clean.ok()) << clean.status();

  auto spec =
      LoadFaultSpecFile(DMAC_SOURCE_DIR "/scripts/faults/smoke.spec");
  ASSERT_TRUE(spec.ok()) << spec.status();

  for (const uint64_t fault_seed : {1u, 2u, 3u, 4u}) {
    RunConfig config = BaseConfig();
    config.fault = *spec;
    config.fault.seed = fault_seed;
    GovernorContext gov = Governed(&config, 5424);  // the soak repro budget
    const auto outcome = RunProgram(app.program, app.MakeBindings(), config);
    if (outcome.ok()) {
      ExpectBitIdentical(clean->result, outcome->result,
                         "faulted+spilled seed " +
                             std::to_string(fault_seed));
    } else {
      // Only clean governance/fault terminal codes are acceptable —
      // never kInternal.
      const StatusCode code = outcome.status().code();
      EXPECT_TRUE(code == StatusCode::kResourceExhausted ||
                  code == StatusCode::kUnavailable ||
                  code == StatusCode::kDataLoss)
          << outcome.status();
    }
    EXPECT_EQ(gov.spill->live_files(), 0);
  }
}

class CancelRetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MetricRegistry::Global().Reset();
    MetricRegistry::Global().SetEnabled(true);
  }
  void TearDown() override {
    MetricRegistry::Global().SetEnabled(false);
    MetricRegistry::Global().Reset();
  }

  double Retries() {
    return MetricRegistry::Global().counter("fault.retries")->value();
  }
};

TEST_F(CancelRetryTest, PermanentFaultRetriesAreCounted) {
  const FaultAppCase app = MakeSmallGnmf();
  RunConfig config = BaseConfig();
  config.fault.enabled = true;
  config.fault.max_retries = 2;
  config.fault.permanent_fail_step = AnyComputeStepId(app.program, config);

  const auto outcome = RunProgram(app.program, app.MakeBindings(), config);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kUnavailable)
      << outcome.status();
  EXPECT_EQ(Retries(), 2.0);
}

TEST_F(CancelRetryTest, ExpiredDeadlinePreemptsTheRetryPath) {
  // Same permanent fault, but the token fired before the failing step: the
  // query must exit with the governance code and the fault layer must not
  // count a single retry (mirrors ExecStats.retries, which is incremented
  // in lockstep with the metric).
  const FaultAppCase app = MakeSmallGnmf();
  RunConfig config = BaseConfig();
  config.fault.enabled = true;
  config.fault.max_retries = 5;
  config.fault.permanent_fail_step = AnyComputeStepId(app.program, config);
  config.governor.token = CancelToken::WithDeadline(1e-9);

  const auto outcome = RunProgram(app.program, app.MakeBindings(), config);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kDeadlineExceeded)
      << outcome.status();
  EXPECT_EQ(Retries(), 0.0);
}

TEST_F(CancelRetryTest, CancelDuringRetryLoopExitsPromptly) {
  // With an effectively unbounded retry budget the permanent fault would
  // spin in retry/backoff/recover for a very long time; firing the token
  // mid-loop must exit within one attempt, not run the budget out.
  const FaultAppCase app = MakeSmallGnmf();
  RunConfig config = BaseConfig();
  config.fault.enabled = true;
  config.fault.max_retries = 1000000;
  config.fault.permanent_fail_step = AnyComputeStepId(app.program, config);
  CancelToken token = CancelToken::Cancellable();
  config.governor.token = token;

  std::thread canceller([&token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    token.Cancel();
  });
  const auto start = std::chrono::steady_clock::now();
  const auto outcome = RunProgram(app.program, app.MakeBindings(), config);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  canceller.join();

  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kCancelled)
      << outcome.status();
  // Prompt exit: nowhere near the retry budget, and the attempt that
  // observed the cancellation was not counted as a retry.
  EXPECT_LT(Retries(), 1000000.0);
  EXPECT_LT(elapsed, 60.0);
}

}  // namespace
}  // namespace dmac
