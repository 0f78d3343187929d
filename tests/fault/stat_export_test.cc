// ExecStats -> metric export: after a run the registry must hold exactly
// what the run's ExecStats recorded, for the fault, network, checkpoint,
// and membership layers as well as the fault-free totals.
#include <gtest/gtest.h>

#include "apps/runner.h"
#include "fault_test_util.h"
#include "obs/metrics.h"
#include "plan/plan.h"

namespace dmac {
namespace {

/// Enables the global registry with zeroed instruments for one test and
/// restores the disabled default afterwards.
class ExecStatsExportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MetricRegistry::Global().Reset();
    MetricRegistry::Global().SetEnabled(true);
  }
  void TearDown() override {
    MetricRegistry::Global().SetEnabled(false);
    MetricRegistry::Global().Reset();
  }

  static double CounterValue(const char* name) {
    return MetricRegistry::Global().counter(name)->value();
  }
  static double GaugeValue(const char* name) {
    return MetricRegistry::Global().gauge(name)->value();
  }
};

TEST_F(ExecStatsExportTest, FaultNetworkAndMembershipFieldsAreExported) {
  const FaultAppCase app = MakeSmallGnmf();
  const Bindings bindings = app.MakeBindings();
  RunConfig config;
  config.num_workers = 4;
  config.seed = 42;
  auto plan = PlanProgram(app.program, config);
  ASSERT_TRUE(plan.ok()) << plan.status();
  int cpmm_step = -1;
  for (const PlanStep& step : plan->steps) {
    if (step.mult_algo == MultAlgo::kCPMM) {
      cpmm_step = step.id;
      break;
    }
  }
  ASSERT_GE(cpmm_step, 0) << "plan has no CPMM step to kill mid-shuffle";

  // A forced mid-shuffle death (fenced transfers, checkpoint restores),
  // network drops and partitions (retransmits), and a checkpoint per step.
  config.fault.enabled = true;
  config.fault.seed = 7;
  config.fault.death_step = cpmm_step;
  config.fault.death_worker = 1;
  config.fault.death_in_flight = true;
  config.fault.net.drop_prob = 0.1;
  config.fault.net.partition_prob = 0.02;
  config.fault.net.partition_drops = 8;
  config.checkpoint_every = 1;
  const auto outcome = RunProgram(app.program, bindings, config);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  const ExecStats& stats = outcome->result.stats;

  // Every field below actually moved, so equality is not 0 == 0.
  EXPECT_GT(stats.net.retransmits, 0);
  EXPECT_GT(stats.net.stale_fenced, 0);
  EXPECT_GT(stats.restored_blocks, 0);
  EXPECT_GT(stats.checkpoint_bytes, 0);
  EXPECT_GT(stats.recovery_seconds, 0);
  EXPECT_GT(stats.membership_epoch, 1);
  EXPECT_EQ(stats.workers_dead, 1);

  EXPECT_EQ(CounterValue("fault.net.retransmits"),
            static_cast<double>(stats.net.retransmits));
  EXPECT_EQ(CounterValue("fault.net.stale.fenced"),
            static_cast<double>(stats.net.stale_fenced));
  EXPECT_EQ(CounterValue("fault.restored.blocks"),
            static_cast<double>(stats.restored_blocks));
  EXPECT_EQ(CounterValue("fault.checkpoint.bytes"),
            static_cast<double>(stats.checkpoint_bytes));
  EXPECT_EQ(CounterValue("fault.recovery.seconds"), stats.recovery_seconds);
  EXPECT_EQ(GaugeValue("membership.epoch"),
            static_cast<double>(stats.membership_epoch));
  EXPECT_EQ(GaugeValue("membership.workers.dead"),
            static_cast<double>(stats.workers_dead));

  // A clean run never builds the membership layer, so it must leave the
  // membership gauges where the faulted run put them.
  RunConfig clean;
  clean.num_workers = 4;
  clean.seed = 42;
  const auto clean_outcome = RunProgram(app.program, bindings, clean);
  ASSERT_TRUE(clean_outcome.ok()) << clean_outcome.status();
  EXPECT_EQ(clean_outcome->result.stats.membership_epoch, 0);
  EXPECT_EQ(GaugeValue("membership.epoch"),
            static_cast<double>(stats.membership_epoch));
  EXPECT_EQ(GaugeValue("membership.workers.dead"),
            static_cast<double>(stats.workers_dead));
}

}  // namespace
}  // namespace dmac
