#include "obs/exec_stats.h"

#include <gtest/gtest.h>

namespace dmac {
namespace {

TEST(ExecStatsTest, WorkerSecondsAccumulatePerStage) {
  ExecStats stats;
  stats.AddWorkerSeconds(1, 0, 0.5);
  stats.AddWorkerSeconds(1, 0, 0.25);
  stats.AddWorkerSeconds(1, 1, 0.4);
  stats.AddWorkerSeconds(3, 2, 1.0);  // skips stage 2
  ASSERT_EQ(stats.stage_worker_seconds.size(), 3u);
  EXPECT_DOUBLE_EQ(stats.stage_worker_seconds[0][0], 0.75);
  EXPECT_DOUBLE_EQ(stats.stage_worker_seconds[0][1], 0.4);
  EXPECT_TRUE(stats.stage_worker_seconds[1].empty());
  EXPECT_DOUBLE_EQ(stats.stage_worker_seconds[2][2], 1.0);
}

TEST(ExecStatsTest, ComputeWallIsSumOfStageMaxima) {
  ExecStats stats;
  stats.AddWorkerSeconds(1, 0, 0.75);
  stats.AddWorkerSeconds(1, 1, 0.4);
  stats.AddWorkerSeconds(2, 0, 0.1);
  stats.AddWorkerSeconds(2, 1, 0.9);
  EXPECT_DOUBLE_EQ(stats.ComputeWallSeconds(), 0.75 + 0.9);
}

TEST(ExecStatsTest, TotalComputeSumsAllStagesAndWorkers) {
  ExecStats stats;
  EXPECT_DOUBLE_EQ(stats.TotalComputeSeconds(), 0);
  stats.AddWorkerSeconds(1, 0, 0.75);
  stats.AddWorkerSeconds(1, 1, 0.4);
  stats.AddWorkerSeconds(2, 0, 0.1);
  stats.AddWorkerSeconds(2, 1, 0.9);
  EXPECT_DOUBLE_EQ(stats.TotalComputeSeconds(), 0.75 + 0.4 + 0.1 + 0.9);
  // Total >= wall: the gap is idle worker time (skew).
  EXPECT_GE(stats.TotalComputeSeconds(), stats.ComputeWallSeconds());
}

TEST(ExecStatsTest, CommSecondsFollowsNetworkModel) {
  ExecStats stats;
  stats.shuffle_bytes = 250e6;
  stats.broadcast_bytes = 125e6;
  stats.shuffle_events = 2;
  stats.broadcast_events = 1;
  NetworkModel net;
  net.bandwidth_bytes_per_sec = 125e6;
  net.latency_sec = 0.5;
  EXPECT_DOUBLE_EQ(stats.CommSeconds(net), 3.0 + 3 * 0.5);
  EXPECT_DOUBLE_EQ(stats.SimulatedSeconds(net),
                   stats.ComputeWallSeconds() + 4.5);
}

TEST(ExecStatsTest, RecoveryAccountingIsSeparateFromUsefulCompute) {
  ExecStats stats;
  stats.AddWorkerSeconds(1, 0, 2.0);
  stats.recovery_seconds += 0.5;
  stats.recovery_seconds += 0.25;
  stats.retries += 3;
  stats.recomputed_blocks += 4;
  stats.recomputed_blocks += 5;
  stats.recovery_seconds += 0.125;

  // Recovered work never inflates the useful-compute totals.
  EXPECT_DOUBLE_EQ(stats.TotalComputeSeconds(), 2.0);
  EXPECT_DOUBLE_EQ(stats.ComputeWallSeconds(), 2.0);
  EXPECT_DOUBLE_EQ(stats.recovery_seconds, 0.875);
  EXPECT_EQ(stats.retries, 3);
  EXPECT_EQ(stats.recomputed_blocks, 9);
}

TEST(ExecStatsTest, EmptyStatsAreZero) {
  ExecStats stats;
  EXPECT_DOUBLE_EQ(stats.comm_bytes(), 0);
  EXPECT_EQ(stats.comm_events(), 0);
  EXPECT_DOUBLE_EQ(stats.ComputeWallSeconds(), 0);
  EXPECT_DOUBLE_EQ(stats.SimulatedSeconds(NetworkModel{}), 0);
}

}  // namespace
}  // namespace dmac
