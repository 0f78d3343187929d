// Epoch-based membership unit tests (docs/fault_tolerance.md): the
// death-only failure detector, epoch monotonicity, and the deterministic
// HostOf rebalance used by degraded mode.
#include "runtime/membership.h"

#include <gtest/gtest.h>

namespace dmac {
namespace {

TEST(MembershipTest, StartsAliveAtEpochOne) {
  ClusterMembership m(4);
  EXPECT_EQ(m.num_workers(), 4);
  EXPECT_EQ(m.epoch(), 1);
  EXPECT_EQ(m.live_workers(), 4);
  for (int w = 0; w < 4; ++w) {
    EXPECT_FALSE(m.IsDead(w));
    EXPECT_EQ(m.HostOf(w), w);
  }
}

TEST(MembershipTest, DeathIsPermanent) {
  ClusterMembership m(3);
  ASSERT_GT(m.DeclareDead(2), 0.0);
  const int64_t epoch = m.epoch();
  EXPECT_TRUE(m.IsDead(2));
  EXPECT_EQ(m.live_workers(), 2);
  EXPECT_EQ(m.DeclareDead(2), 0.0);  // idempotent
  EXPECT_EQ(m.epoch(), epoch);       // no transition, no bump
  EXPECT_TRUE(m.IsDead(2));
}

TEST(MembershipTest, DeclareDeadReportsDetectionLatency) {
  ClusterMembership m(2);
  // Four missed 0.1 s heartbeats.
  EXPECT_DOUBLE_EQ(m.DeclareDead(0), 0.4);
  EXPECT_DOUBLE_EQ(m.DeclareDead(1), 0.4);
}

TEST(MembershipTest, EachDeathAdvancesTheEpochByTwo) {
  ClusterMembership m(3);
  for (int w = 0; w < 3; ++w) {
    m.DeclareDead(w);  // alive -> suspect -> dead
    EXPECT_EQ(m.epoch(), 1 + 2 * (w + 1));
    EXPECT_EQ(m.live_workers(), 2 - w);
  }
}

TEST(MembershipTest, HostOfScansToTheNextLiveWorker) {
  ClusterMembership m(4);
  m.DeclareDead(1);
  EXPECT_EQ(m.HostOf(0), 0);
  EXPECT_EQ(m.HostOf(1), 2);  // (1+1) % 4 is alive
  EXPECT_EQ(m.HostOf(2), 2);
  m.DeclareDead(2);
  EXPECT_EQ(m.HostOf(1), 3);  // scan skips the second corpse
  EXPECT_EQ(m.HostOf(2), 3);
  m.DeclareDead(3);
  EXPECT_EQ(m.HostOf(3), 0);  // wraps around
  const std::vector<int> map = m.HostMap();
  ASSERT_EQ(map.size(), 4u);
  EXPECT_EQ(map[0], 0);
  EXPECT_EQ(map[1], 0);
  EXPECT_EQ(map[2], 0);
  EXPECT_EQ(map[3], 0);
}

TEST(MembershipTest, HostOfIsIdentityWhenEveryWorkerIsDead) {
  ClusterMembership m(2);
  m.DeclareDead(0);
  m.DeclareDead(1);
  EXPECT_EQ(m.HostOf(0), 0);
  EXPECT_EQ(m.HostOf(1), 1);
}

}  // namespace
}  // namespace dmac
