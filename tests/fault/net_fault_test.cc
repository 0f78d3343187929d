// Message-level network fault injection (docs/fault_tolerance.md).
//
// Unit tests drive SimNetwork directly: guaranteed delivery under drops,
// duplicate suppression, sorted (sender, sequence) delivery, and the
// stale-epoch fence. The end-to-end sweep then runs GNMF and PageRank under
// duplicate-heavy, reorder-heavy, drop-heavy, delay, and transient-partition
// specs across ten injector seeds each, asserting the outputs stay
// bit-identical to the fault-free run while only fault.net.* accounting
// moves.
#include "runtime/network.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "apps/runner.h"
#include "fault/injector.h"
#include "fault/retry_policy.h"
#include "fault_test_util.h"
#include "runtime/membership.h"

namespace dmac {
namespace {

TEST(SimNetworkTest, CleanNetworkDeliversInSenderSequenceOrder) {
  SimNetwork net(nullptr, nullptr, RetryPolicy{});
  std::vector<int> order;
  // Queue out of sender order; delivery must be (from, to, seq) sorted.
  net.Send(2, 0, 8, [&] { order.push_back(20); });
  net.Send(0, 0, 8, [&] { order.push_back(1); });
  net.Send(0, 0, 8, [&] { order.push_back(2); });
  net.Send(1, 0, 8, [&] { order.push_back(10); });
  ASSERT_TRUE(net.pending());
  ASSERT_TRUE(net.Flush("test").ok());
  EXPECT_FALSE(net.pending());
  EXPECT_EQ(order, (std::vector<int>{1, 2, 10, 20}));
  EXPECT_EQ(net.stats().messages, 4);
  EXPECT_EQ(net.stats().retransmits, 0);
  EXPECT_EQ(net.stats().duplicates, 0);
}

FaultSpec NetSpec(double drop, double dup, double reorder, double delay,
                  double partition) {
  FaultSpec spec;
  spec.enabled = true;
  spec.seed = 1;
  spec.net.drop_prob = drop;
  spec.net.dup_prob = dup;
  spec.net.reorder_prob = reorder;
  spec.net.delay_prob = delay;
  spec.net.partition_prob = partition;
  return spec;
}

TEST(SimNetworkTest, CertainDropStillDeliversUnderTheRetryBudget) {
  FaultSpec spec = NetSpec(1.0, 0, 0, 0, 0);
  FaultInjector injector(spec);
  RetryPolicy policy;
  policy.max_retries = 3;
  SimNetwork net(&injector, nullptr, policy);
  int commits = 0;
  net.Send(0, 1, 100, [&] { ++commits; });
  ASSERT_TRUE(net.Flush("test").ok());
  EXPECT_EQ(commits, 1);  // delivery is guaranteed, drops only retransmit
  EXPECT_EQ(net.stats().retransmits, 3);
  EXPECT_DOUBLE_EQ(net.stats().retrans_bytes, 300.0);
  EXPECT_GT(net.stats().delay_seconds, 0.0);
}

TEST(SimNetworkTest, DuplicatesAreDedupedAtDelivery) {
  FaultSpec spec = NetSpec(0, 1.0, 0, 0, 0);
  FaultInjector injector(spec);
  SimNetwork net(&injector, nullptr, RetryPolicy{});
  int commits = 0;
  net.Send(0, 1, 8, [&] { ++commits; });
  net.Send(1, 0, 8, [&] { ++commits; });
  ASSERT_TRUE(net.Flush("test").ok());
  // Every message was duplicated on the wire; each commit ran exactly once
  // — the non-idempotent CPMM accumulation sites depend on this.
  EXPECT_EQ(commits, 2);
  EXPECT_EQ(net.stats().duplicates, 2);
}

TEST(SimNetworkTest, StaleEpochSendsAreFencedAndSurfaceDataLoss) {
  ClusterMembership membership(3);
  SimNetwork net(nullptr, &membership, RetryPolicy{});
  int live_commits = 0;
  int zombie_commits = 0;
  net.Send(0, 2, 8, [&] { ++live_commits; });
  net.Send(1, 2, 8, [&] { ++zombie_commits; });
  // Worker 1 dies while its send is in flight: the epoch moves past it.
  membership.DeclareDead(1);
  Status st = net.Flush("cpmm-shuffle");
  EXPECT_EQ(st.code(), StatusCode::kDataLoss);
  EXPECT_NE(st.message().find("stale-epoch"), std::string::npos);
  EXPECT_EQ(live_commits, 1);    // live senders unaffected
  EXPECT_EQ(zombie_commits, 0);  // the zombie write never lands
  EXPECT_EQ(net.stats().stale_fenced, 1);
  EXPECT_EQ(net.stats().stale_applied, 0);
}

TEST(SimNetworkTest, ClearDropsQueuedSendsWithoutDelivering) {
  SimNetwork net(nullptr, nullptr, RetryPolicy{});
  int commits = 0;
  net.Send(0, 1, 8, [&] { ++commits; });
  ASSERT_TRUE(net.pending());
  net.Clear();
  EXPECT_FALSE(net.pending());
  ASSERT_TRUE(net.Flush("test").ok());
  EXPECT_EQ(commits, 0);
}

TEST(SimNetworkTest, TransientPartitionForceDropsBothDirectionsThenHeals) {
  FaultSpec spec = NetSpec(0, 0, 0, 0, 1.0);
  spec.net.partition_drops = 2;
  FaultInjector injector(spec);
  RetryPolicy policy;
  policy.max_retries = 4;
  SimNetwork net(&injector, nullptr, policy);
  int commits = 0;
  net.Send(0, 1, 8, [&] { ++commits; });  // opens the partition, victim 0
  net.Send(1, 0, 8, [&] { ++commits; });  // inbound to the victim: dropped
  net.Send(1, 2, 8, [&] { ++commits; });  // partition exhausted: may redraw
  ASSERT_TRUE(net.Flush("test").ok());
  EXPECT_EQ(commits, 3);
  EXPECT_GE(net.stats().partitions, 1);
  EXPECT_GE(net.stats().retransmits, 2);  // both forced drops retransmitted
}

// ---- end-to-end bit-identity sweep --------------------------------------

struct NetMode {
  const char* name;
  FaultSpec spec;
};

std::vector<NetMode> NetModes() {
  std::vector<NetMode> modes;
  modes.push_back({"drop-heavy", NetSpec(0.2, 0, 0, 0, 0)});
  modes.push_back({"dup-heavy", NetSpec(0, 0.2, 0, 0, 0)});
  modes.push_back({"reorder-heavy", NetSpec(0, 0, 0.2, 0, 0)});
  modes.push_back({"delay", NetSpec(0, 0, 0, 0.2, 0)});
  NetMode partition{"partition", NetSpec(0, 0, 0, 0, 0.02)};
  partition.spec.net.partition_drops = 4;
  modes.push_back(partition);
  modes.push_back({"net-mixed", NetSpec(0.1, 0.1, 0.1, 0.05, 0.01)});
  return modes;
}

RunConfig BaseConfig() {
  RunConfig config;
  config.num_workers = 3;
  config.threads_per_worker = 2;
  config.seed = 42;
  return config;
}

class NetFaultIdentityTest : public ::testing::TestWithParam<int> {
 protected:
  static FaultAppCase MakeCase(int index) {
    switch (index) {
      case 0:
        return MakeSmallGnmf();
      case 1:
        return MakeSmallPageRank();
      default:
        return MakeSmallColSums();
    }
  }
};

TEST_P(NetFaultIdentityTest, NetworkFaultsNeverChangeResults) {
  const FaultAppCase app = MakeCase(GetParam());
  const Bindings bindings = app.MakeBindings();
  const auto baseline = RunProgram(app.program, bindings, BaseConfig());
  ASSERT_TRUE(baseline.ok()) << baseline.status();

  int64_t total_messages = 0;
  int64_t total_perturbations = 0;
  for (const NetMode& mode : NetModes()) {
    for (uint64_t seed = 1; seed <= 10; ++seed) {
      RunConfig config = BaseConfig();
      config.fault = mode.spec;
      config.fault.seed = seed;
      const std::string context =
          app.name + "/" + mode.name + "/seed=" + std::to_string(seed);
      const auto outcome = RunProgram(app.program, bindings, config);
      ASSERT_TRUE(outcome.ok()) << context << ": " << outcome.status();
      ExpectBitIdentical(baseline->result, outcome->result, context);
      const ExecStats& stats = outcome->result.stats;
      total_messages += stats.net.messages;
      total_perturbations += stats.net.retransmits + stats.net.duplicates +
                             stats.net.reordered + stats.net.partitions;
      // The audit counter: a dead-sender transfer must never be applied
      // (nothing dies in this sweep, so even fencing stays silent).
      EXPECT_EQ(stats.net.stale_applied, 0) << context;
    }
  }
  // The sweep must exercise the network layer, not pass vacuously.
  EXPECT_GT(total_messages, 0) << app.name;
  EXPECT_GT(total_perturbations, 0) << app.name;
}

INSTANTIATE_TEST_SUITE_P(Apps, NetFaultIdentityTest,
                         ::testing::Values(0, 1, 2),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return std::string(info.param == 0   ? "gnmf"
                                              : info.param == 1 ? "pagerank"
                                                                : "colsums");
                         });

}  // namespace
}  // namespace dmac
