// The comm layer's byte rule, driven directly: each form of §4.1's
// accounting (load, partition, hash shuffle, broadcast, shuffle-and-sum,
// reduce) is checked to the byte, together with what End() adds to
// ExecStats and when a send is delivered.
#include "runtime/comm.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "matrix/block_ops.h"

namespace dmac {
namespace {

constexpr double kBlockBytes = 1000;

TEST(CommRoundTest, LoadCountsEveryBlockOncePerCopy) {
  ExecStats stats;
  CommLayer comm(4, &stats);
  CommRound shuffle(&comm, "load", CommKind::kShuffle, "A");
  shuffle.ChargeLoad(kBlockBytes);
  shuffle.ChargeLoad(kBlockBytes);
  ASSERT_TRUE(shuffle.End().ok());
  CommRound broadcast(&comm, "load", CommKind::kBroadcast, "B");
  broadcast.ChargeLoad(kBlockBytes);
  ASSERT_TRUE(broadcast.End().ok());
  EXPECT_EQ(stats.shuffle_bytes, 2 * kBlockBytes);
  EXPECT_EQ(stats.broadcast_bytes, 4 * kBlockBytes);
  EXPECT_EQ(stats.shuffle_events, 1);
  EXPECT_EQ(stats.broadcast_events, 1);
}

TEST(CommRoundTest, PartitionCountsABlockWhenItsHostsDiffer) {
  ExecStats stats;
  CommLayer comm(3, &stats);
  CommRound round(&comm, "partition", CommKind::kShuffle);
  int delivered = 0;
  round.Send(0, 0, kBlockBytes, [&] { ++delivered; });
  round.Send(0, 2, kBlockBytes, [&] { ++delivered; });
  round.Send(1, 0, 2 * kBlockBytes, [&] { ++delivered; });
  // Without a fault layer every send is delivered inline.
  EXPECT_EQ(delivered, 3);
  ASSERT_TRUE(round.End().ok());
  EXPECT_EQ(stats.shuffle_bytes, 3 * kBlockBytes);
  EXPECT_EQ(stats.shuffle_events, 1);
  EXPECT_EQ(stats.comm_events(), 1);
}

TEST(CommRoundTest, SameSchemePartitionChargesTheHashShuffleFraction) {
  ExecStats stats;
  CommLayer comm(4, &stats);
  CommRound round(&comm, "partition", CommKind::kShuffle);
  for (int w = 0; w < 4; ++w) {
    round.ChargeHashShuffle(kBlockBytes);
    round.Send(w, w, kBlockBytes, [] {});  // placement stays: no bytes
  }
  ASSERT_TRUE(round.End().ok());
  EXPECT_EQ(stats.shuffle_bytes, 4 * kBlockBytes * 3 / 4);
}

TEST(CommRoundTest, BroadcastCountsOneCopyPerOtherHost) {
  ExecStats stats;
  CommLayer comm(5, &stats);
  CommRound round(&comm, "broadcast", CommKind::kBroadcast);
  for (int w = 0; w < 5; ++w) round.Send(2, w, kBlockBytes, [] {});
  ASSERT_TRUE(round.End().ok());
  EXPECT_EQ(stats.broadcast_bytes, 4 * kBlockBytes);
  EXPECT_EQ(stats.broadcast_events, 1);
  EXPECT_EQ(stats.shuffle_bytes, 0);
}

TEST(CommRoundTest, ReduceChargesEightBytesPerWorkerInNoRound) {
  ExecStats stats;
  CommLayer comm(6, &stats);
  CommRound round(&comm, "reduce", CommKind::kShuffle);
  round.ChargeReduce();
  ASSERT_TRUE(round.End().ok());
  EXPECT_EQ(stats.shuffle_bytes, 8.0 * 6);
  EXPECT_EQ(stats.comm_events(), 0);
}

TEST(CommRoundTest, ARoundDroppedWithoutEndCountsNothing) {
  ExecStats stats;
  CommLayer comm(2, &stats);
  {
    CommRound round(&comm, "partition", CommKind::kShuffle);
    round.Send(0, 1, kBlockBytes, [] {});
  }
  EXPECT_EQ(stats.comm_bytes(), 0);
  EXPECT_EQ(stats.comm_events(), 0);
}

TEST(CommLayerTest, ShuffleToOwnersCountsPartialsLeavingTheirHost) {
  // A 2 x 2 block grid under Row on 2 workers: worker 0 owns block row 0.
  ExecStats stats;
  CommLayer comm(2, &stats);
  DistMatrix c(BlockGrid{{4, 4}, 2}, Scheme::kRow, 2);
  const auto partial = [](int64_t bi, int64_t bj, int from) {
    return Partial{bi, bj, NewBlockPtr(RandomDenseBlock(2, 2, 7)), from};
  };
  const double block_bytes =
      static_cast<double>(RandomDenseBlock(2, 2, 7).MemoryBytes());
  std::vector<std::vector<Partial>> partials(2);
  // Out of key order, as pool threads may leave them.
  partials[0] = {partial(1, 1, 0), partial(0, 0, 0), partial(1, 0, 0)};
  partials[1] = {partial(0, 1, 1), partial(1, 1, 1)};
  std::vector<std::vector<Partial>> incoming;
  int polls = 0;
  ASSERT_TRUE(comm.ShuffleToOwners(
                      PlanStep{}, "cpmm-shuffle", c, &partials,
                      [&polls] {
                        ++polls;
                        return Status::Ok();
                      },
                      &incoming)
                  .ok());
  EXPECT_EQ(polls, 1);
  // Worker 0's two row-1 partials and worker 1's row-0 partial cross.
  EXPECT_EQ(stats.shuffle_bytes, 3 * block_bytes);
  EXPECT_EQ(stats.shuffle_events, 1);
  ASSERT_EQ(incoming.size(), 2u);
  ASSERT_EQ(incoming[0].size(), 2u);
  EXPECT_EQ(incoming[0][0].from, 0);  // sender order, then block key order
  EXPECT_EQ(incoming[0][1].from, 1);
  ASSERT_EQ(incoming[1].size(), 3u);
  EXPECT_EQ(incoming[1][0].bj, 0);
  EXPECT_EQ(incoming[1][1].bj, 1);
  EXPECT_EQ(incoming[1][2].from, 1);
}

TEST(CommLayerTest, AFailedCancelPollEndsTheShuffleUncounted) {
  ExecStats stats;
  CommLayer comm(2, &stats);
  DistMatrix c(BlockGrid{{2, 2}, 2}, Scheme::kRow, 2);
  std::vector<std::vector<Partial>> partials(2);
  partials[1] = {{0, 0, NewBlockPtr(RandomDenseBlock(2, 2, 3)), 1}};
  std::vector<std::vector<Partial>> incoming;
  const Status st = comm.ShuffleToOwners(
      PlanStep{}, "cpmm-shuffle", c, &partials,
      [] { return Status::Cancelled("stop"); }, &incoming);
  EXPECT_EQ(st.code(), StatusCode::kCancelled);
  EXPECT_EQ(stats.comm_bytes(), 0);
  EXPECT_EQ(stats.comm_events(), 0);
}

TEST(CommLayerTest, ReplicateSharesWorkerZerosBlocksForFree) {
  ExecStats stats;
  CommLayer comm(3, &stats);
  DistMatrix dm(BlockGrid{{4, 2}, 2}, Scheme::kBroadcast, 3);
  dm.Put(0, 0, 0, NewBlockPtr(RandomDenseBlock(2, 2, 1)));
  dm.Put(0, 1, 0, NewBlockPtr(RandomDenseBlock(2, 2, 2)));
  ASSERT_TRUE(comm.Replicate(&dm).ok());
  for (int w = 1; w < 3; ++w) {
    EXPECT_EQ(dm.Get(w, 0, 0), dm.Get(0, 0, 0));
    EXPECT_EQ(dm.Get(w, 1, 0), dm.Get(0, 1, 0));
  }
  EXPECT_EQ(stats.comm_bytes(), 0);
}

TEST(CommLayerTest, ReadingAMissingBlockIsDataLoss) {
  ExecStats stats;
  CommLayer comm(2, &stats);
  DistMatrix dm(BlockGrid{{2, 2}, 2}, Scheme::kRow, 2);
  const auto ptr = comm.ReadBlock(dm, 1, 0, 0, "partition");
  ASSERT_FALSE(ptr.ok());
  EXPECT_EQ(ptr.status().code(), StatusCode::kDataLoss);
}

/// A step runner whose steps all succeed and touch nothing.
class NoopRunner final : public StepRunner {
 public:
  Status ExecuteStep(const PlanStep&) override { return Status::Ok(); }
  std::shared_ptr<DistMatrix> NewData(int, Shape) override { return nullptr; }
  Status CheckCancel() override { return Status::Ok(); }
};

TEST(CommRoundTest, SlotsCoHostedAfterADeathMoveNoBytes) {
  // Worker 1 dies at step 0; its slot is hosted by survivor 2.
  ExecutorOptions opts;
  opts.num_workers = 4;
  opts.fault.enabled = true;
  opts.fault.death_step = 0;
  opts.fault.death_worker = 1;
  Plan plan;
  PlanStep step;
  step.id = 0;
  step.kind = StepKind::kScalarAssign;
  plan.steps.push_back(step);
  NoopRunner runner;
  NodeTable nodes;
  std::vector<int> last_consumer;
  ScalarEnv scalars;
  ExecStats stats;
  auto fault = FaultLayer::Create(opts, plan, &runner, &nodes, &last_consumer,
                                  &scalars, &stats);
  ASSERT_TRUE(fault.ok()) << fault.status();
  ASSERT_TRUE((*fault)->RunStep(plan.steps[0]).ok());
  ASSERT_EQ((*fault)->HostOf(1), 2);

  CommLayer comm(4, &stats);
  comm.set_fault_layer(fault->get());
  CommRound round(&comm, "partition", CommKind::kShuffle);
  int delivered = 0;
  round.Send(1, 2, kBlockBytes, [&] { ++delivered; });
  round.Send(2, 1, kBlockBytes, [&] { ++delivered; });
  round.Send(1, 3, kBlockBytes, [&] { ++delivered; });
  // With a simulated network, cross-slot sends wait for the round's end.
  EXPECT_EQ(delivered, 0);
  ASSERT_TRUE(round.End().ok());
  EXPECT_EQ(delivered, 3);
  EXPECT_EQ(stats.shuffle_bytes, kBlockBytes);
}

}  // namespace
}  // namespace dmac
