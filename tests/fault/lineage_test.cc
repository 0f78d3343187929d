// LineageTracker records: layout, provenance, and checkpoint payloads.
#include "fault/lineage.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "fault/checksum.h"
#include "matrix/block.h"

namespace dmac {
namespace {

NodeLineage MakeLineage(int node_id) {
  NodeLineage lin;
  lin.node_id = node_id;
  lin.producer_step = 3;
  lin.inputs = {0, 1};
  lin.blocks = {{1, 7, 0xbeef, nullptr},
                {0, 2, 0xcafe, nullptr},
                {0, 5, 0xfeed, nullptr}};
  return lin;
}

TEST(LineageTrackerTest, RecordFindRoundTrip) {
  LineageTracker tracker;
  EXPECT_EQ(tracker.Find(4), nullptr);
  tracker.Record(MakeLineage(4));
  const NodeLineage* found = tracker.Find(4);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->producer_step, 3);
  EXPECT_EQ(found->inputs, (std::vector<int>{0, 1}));
  EXPECT_EQ(tracker.size(), 1u);
  EXPECT_EQ(tracker.Find(5), nullptr);
}

TEST(LineageTrackerTest, BlocksAreSortedForDeterministicComparison) {
  LineageTracker tracker;
  tracker.Record(MakeLineage(9));
  const NodeLineage* found = tracker.Find(9);
  ASSERT_NE(found, nullptr);
  ASSERT_EQ(found->blocks.size(), 3u);
  EXPECT_EQ(found->blocks[0].worker, 0);
  EXPECT_EQ(found->blocks[0].key, 2);
  EXPECT_EQ(found->blocks[1].worker, 0);
  EXPECT_EQ(found->blocks[1].key, 5);
  EXPECT_EQ(found->blocks[2].worker, 1);
  EXPECT_EQ(found->blocks[2].key, 7);
}

TEST(LineageTrackerTest, ReRecordingReplacesTheManifest) {
  LineageTracker tracker;
  tracker.Record(MakeLineage(4));
  NodeLineage updated = MakeLineage(4);
  updated.producer_step = 8;
  updated.blocks.clear();
  tracker.Record(std::move(updated));
  const NodeLineage* found = tracker.Find(4);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->producer_step, 8);
  EXPECT_TRUE(found->blocks.empty());
  EXPECT_EQ(tracker.size(), 1u);
}

// ---- checkpoint payloads -----------------------------------------------

std::shared_ptr<const Block> Payload(uint64_t seed) {
  return std::make_shared<const Block>(RandomDenseBlock(4, 4, seed));
}

/// A one-block record of node `node_id` checkpointed with `payload`.
NodeLineage Checkpointed(int node_id, std::shared_ptr<const Block> payload) {
  NodeLineage lin;
  lin.node_id = node_id;
  lin.blocks.push_back({0, 0, BlockChecksum(*payload), std::move(payload)});
  return lin;
}

TEST(LineageTrackerTest, CheckpointPayloadRoundTrip) {
  LineageTracker tracker;
  // A freshly recorded node has no checkpoint until one is attached.
  NodeLineage& recorded = tracker.Record(MakeLineage(2));
  for (const LineageBlockRecord& rec : recorded.blocks) {
    EXPECT_EQ(rec.payload, nullptr);
  }
  const auto payload = Payload(1);
  recorded.blocks[0].payload = payload;
  const NodeLineage* found = tracker.Find(2);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->blocks[0].payload, payload);
  EXPECT_EQ(found->blocks[1].payload, nullptr);

  tracker.Record(Checkpointed(3, Payload(2)));
  found = tracker.Find(3);
  ASSERT_NE(found, nullptr);
  ASSERT_EQ(found->blocks.size(), 1u);
  ASSERT_NE(found->blocks[0].payload, nullptr);
  EXPECT_EQ(found->blocks[0].checksum,
            BlockChecksum(*found->blocks[0].payload));
}

TEST(LineageTrackerTest, ReRecordingReplacesThePayload) {
  LineageTracker tracker;
  const auto first = Payload(1);
  const auto second = Payload(2);
  tracker.Record(Checkpointed(2, first));
  // A later recording of the same node replaces its checkpoint ...
  tracker.Record(Checkpointed(2, second));
  const NodeLineage* found = tracker.Find(2);
  ASSERT_NE(found, nullptr);
  ASSERT_EQ(found->blocks.size(), 1u);
  EXPECT_EQ(found->blocks[0].payload, second);
  EXPECT_EQ(found->blocks[0].checksum, BlockChecksum(*second));
  EXPECT_EQ(tracker.size(), 1u);
  // ... and a recording without payloads drops it.
  tracker.Record(MakeLineage(2));
  for (const LineageBlockRecord& rec : tracker.Find(2)->blocks) {
    EXPECT_EQ(rec.payload, nullptr);
  }
}

}  // namespace
}  // namespace dmac
