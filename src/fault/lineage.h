// Per-node lineage records for lost-partition recovery
// (docs/fault_tolerance.md).
//
// After each successful producing step the executor records, per plan node,
// which step produced it, which nodes it consumed, and the exact (worker,
// block key, checksum) layout of its partition store. The record is the
// ground truth the recovery path compares the cluster against: a store
// entry that is missing or hashes differently from its record is damage.
// Damage is repaired from the record itself when the node was checkpointed
// (each block record then carries an immutable deep copy of its payload),
// and otherwise by re-running the producer-step chain recorded here.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "matrix/block.h"

namespace dmac {

/// One block of a node's partition store at record time.
struct LineageBlockRecord {
  int worker = 0;
  int64_t key = 0;
  uint64_t checksum = 0;
  /// Checkpointed deep copy of the block, or null while the node has not
  /// been checkpointed. Replicas of a Broadcast matrix share one copy.
  std::shared_ptr<const Block> payload;
};

/// A node's recorded provenance, healthy store layout and checkpoint.
struct NodeLineage {
  int node_id = -1;
  /// Plan step whose re-execution rebuilds this node.
  int producer_step = -1;
  /// Node ids the producer step consumed (recovery recurses through these).
  std::vector<int> inputs;
  /// Healthy layout, sorted by (worker, key) for deterministic comparison.
  std::vector<LineageBlockRecord> blocks;
};

/// Driver-side registry of NodeLineage records, keyed by node id. Recording
/// a node again replaces the previous record, checkpoint payloads included.
class LineageTracker {
 public:
  /// Records (or replaces) a node's record, sorting `blocks`. Returns the
  /// stored record, to which a checkpoint attaches its payloads.
  NodeLineage& Record(NodeLineage lineage);

  /// The record for `node_id`, or nullptr if never recorded.
  const NodeLineage* Find(int node_id) const;

  size_t size() const { return records_.size(); }

 private:
  std::unordered_map<int, NodeLineage> records_;
};

}  // namespace dmac
