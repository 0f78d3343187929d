#include "fault/lineage.h"

#include <algorithm>

namespace dmac {

NodeLineage& LineageTracker::Record(NodeLineage lineage) {
  std::sort(lineage.blocks.begin(), lineage.blocks.end(),
            [](const LineageBlockRecord& a, const LineageBlockRecord& b) {
              return a.worker != b.worker ? a.worker < b.worker
                                          : a.key < b.key;
            });
  NodeLineage& slot = records_[lineage.node_id];
  slot = std::move(lineage);
  return slot;
}

const NodeLineage* LineageTracker::Find(int node_id) const {
  auto it = records_.find(node_id);
  return it == records_.end() ? nullptr : &it->second;
}

}  // namespace dmac
