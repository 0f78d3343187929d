#include "plan/footprint.h"

#include <algorithm>
#include <vector>

namespace dmac {

int64_t EstimatePlanFootprintBytes(const Plan& plan, int num_workers) {
  if (num_workers < 1) num_workers = 1;
  const size_t num_nodes = plan.nodes.size();
  const size_t num_steps = plan.steps.size();

  const std::vector<int> last_use = LastConsumers(plan);

  auto node_bytes = [&](int id) -> int64_t {
    const PlanNode& node = plan.nodes[static_cast<size_t>(id)];
    const int64_t replicas =
        node.scheme() == Scheme::kBroadcast ? num_workers : 1;
    return static_cast<int64_t>(node.stats.EstimatedBytes()) * replicas;
  };

  int64_t live = 0;
  int64_t peak = 0;
  std::vector<bool> resident(num_nodes, false);
  for (size_t s = 0; s < num_steps; ++s) {
    const PlanStep& step = plan.steps[s];
    // An in-place step's output takes over its input's storage: the input
    // leaves before the output enters.
    const int in = InPlaceInput(plan, step, last_use);
    if (in >= 0 && resident[static_cast<size_t>(in)]) {
      resident[static_cast<size_t>(in)] = false;
      live -= node_bytes(in);
    }
    if (step.output >= 0 && static_cast<size_t>(step.output) < num_nodes &&
        !resident[static_cast<size_t>(step.output)]) {
      resident[static_cast<size_t>(step.output)] = true;
      live += node_bytes(step.output);
    }
    peak = std::max(peak, live);
    for (size_t id = 0; id < num_nodes; ++id) {
      if (resident[id] && last_use[id] <= static_cast<int>(s)) {
        resident[id] = false;
        live -= node_bytes(static_cast<int>(id));
      }
    }
  }
  return std::max(peak, live);
}

}  // namespace dmac
