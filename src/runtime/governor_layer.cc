#include "runtime/governor_layer.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "matrix/dense_block.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dmac {

std::unique_ptr<GovernorLayer> GovernorLayer::Create(
    const GovernorContext& gov, const Plan& plan, const NodeTable* nodes,
    int64_t block_size) {
  if (gov.budget == nullptr && gov.spill == nullptr) return nullptr;
  return std::unique_ptr<GovernorLayer>(
      new GovernorLayer(gov, plan, nodes, block_size));
}

GovernorLayer::~GovernorLayer() {
  if (budget_) budget_->Release(charged_);
}

/// Sets the account to the resident owned bytes of the live nodes.
void GovernorLayer::Charge() {
  int64_t resident = 0;
  for (const auto& dm : *nodes_) {
    if (dm != nullptr) resident += dm->OwnedBytes() - dm->SpilledBytes();
  }
  if (resident > charged_) {
    budget_->Charge(resident - charged_);
  } else {
    budget_->Release(charged_ - resident);
  }
  charged_ = resident;
}

Status GovernorLayer::BeforeStep(const PlanStep& step) {
  if (!budget_) return Status::Ok();
  Charge();
  DMAC_RETURN_NOT_OK(CheckOutputBlock(step));
  return RebalanceBudget(step);
}

/// A step whose single output block could never fit, even with everything
/// else spilled, fails before it runs. The bound is the block's dense size,
/// so it depends on the plan and the block size alone. A load aliases the
/// caller's binding and owns nothing.
Status GovernorLayer::CheckOutputBlock(const PlanStep& step) const {
  if (step.output < 0 || step.kind == StepKind::kLoad) return Status::Ok();
  const Shape shape =
      plan_.nodes[static_cast<size_t>(step.output)].stats.shape;
  const int64_t rows = std::min(shape.rows, block_size_);
  const int64_t cols = std::min(shape.cols, block_size_);
  const int64_t bytes = DenseBlock::MemoryBytesFor(rows, cols);
  if (!budget_->ExceedsWholeBudget(bytes)) return Status::Ok();
  return Status::ResourceExhausted(
      "step " + std::to_string(step.id) + ": a single " +
      std::to_string(rows) + "x" + std::to_string(cols) + " output block (" +
      std::to_string(bytes) + " bytes) exceeds the whole memory budget (" +
      std::to_string(budget_->limit_bytes()) + " bytes)");
}

/// Spills cold nodes (least recently used first: by the plan position of
/// the last step up to this one that reads or writes the node, ids
/// ascending as the tiebreak) until the budget has room for the step's
/// pinned working set — its inputs, all of which must be resident at once.
/// Fails with kResourceExhausted when the pinned set alone exceeds the
/// budget or no spill candidate remains.
Status GovernorLayer::RebalanceBudget(const PlanStep& step) {
  const NodeTable& nodes = *nodes_;
  int64_t pinned = 0;
  int64_t spilled_inputs = 0;
  for (int input : step.inputs) {
    const auto& dm = nodes[static_cast<size_t>(input)];
    if (dm == nullptr) continue;
    pinned += dm->OwnedBytes();
    spilled_inputs += dm->SpilledBytes();
  }
  if (budget_->ExceedsWholeBudget(pinned)) {
    return Status::ResourceExhausted(
        "step " + std::to_string(step.id) + ": working set of " +
        std::to_string(pinned) + " bytes exceeds the memory budget of " +
        std::to_string(budget_->limit_bytes()) +
        " bytes; spilling cannot help");
  }
  // Free the current overage plus what restoring spilled inputs will
  // bring back, by spilling nodes no later step has touched more recently.
  const int64_t need = budget_->OverBudgetBytes() + spilled_inputs;
  if (need <= 0) return Status::Ok();

  if (spill_) {
    // Steps run in plan order (ids ascend with position), so a node's last
    // use is the last step up to this one that reads or writes it.
    std::vector<int> last_use(nodes.size(), -1);  // -1: untouched
    for (const PlanStep& s : plan_.steps) {
      if (s.id > step.id) break;
      for (int input : s.inputs) last_use[static_cast<size_t>(input)] = s.id;
      if (s.output >= 0) last_use[static_cast<size_t>(s.output)] = s.id;
    }
    std::vector<std::pair<int, int>> candidates;  // (last_use, node id)
    for (size_t id = 0; id < nodes.size(); ++id) {
      if (nodes[id] == nullptr) continue;
      const int node = static_cast<int>(id);
      if (node == step.output ||
          std::find(step.inputs.begin(), step.inputs.end(), node) !=
              step.inputs.end()) {
        continue;  // pinned
      }
      candidates.emplace_back(last_use[id], node);
    }
    std::sort(candidates.begin(), candidates.end());

    int64_t freed = 0;
    for (const auto& [last, node] : candidates) {
      if (freed >= need) break;
      TraceSpan span(kTraceSpill, "spill node " + std::to_string(node), -1,
                     TraceArg("node", int64_t{node}));
      DMAC_ASSIGN_OR_RETURN(
          const int64_t f,
          nodes[static_cast<size_t>(node)]->SpillColdBlocks(spill_,
                                                            need - freed));
      freed += f;
    }
    Charge();
  }
  if (budget_->OverBudgetBytes() > 0) {
    return Status::ResourceExhausted(
        "memory budget of " + std::to_string(budget_->limit_bytes()) +
        " bytes still exceeded by " +
        std::to_string(budget_->OverBudgetBytes()) +
        " bytes after spilling every cold block");
  }
  return Status::Ok();
}

Status GovernorLayer::Restore(const std::vector<int>& node_ids) {
  for (int id : node_ids) {
    DMAC_RETURN_NOT_OK(
        RestoreSpilled(id, (*nodes_)[static_cast<size_t>(id)].get()));
  }
  return Status::Ok();
}

void GovernorLayer::ExportStats() const {
  if (!budget_) return;
  MetricRegistry::Global()
      .gauge(kMetricGovernorBudgetPeakBytes)
      ->Set(static_cast<double>(budget_->peak_bytes()));
}

}  // namespace dmac
