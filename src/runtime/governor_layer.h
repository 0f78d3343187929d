// Memory governance around plan-step execution (docs/governance.md): the
// per-query budget account, LRU spill of cold nodes and the restores of
// spilled ones. A run with neither a budget nor a spill store never
// constructs a GovernorLayer; cancellation stays a token poll in the
// executor.
//
// The layer is the only code that charges the MemoryBudget, from the
// driver thread at step boundaries: the resident owned bytes of the live
// stores, the quantity EstimatePlanFootprintBytes (plan/footprint.h)
// estimates. Pool accumulators and kernel scratch are not on the account,
// so the peak and every spill decision are fixed by the plan, not by how
// the engine's threads interleave.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "governor/context.h"
#include "plan/plan.h"
#include "runtime/dist_matrix.h"

namespace dmac {

/// Budget enforcement and spill for one Execute() call.
class GovernorLayer {
 public:
  /// Null unless `gov` carries a budget or a spill store. The layer reads
  /// and spills the executor's node data through `nodes`, which must
  /// outlive it; `block_size` is the run's block side.
  static std::unique_ptr<GovernorLayer> Create(const GovernorContext& gov,
                                               const Plan& plan,
                                               const NodeTable* nodes,
                                               int64_t block_size);

  /// Returns the layer's charge to the budget.
  ~GovernorLayer();

  GovernorLayer(const GovernorLayer&) = delete;
  GovernorLayer& operator=(const GovernorLayer&) = delete;

  /// Before `step` runs: drops the charge of nodes freed since the last
  /// boundary, fails with kResourceExhausted when one output block or the
  /// step's inputs alone exceed the whole budget, and otherwise spills
  /// cold nodes until the step fits.
  Status BeforeStep(const PlanStep& step);
  /// After a step ran, before its dead inputs are freed: charges the live
  /// stores' resident bytes.
  void AfterStep() {
    if (budget_) Charge();
  }
  /// Restores every spilled block of `node_ids`: a step's inputs (useful
  /// runs, retries and recovery recomputes alike) or a gathered output.
  Status Restore(const std::vector<int>& node_ids);
  /// Sets the governor.budget.peak.bytes gauge.
  void ExportStats() const;

 private:
  GovernorLayer(const GovernorContext& gov, const Plan& plan,
                const NodeTable* nodes, int64_t block_size)
      : budget_(gov.budget),
        spill_(gov.spill),
        plan_(plan),
        nodes_(nodes),
        block_size_(block_size) {}

  void Charge();
  [[nodiscard]] Status CheckOutputBlock(const PlanStep& step) const;
  [[nodiscard]] Status RebalanceBudget(const PlanStep& step);

  const std::shared_ptr<MemoryBudget> budget_;
  const std::shared_ptr<SpillStore> spill_;
  const Plan& plan_;
  const NodeTable* nodes_;
  const int64_t block_size_;
  int64_t charged_ = 0;  // bytes this layer holds on budget_
};

}  // namespace dmac
