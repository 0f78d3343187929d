#include "plan/reuse.h"

#include <vector>

#include "lang/op.h"
#include "matrix/block.h"

namespace dmac {

namespace {

bool IsMultiply(const PlanStep& step) {
  return step.kind == StepKind::kCompute && step.op_kind == OpKind::kMultiply;
}

// A node's blocks are stored CSC when its estimated density is below
// kDensityThreshold. The engine consults the cache only when both operand
// blocks actually arrive sparse, so a mis-estimate here costs nothing at
// runtime — the hint is just ignored.
bool EstimatedSparse(const Plan& plan, int node) {
  if (node < 0 || static_cast<size_t>(node) >= plan.nodes.size()) return false;
  return plan.nodes[static_cast<size_t>(node)].stats.sparsity <
         kDensityThreshold;
}

}  // namespace

ReuseMarkResult MarkOperandReuse(Plan* plan) {
  ReuseMarkResult result;
  // Distinct consuming steps per node. Within-step repetition (Aᵀ·A reads
  // its node twice) is not reuse for the cache's purposes: one step pays
  // one conversion either way.
  std::vector<int> uses(plan->nodes.size(), 0);
  for (const PlanStep& step : plan->steps) {
    int prev = -1;  // inputs are short; dedupe the common repeated pair
    for (int input : step.inputs) {
      if (input < 0 || static_cast<size_t>(input) >= uses.size()) continue;
      if (input == prev) continue;
      ++uses[static_cast<size_t>(input)];
      prev = input;
    }
  }
  for (PlanStep& step : plan->steps) {
    if (!IsMultiply(step) || !step.trans_a || step.trans_b) continue;
    if (step.inputs.size() < 2) continue;
    // The cache serves only the sparse×sparse Gustavson path; marking a
    // multiply whose operands will materialize dense would make the
    // footprint pass charge for a conversion that never happens.
    if (!EstimatedSparse(*plan, step.inputs[0]) ||
        !EstimatedSparse(*plan, step.inputs[1])) {
      continue;
    }
    const int b = step.inputs[1];
    if (uses[static_cast<size_t>(b)] < 2) continue;
    step.cache_csr_b = true;
    ++result.marked_steps;
  }
  return result;
}

}  // namespace dmac
