// Pre-execution memory-footprint estimation (docs/governance.md).
//
// Walks a finalized plan in step order and tracks the estimated live set:
// a node's bytes (worst-case, from the size estimator that annotated the
// plan) enter when its producer step runs and leave after its last consumer
// — Broadcast nodes are charged once per worker, matching what the stores
// charge a MemoryBudget at run time. An element-wise step whose first
// input dies there writes into that input (in-place execution, §5.2), so
// the input leaves before the output enters. The peak of that walk is the
// number a query needs admitted against, and the number the
// memory-footprint analysis pass checks against a configured budget.
#pragma once

#include <cstdint>

#include "plan/plan.h"

namespace dmac {

/// Estimated peak bytes simultaneously resident across all worker stores
/// while `plan` executes on `num_workers` workers. Worst-case (sparsity
/// rules of §5.1), so a run may use less — never meaningfully more.
int64_t EstimatePlanFootprintBytes(const Plan& plan, int num_workers);

}  // namespace dmac
