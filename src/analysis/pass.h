// The AnalysisPass interface and the context passes run against.
//
// A pass is a stateless checker over the decomposed operator list and/or the
// finalized physical plan. Passes never mutate anything; they append
// Diagnostics. Either input may be absent: `dmac_lint` runs the
// operator-level checks before a plan exists, and a corrupted-plan check may
// run with a plan alone.
#pragma once

#include <memory>
#include <vector>

#include "analysis/diagnostic.h"
#include "lang/op.h"
#include "plan/plan.h"
#include "plan/size_estimator.h"

namespace dmac {

/// Everything a pass may inspect. Non-owning; the caller keeps the operator
/// list and plan alive for the duration of the run.
struct AnalysisContext {
  /// Decomposed program, or nullptr for plan-only analysis.
  const OperatorList* ops = nullptr;
  /// Finalized plan, or nullptr for operator-level linting.
  const Plan* plan = nullptr;
  /// Worst-case stats per SSA matrix, recomputed from `ops` by the analyzer
  /// (empty when `ops` is null or size estimation itself failed).
  StatsMap stats;
  /// N in the cost model; must match the planner's setting for the
  /// communication cross-check to be meaningful.
  int num_workers = 4;
  /// Degraded-mode quorum the run will enforce (executor min_workers). The
  /// lineage pass flags an infeasible quorum — one the cluster cannot
  /// satisfy even before any death.
  int min_workers = 1;
  /// Memory budget the plan must run under, in bytes; 0 = unlimited. The
  /// memory-footprint pass errors when a single step's pinned working set
  /// cannot fit (docs/governance.md).
  int64_t memory_budget_bytes = 0;
  /// The run will restore / maintain durable checkpoints (--resume). The
  /// lineage pass warns when the plan carries no checkpoint hints — the
  /// durable cadence then snapshots every producing step, which is correct
  /// but can dominate the run's I/O (docs/fault_tolerance.md).
  bool resume = false;
};

/// One static check. Implementations live in the *_pass.cc files and are
/// instantiated through the factories in passes.h.
class AnalysisPass {
 public:
  virtual ~AnalysisPass() = default;

  /// Stable pass name used in diagnostics, e.g. "scheme-consistency".
  virtual const char* name() const = 0;

  /// Appends findings to `out`. Must tolerate any malformed input without
  /// crashing — the whole point is to diagnose corrupted IR.
  virtual void Run(const AnalysisContext& ctx,
                   std::vector<Diagnostic>* out) const = 0;
};

using AnalysisPassPtr = std::unique_ptr<AnalysisPass>;

// ---- helpers shared by the pass implementations (analyzer.cc) ------------

/// True when `id` indexes a node of `plan`.
bool ValidNode(const Plan& plan, int id);

/// "step s3 (compute[multiply:RMM1])" — stable label for diagnostics.
std::string StepLabel(const PlanStep& step);

/// "W#1(r)" — node rendering guarded against out-of-range ids.
std::string NodeLabel(const Plan& plan, int id);

/// Number of matrix operands `op` must carry.
int ExpectedOperandCount(const Operator& op);

}  // namespace dmac
