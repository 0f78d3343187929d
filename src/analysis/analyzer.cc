#include "analysis/analyzer.h"

#include "analysis/passes.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dmac {

// ---- shared helpers ------------------------------------------------------

bool ValidNode(const Plan& plan, int id) {
  return id >= 0 && static_cast<size_t>(id) < plan.nodes.size();
}

std::string StepLabel(const PlanStep& step) {
  return "step s" + std::to_string(step.id) + " (" +
         StepKindLabel(step, /*brief=*/true) + ")";
}

std::string NodeLabel(const Plan& plan, int id) {
  if (!ValidNode(plan, id)) {
    return "<invalid node " + std::to_string(id) + ">";
  }
  return plan.nodes[static_cast<size_t>(id)].ToString();
}

int ExpectedOperandCount(const Operator& op) {
  switch (op.kind) {
    case OpKind::kLoad:
    case OpKind::kRandom:
    case OpKind::kScalarAssign:
      return 0;
    case OpKind::kRowSums:
    case OpKind::kColSums:
    case OpKind::kReduce:
      return 1;
    case OpKind::kMultiply:
      return 2;
    case OpKind::kCellwise:
      return op.cell.binary() ? 2 : 1;
  }
  return 0;
}

// ---- analyzer ------------------------------------------------------------

Analyzer Analyzer::Default() {
  Analyzer a;
  a.AddPass(MakeDependencyGraphPass());
  a.AddPass(MakeShapeInferencePass());
  a.AddPass(MakeSchemeConsistencyPass());
  a.AddPass(MakeCommCostPass());
  a.AddPass(MakeAliasSafetyPass());
  a.AddPass(MakeLineageCompletenessPass());
  a.AddPass(MakeMemoryFootprintPass());
  return a;
}

AnalysisReport Analyzer::Run(const AnalysisContext& ctx) const {
  AnalysisReport report;
  for (const AnalysisPassPtr& pass : passes_) {
    TraceSpan span =
        TraceRecorder::Global().enabled()
            ? TraceSpan(kTracePlan, std::string("pass ") + pass->name())
            : TraceSpan();
    pass->Run(ctx, &report.diagnostics);
  }
  return report;
}

AnalysisReport AnalyzeProgram(const OperatorList* ops, const Plan* plan,
                              int num_workers, int min_workers, bool resume) {
  AnalysisContext ctx;
  ctx.ops = ops;
  ctx.plan = plan;
  ctx.num_workers = num_workers;
  ctx.min_workers = min_workers;
  ctx.resume = resume;
  if (ops != nullptr) {
    // Only feed the stats cross-check when the list is structurally sound —
    // EstimateSizes indexes operand arrays without arity guards.
    bool arity_ok = true;
    for (const Operator& op : ops->ops) {
      if (static_cast<int>(op.inputs.size()) != ExpectedOperandCount(op)) {
        arity_ok = false;
      }
    }
    if (arity_ok) {
      Result<StatsMap> stats = EstimateSizes(*ops);
      if (stats.ok()) ctx.stats = std::move(*stats);
    }
  }
  return Analyzer::Default().Run(ctx);
}

Status VerifyPlan(const OperatorList& ops, const Plan& plan, int num_workers,
                  int min_workers, bool resume) {
  TraceSpan span(kTracePlan, "verify-plan");
  Timer timer;
  Status st =
      AnalyzeProgram(&ops, &plan, num_workers, min_workers, resume).ToStatus();
  static Gauge* verify_seconds =
      MetricRegistry::Global().gauge(kMetricPlanVerifySeconds);
  verify_seconds->Set(timer.ElapsedSeconds());
  return st;
}

Status CheckOperators(const OperatorList& ops) {
  return AnalyzeProgram(&ops, nullptr, /*num_workers=*/1).ToStatus();
}

}  // namespace dmac
