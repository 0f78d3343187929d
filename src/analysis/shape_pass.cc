// Shape inference & conformance (pass 1).
//
// Operator level: recomputes every operator's output shape from the load /
// random leaves with its own walk (tolerating malformed arity, unknown
// names, and other corruption the SizeEstimator would crash on), flags any
// multiply / cell-wise operator whose operand shapes do not conform, and
// cross-checks the recomputed shapes against the planner's SizeEstimator.
//
// Plan level: recomputes every step's output shape from its input nodes and
// flags steps whose recorded node stats disagree.
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/passes.h"

namespace dmac {

namespace {

constexpr char kPass[] = "shape-inference";

class ShapeInferencePass final : public AnalysisPass {
 public:
  const char* name() const override { return kPass; }

  void Run(const AnalysisContext& ctx,
           std::vector<Diagnostic>* out) const override {
    if (ctx.ops != nullptr) CheckOperators(ctx, out);
    if (ctx.plan != nullptr) CheckPlan(*ctx.plan, out);
  }

 private:
  static void Report(std::vector<Diagnostic>* out, Severity sev, int op_id,
                     std::string message, std::string fixit = "") {
    out->push_back(
        {sev, kPass, op_id, std::move(message), std::move(fixit)});
  }

  void CheckOperators(const AnalysisContext& ctx,
                      std::vector<Diagnostic>* out) const {
    const OperatorList& ops = *ctx.ops;
    std::unordered_map<std::string, Shape> shapes;

    for (const Operator& op : ops.ops) {
      const int arity = ExpectedOperandCount(op);
      if (static_cast<int>(op.inputs.size()) != arity) {
        Report(out, Severity::kError, op.id,
               std::string(OpName(op.kind, op.cell)) + " operator has " +
                   std::to_string(op.inputs.size()) + " inputs, expected " +
                   std::to_string(arity),
               "re-run the decomposer; the operator list is corrupted");
        continue;  // operand accesses below would be meaningless
      }

      // Resolve input shapes; skip inference when any operand is unknown
      // (the dependency-graph pass reports undefined names).
      std::vector<Shape> in;
      bool known = true;
      for (const MatrixRef& ref : op.inputs) {
        auto it = shapes.find(ref.name);
        if (it == shapes.end()) {
          known = false;
          break;
        }
        in.push_back(ref.transposed ? it->second.Transposed() : it->second);
      }
      if (!known) continue;

      Shape result{0, 0};
      bool produces = !op.output.empty();
      switch (op.kind) {
        case OpKind::kLoad:
        case OpKind::kRandom:
          result = op.decl_shape;
          if (result.rows <= 0 || result.cols <= 0) {
            Report(out, Severity::kError, op.id,
                   op.ToString() + ": declared shape " + result.ToString() +
                       " is not positive",
                   "declare the input with its true dimensions");
            produces = false;
          }
          break;
        case OpKind::kMultiply:
          if (in[0].cols != in[1].rows) {
            Report(out, Severity::kError, op.id,
                   op.ToString() + ": operand shapes do not conform, " +
                       in[0].ToString() + " %*% " + in[1].ToString(),
                   "inner dimensions must match; check transposes");
            produces = false;
          } else {
            result = {in[0].rows, in[1].cols};
          }
          break;
        case OpKind::kCellwise:
          if (in.size() == 2 && in[0] != in[1]) {
            Report(out, Severity::kError, op.id,
                   op.ToString() + ": operand shapes differ, " +
                       in[0].ToString() + " vs " + in[1].ToString(),
                   "cell-wise operands must have identical shapes");
            produces = false;
          } else {
            result = in[0];
          }
          break;
        case OpKind::kRowSums:
          result = {in[0].rows, 1};
          break;
        case OpKind::kColSums:
          result = {1, in[0].cols};
          break;
        case OpKind::kReduce:
          if (op.reduce == ReduceKind::kValue &&
              (in[0].rows != 1 || in[0].cols != 1)) {
            Report(out, Severity::kError, op.id,
                   op.ToString() + ": .value requires a 1x1 matrix, got " +
                       in[0].ToString(),
                   "reduce with sum()/norm2(), or slice to a 1x1 matrix");
          }
          produces = false;
          break;
        case OpKind::kScalarAssign:
          produces = false;
          break;
      }
      if (!produces || op.output.empty()) continue;
      shapes[op.output] = result;

      // Cross-check against the planner's SizeEstimator (ctx.stats).
      auto st = ctx.stats.find(op.output);
      if (st != ctx.stats.end() && st->second.shape != result) {
        Report(out, Severity::kError, op.id,
               op.ToString() + ": SizeEstimator recorded shape " +
                   st->second.shape.ToString() +
                   " but shape inference derives " + result.ToString(),
               "planner size estimation diverged; fix EstimateSizes");
      }
    }
  }

  void CheckPlan(const Plan& plan, std::vector<Diagnostic>* out) const {
    for (const PlanStep& step : plan.steps) {
      // Resolve input node shapes; skip corrupt references (graph pass).
      std::vector<Shape> in;
      bool known = true;
      for (int id : step.inputs) {
        if (!ValidNode(plan, id)) {
          known = false;
          break;
        }
        in.push_back(plan.nodes[static_cast<size_t>(id)].stats.shape);
      }
      if (!known || !ValidNode(plan, step.output)) continue;
      const Shape got = plan.nodes[static_cast<size_t>(step.output)].stats.shape;

      bool has_expected = true;
      Shape expected{0, 0};
      switch (step.kind) {
        case StepKind::kLoad:
        case StepKind::kRandom:
          expected = step.decl_shape;
          break;
        case StepKind::kPartition:
        case StepKind::kBroadcast:
        case StepKind::kExtract:
          if (in.size() != 1) continue;
          expected = in[0];
          break;
        case StepKind::kTranspose:
          if (in.size() != 1) continue;
          expected = in[0].Transposed();
          break;
        case StepKind::kCompute:
          switch (step.op_kind) {
            case OpKind::kMultiply: {
              if (in.size() != 2) continue;
              // Transpose-fused operands are stored untransposed; the
              // kernel reads them through the step's flags, so conformance
              // is over the *effective* shapes.
              const Shape eff_a = step.trans_a ? in[0].Transposed() : in[0];
              const Shape eff_b = step.trans_b ? in[1].Transposed() : in[1];
              if (eff_a.cols != eff_b.rows) {
                Report(out, Severity::kError, step.id,
                       StepLabel(step) + ": operand shapes do not conform, " +
                           eff_a.ToString() + " %*% " + eff_b.ToString(),
                       "re-run the planner on a conforming operator list");
                continue;
              }
              expected = {eff_a.rows, eff_b.cols};
              break;
            }
            case OpKind::kCellwise:
              if (in.size() != (step.cell.binary() ? 2u : 1u)) continue;
              if (in.size() == 2 && in[0] != in[1]) {
                Report(out, Severity::kError, step.id,
                       StepLabel(step) + ": operand shapes differ, " +
                           in[0].ToString() + " vs " + in[1].ToString(),
                       "cell-wise operands must have identical shapes");
                continue;
              }
              expected = in[0];
              break;
            case OpKind::kRowSums:
              if (in.size() != 1) continue;
              expected = {in[0].rows, 1};
              break;
            case OpKind::kColSums:
              if (in.size() != 1) continue;
              expected = {1, in[0].cols};
              break;
            default:
              if (in.size() != 1) continue;
              expected = in[0];
              break;
          }
          break;
        case StepKind::kReduce:
        case StepKind::kScalarAssign:
          has_expected = false;
          break;
      }
      if (has_expected && expected != got) {
        Report(out, Severity::kError, step.id,
               StepLabel(step) + ": output node " +
                   NodeLabel(plan, step.output) + " records shape " +
                   got.ToString() + ", inputs imply " + expected.ToString(),
               "the plan's node stats are stale or corrupted");
      }
    }
  }
};

}  // namespace

AnalysisPassPtr MakeShapeInferencePass() {
  return std::make_unique<ShapeInferencePass>();
}

}  // namespace dmac
