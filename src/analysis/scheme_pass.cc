// Scheme consistency (pass 2).
//
// Verifies the invariant Algorithm 1 is supposed to guarantee: every input
// of every step is materialized under exactly the partition scheme the
// step's strategy requires, either because the producer emitted that scheme
// or because an explicit partition / broadcast / transpose / extract step
// reconciles the two. Concretely, per step kind:
//
//   compute multiply   RMM1 {b,c}→c, RMM2 {r,b}→r, CPMM {c,r}→r or c
//   compute cell-wise  both operands and the output share one scheme
//   compute unary      output scheme equals the input scheme
//   row/col sums       aligned input → aligned output (local); broadcast →
//                      broadcast; crossed input requires output_comm
//   partition          output is Row or Column
//   broadcast          output is Broadcast; a Broadcast source is redundant
//   extract            input is Broadcast, output is Row or Column
//   transpose          output scheme is the input's opposite (b stays b)
//
// Every node of a finalized plan must also carry exactly one scheme.
#include <string>
#include <vector>

#include "analysis/passes.h"

namespace dmac {

namespace {

constexpr char kPass[] = "scheme-consistency";

class SchemeConsistencyPass final : public AnalysisPass {
 public:
  const char* name() const override { return kPass; }

  void Run(const AnalysisContext& ctx,
           std::vector<Diagnostic>* out) const override {
    if (ctx.plan == nullptr) return;
    const Plan& plan = *ctx.plan;

    for (const PlanNode& node : plan.nodes) {
      if (!SchemeSetIsSingle(node.schemes)) {
        out->push_back({Severity::kError, kPass, -1,
                        "node " + node.ToString() + " (id " +
                            std::to_string(node.id) +
                            ") does not carry exactly one scheme",
                        "Finalize() must collapse flexible schemes"});
      }
    }

    for (const PlanStep& step : plan.steps) {
      CheckStep(plan, step, out);
    }
  }

 private:
  static void Require(const Plan& plan, const PlanStep& step, int input_pos,
                      Scheme required, std::vector<Diagnostic>* out) {
    const int id = step.inputs[static_cast<size_t>(input_pos)];
    if (!ValidNode(plan, id)) return;  // graph pass reports bad ids
    const PlanNode& node = plan.nodes[static_cast<size_t>(id)];
    if (!SchemeSetIsSingle(node.schemes)) return;  // reported above
    if (node.scheme() == required) return;
    out->push_back(
        {Severity::kError, kPass, step.id,
         StepLabel(step) + " requires " + std::string(1, SchemeChar(required)) +
             " on input " + std::to_string(input_pos) + ", but node " +
             node.ToString() + " (id " + std::to_string(id) + ") is " +
             SchemeSetToString(node.schemes),
         "insert a partition/broadcast step or re-run the planner"});
  }

  static void RequireOut(const Plan& plan, const PlanStep& step,
                         SchemeSet allowed, std::vector<Diagnostic>* out) {
    if (!ValidNode(plan, step.output)) return;
    const PlanNode& node = plan.nodes[static_cast<size_t>(step.output)];
    if (!SchemeSetIsSingle(node.schemes)) return;
    if (SchemeSetContains(allowed, node.scheme())) return;
    out->push_back({Severity::kError, kPass, step.id,
                    StepLabel(step) + " must produce a node with scheme " +
                        SchemeSetToString(allowed) + ", but node " +
                        node.ToString() + " (id " +
                        std::to_string(step.output) + ") is " +
                        SchemeSetToString(node.schemes),
                    "the strategy's output scheme was altered after planning"});
  }

  /// Scheme of input `pos`, or Broadcast if unavailable (other passes report
  /// the structural problem).
  static Scheme InputScheme(const Plan& plan, const PlanStep& step,
                            size_t pos, bool* ok) {
    if (pos >= step.inputs.size() ||
        !ValidNode(plan, step.inputs[pos])) {
      *ok = false;
      return Scheme::kBroadcast;
    }
    const PlanNode& node =
        plan.nodes[static_cast<size_t>(step.inputs[pos])];
    if (!SchemeSetIsSingle(node.schemes)) {
      *ok = false;
      return Scheme::kBroadcast;
    }
    *ok = true;
    return node.scheme();
  }

  void CheckStep(const Plan& plan, const PlanStep& step,
                 std::vector<Diagnostic>* out) const {
    switch (step.kind) {
      case StepKind::kLoad:
      case StepKind::kRandom:
      case StepKind::kScalarAssign:
      case StepKind::kReduce:
        return;  // any single scheme is acceptable

      case StepKind::kPartition:
        RequireOut(plan, step,
                   SchemeBit(Scheme::kRow) | SchemeBit(Scheme::kCol), out);
        return;

      case StepKind::kBroadcast: {
        RequireOut(plan, step, SchemeBit(Scheme::kBroadcast), out);
        bool ok = false;
        const Scheme in = InputScheme(plan, step, 0, &ok);
        if (ok && in == Scheme::kBroadcast) {
          out->push_back({Severity::kWarning, kPass, step.id,
                          StepLabel(step) +
                              " re-broadcasts an already-Broadcast node",
                          "reference the existing replica instead"});
        }
        return;
      }

      case StepKind::kExtract: {
        if (!step.inputs.empty()) {
          Require(plan, step, 0, Scheme::kBroadcast, out);
        }
        RequireOut(plan, step,
                   SchemeBit(Scheme::kRow) | SchemeBit(Scheme::kCol), out);
        return;
      }

      case StepKind::kTranspose: {
        bool ok = false;
        const Scheme in = InputScheme(plan, step, 0, &ok);
        if (!ok) return;
        RequireOut(plan, step, SchemeBit(OppositeScheme(in)), out);
        return;
      }

      case StepKind::kCompute:
        break;
    }

    // Compute steps: the chosen strategy dictates the operand schemes.
    switch (step.op_kind) {
      case OpKind::kMultiply: {
        if (step.inputs.size() != 2) return;  // shape pass / graph pass
        // A transpose-fused operand (trans_a/trans_b) is stored as the
        // *untransposed* source matrix, so the stored scheme satisfying the
        // strategy is the opposite of the effective requirement (Row↔Col;
        // Broadcast is its own opposite). Ownership ranges still line up:
        // the stored matrix partitions the transposed axis into the same
        // block count the strategy expects of the effective operand.
        const auto eff_require = [&](int pos, Scheme required) {
          const bool flagged = pos == 0 ? step.trans_a : step.trans_b;
          Require(plan, step, pos,
                  flagged ? OppositeScheme(required) : required, out);
        };
        switch (step.mult_algo) {
          case MultAlgo::kRMM1:
            eff_require(0, Scheme::kBroadcast);
            eff_require(1, Scheme::kCol);
            RequireOut(plan, step, SchemeBit(Scheme::kCol), out);
            break;
          case MultAlgo::kRMM2:
            eff_require(0, Scheme::kRow);
            eff_require(1, Scheme::kBroadcast);
            RequireOut(plan, step, SchemeBit(Scheme::kRow), out);
            break;
          case MultAlgo::kCPMM:
            eff_require(0, Scheme::kCol);
            eff_require(1, Scheme::kRow);
            RequireOut(plan, step,
                       SchemeBit(Scheme::kRow) | SchemeBit(Scheme::kCol),
                       out);
            if (!step.output_comm) {
              out->push_back({Severity::kError, kPass, step.id,
                              StepLabel(step) +
                                  ": CPMM must mark output_comm (its "
                                  "cross-product aggregation shuffles)",
                              "set output_comm on the step"});
            }
            break;
          case MultAlgo::kNone:
            out->push_back({Severity::kError, kPass, step.id,
                            StepLabel(step) +
                                ": multiply step carries no algorithm",
                            "assign RMM1, RMM2, or CPMM"});
            break;
        }
        return;
      }

      case OpKind::kCellwise: {
        if (step.cell.binary() && step.inputs.size() != 2) return;
        bool ok0 = false, ok1 = false;
        const Scheme a = InputScheme(plan, step, 0, &ok0);
        const Scheme b =
            step.cell.binary() ? InputScheme(plan, step, 1, &ok1) : a;
        if (ok0 && ok1 && a != b) {
          out->push_back(
              {Severity::kError, kPass, step.id,
               StepLabel(step) + " requires aligned operand schemes, got " +
                   NodeLabel(plan, step.inputs[0]) + " and " +
                   NodeLabel(plan, step.inputs[1]),
               "repartition one operand or re-run the planner"});
        } else if (ok0) {
          RequireOut(plan, step, SchemeBit(a), out);
        }
        return;
      }

      case OpKind::kRowSums:
      case OpKind::kColSums: {
        bool ok = false;
        const Scheme in = InputScheme(plan, step, 0, &ok);
        if (!ok) return;
        const bool rows = step.op_kind == OpKind::kRowSums;
        const Scheme aligned = rows ? Scheme::kRow : Scheme::kCol;
        if (in == aligned) {
          RequireOut(plan, step, SchemeBit(aligned), out);
        } else if (in == Scheme::kBroadcast) {
          RequireOut(plan, step, SchemeBit(Scheme::kBroadcast), out);
        } else {
          // Crossed aggregation shuffles per-worker partials.
          RequireOut(plan, step,
                     SchemeBit(Scheme::kRow) | SchemeBit(Scheme::kCol), out);
          if (!step.output_comm) {
            out->push_back({Severity::kError, kPass, step.id,
                            StepLabel(step) +
                                ": aggregation across the partitioned axis "
                                "must mark output_comm",
                            "set output_comm on the step"});
          }
        }
        return;
      }

      default:
        out->push_back({Severity::kError, kPass, step.id,
                        StepLabel(step) +
                            " is a compute step with non-compute op kind",
                        "the plan step kinds are corrupted"});
        return;
    }
  }
};

}  // namespace

AnalysisPassPtr MakeSchemeConsistencyPass() {
  return std::make_unique<SchemeConsistencyPass>();
}

}  // namespace dmac
