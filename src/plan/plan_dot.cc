#include "plan/plan_dot.h"

#include <unordered_map>
#include <vector>

namespace dmac {

namespace {

std::string EscapeLabel(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

std::string PlanToDot(const Plan& plan) {
  std::string dot = "digraph plan {\n  rankdir=TB;\n  node [fontsize=10];\n";

  // Group node declarations by stage, like the horizontal stage bands of
  // Fig. 3.
  std::unordered_map<int, std::vector<int>> stage_nodes;
  for (const PlanNode& node : plan.nodes) {
    stage_nodes[node.stage].push_back(node.id);
  }
  for (auto& [stage, ids] : stage_nodes) {
    dot += "  subgraph cluster_stage" + std::to_string(stage) + " {\n";
    dot += "    label=\"Stage " + std::to_string(stage) + "\";\n";
    dot += "    style=dashed; color=gray;\n";
    for (int id : ids) {
      const PlanNode& node = plan.nodes[static_cast<size_t>(id)];
      dot += "    n" + std::to_string(id) + " [shape=ellipse,label=\"" +
             EscapeLabel(node.ToString()) + "\"];\n";
    }
    dot += "  }\n";
  }

  // Steps become edges (binary operators get a small junction point so both
  // inputs visibly join). Communication steps are drawn bold red; local
  // dependency operators dashed blue, like the paper's dashed arrows.
  for (const PlanStep& step : plan.steps) {
    if (step.output < 0) continue;  // reduces/scalar assigns: skip edges
    std::string attrs;
    std::string label = StepKindName(step.kind);
    if (step.kind == StepKind::kCompute) {
      label = OpName(step.op_kind, step.cell);
      if (step.mult_algo != MultAlgo::kNone) {
        label += std::string(":") + MultAlgoName(step.mult_algo);
      }
    }
    if (step.Communicates()) {
      attrs = ",color=red,penwidth=2";
    } else if (step.kind == StepKind::kTranspose ||
               step.kind == StepKind::kExtract) {
      attrs = ",color=blue,style=dashed";
    }

    const std::string target = "n" + std::to_string(step.output);
    if (step.inputs.size() <= 1) {
      const std::string src =
          step.inputs.empty()
              ? ("src_" + std::to_string(step.id))
              : "n" + std::to_string(step.inputs[0]);
      if (step.inputs.empty()) {
        dot += "  " + src + " [shape=box,label=\"" +
               EscapeLabel(step.source) + "\"];\n";
      }
      dot += "  " + src + " -> " + target + " [label=\"" +
             EscapeLabel(label) + "\"" + attrs + "];\n";
    } else {
      const std::string junction = "op" + std::to_string(step.id);
      dot += "  " + junction + " [shape=point,width=0.06];\n";
      for (int in : step.inputs) {
        dot += "  n" + std::to_string(in) + " -> " + junction +
               " [dir=none" + attrs + "];\n";
      }
      dot += "  " + junction + " -> " + target + " [label=\"" +
             EscapeLabel(label) + "\"" + attrs + "];\n";
    }
  }
  dot += "}\n";
  return dot;
}

}  // namespace dmac
