#include "plan/plan.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "common/logging.h"

namespace dmac {

const char* StepKindName(StepKind k) {
  switch (k) {
    case StepKind::kLoad:
      return "load";
    case StepKind::kRandom:
      return "random";
    case StepKind::kCompute:
      return "compute";
    case StepKind::kPartition:
      return "partition";
    case StepKind::kBroadcast:
      return "broadcast";
    case StepKind::kTranspose:
      return "transpose";
    case StepKind::kExtract:
      return "extract";
    case StepKind::kReduce:
      return "reduce";
    case StepKind::kScalarAssign:
      return "scalar-assign";
  }
  return "?";
}

namespace {

void CollectScalarRefs(const ScalarExprPtr& e,
                       std::unordered_set<std::string>* refs) {
  if (e == nullptr) return;
  if (e->kind == ScalarExpr::Kind::kVarRef) refs->insert(e->name);
  CollectScalarRefs(e->lhs, refs);
  CollectScalarRefs(e->rhs, refs);
}

}  // namespace

Status Plan::Finalize() {
  const size_t n = steps.size();

  // Producer maps.
  std::unordered_map<int, size_t> node_producer;       // node id -> step idx
  std::unordered_map<std::string, size_t> scalar_producer;
  for (size_t i = 0; i < n; ++i) {
    if (steps[i].output >= 0) node_producer[steps[i].output] = i;
    if (!steps[i].scalar_out.empty()) {
      scalar_producer[steps[i].scalar_out] = i;
    }
  }

  // Dependency edges.
  std::vector<std::vector<size_t>> consumers(n);
  std::vector<int> pending(n, 0);
  for (size_t i = 0; i < n; ++i) {
    std::unordered_set<size_t> deps;
    for (int node : steps[i].inputs) {
      auto it = node_producer.find(node);
      if (it == node_producer.end()) {
        return Status::Internal("plan node " + std::to_string(node) +
                                " has no producer step");
      }
      if (it->second != i) deps.insert(it->second);
    }
    std::unordered_set<std::string> scalar_refs;
    CollectScalarRefs(steps[i].scalar, &scalar_refs);
    for (const std::string& s : scalar_refs) {
      auto it = scalar_producer.find(s);
      if (it == scalar_producer.end()) {
        return Status::Internal("scalar " + s + " has no producer step");
      }
      if (it->second != i) deps.insert(it->second);
    }
    for (size_t d : deps) {
      consumers[d].push_back(i);
      ++pending[i];
    }
  }

  // Stable Kahn topological order.
  std::vector<size_t> order;
  order.reserve(n);
  std::vector<bool> emitted(n, false);
  for (size_t produced = 0; produced < n; ++produced) {
    size_t pick = n;
    for (size_t i = 0; i < n; ++i) {
      if (!emitted[i] && pending[i] == 0) {
        pick = i;
        break;
      }
    }
    if (pick == n) return Status::Internal("cycle in plan step graph");
    emitted[pick] = true;
    for (size_t c : consumers[pick]) --pending[c];
    order.push_back(pick);
  }

  // Renumber steps in topological order; remap producer references.
  std::vector<PlanStep> ordered;
  ordered.reserve(n);
  for (size_t idx : order) ordered.push_back(std::move(steps[idx]));
  steps = std::move(ordered);
  for (size_t i = 0; i < n; ++i) steps[i].id = static_cast<int>(i);

  // Stage assignment: a step starts a new stage iff it communicates; all
  // non-communicating successors join their producers' stage (§5.2).
  std::unordered_map<int, int> node_stage;      // node id -> stage
  std::unordered_map<std::string, int> scalar_stage;
  num_stages = 0;
  total_comm_bytes = 0;
  for (PlanStep& step : steps) {
    int base = 0;
    for (int node : step.inputs) {
      auto it = node_stage.find(node);
      DMAC_CHECK(it != node_stage.end());
      base = std::max(base, it->second);
    }
    std::unordered_set<std::string> scalar_refs;
    CollectScalarRefs(step.scalar, &scalar_refs);
    for (const std::string& s : scalar_refs) {
      auto it = scalar_stage.find(s);
      DMAC_CHECK(it != scalar_stage.end());
      base = std::max(base, it->second);
    }
    step.stage = std::max(1, base + (step.Communicates() ? 1 : 0));
    if (step.output >= 0) {
      node_stage[step.output] = step.stage;
      nodes[static_cast<size_t>(step.output)].stage = step.stage;
      nodes[static_cast<size_t>(step.output)].producer_step = step.id;
    }
    if (!step.scalar_out.empty()) scalar_stage[step.scalar_out] = step.stage;
    num_stages = std::max(num_stages, step.stage);
    total_comm_bytes += step.comm_bytes;
  }

  // Collapse any still-flexible node scheme (unconsumed CPMM outputs default
  // to Row).
  for (PlanNode& node : nodes) {
    if (!SchemeSetIsSingle(node.schemes) && node.schemes != kNoSchemes) {
      node.schemes = SchemeBit(SchemeSetFirst(node.schemes));
    }
  }
  return Status::Ok();
}

std::string Plan::ToString() const {
  std::string out;
  int current_stage = -1;
  for (const PlanStep& step : steps) {
    if (step.stage != current_stage) {
      current_stage = step.stage;
      out += "=== Stage " + std::to_string(current_stage) + " ===\n";
    }
    out += "  s" + std::to_string(step.id) + ": ";
    if (step.output >= 0) {
      out += nodes[static_cast<size_t>(step.output)].ToString() + " <- ";
    } else if (!step.scalar_out.empty()) {
      out += step.scalar_out + " <- ";
    }
    out += StepKindLabel(step);
    for (size_t i = 0; i < step.inputs.size(); ++i) {
      out += (i == 0 ? " " : ", ");
      out += nodes[static_cast<size_t>(step.inputs[i])].ToString();
    }
    if (!step.source.empty()) out += " src=" + step.source;
    if (step.comm_bytes > 0) {
      out += " comm=" + std::to_string(static_cast<int64_t>(step.comm_bytes));
    }
    out += "\n";
  }
  out += "total_comm_bytes=" +
         std::to_string(static_cast<int64_t>(total_comm_bytes)) +
         " stages=" + std::to_string(num_stages) + "\n";
  return out;
}

std::string StepKindLabel(const PlanStep& step, bool brief) {
  std::string out = StepKindName(step.kind);
  if (step.kind == StepKind::kCompute) {
    out += "[";
    out += OpName(step.op_kind, step.cell);
    if (step.mult_algo != MultAlgo::kNone) {
      out += ":";
      out += MultAlgoName(step.mult_algo);
    }
    if (!brief && step.trans_a) out += ":Ta";
    if (!brief && step.trans_b) out += ":Tb";
    out += "]";
  }
  if (!brief && step.kind == StepKind::kReduce) {
    out += "[";
    out += ReduceName(step.reduce);
    out += "]";
  }
  return out;
}

std::vector<int> LastConsumers(const Plan& plan) {
  std::vector<int> last(plan.nodes.size(), -1);
  const auto mark = [&last](int node, int step) {
    if (node >= 0 && static_cast<size_t>(node) < last.size()) {
      last[static_cast<size_t>(node)] = step;
    }
  };
  for (const PlanStep& step : plan.steps) {  // ids ascend with position
    for (int input : step.inputs) mark(input, step.id);
  }
  for (const PlanOutput& out : plan.outputs) {
    mark(out.node, static_cast<int>(plan.steps.size()));
  }
  return last;
}

int InPlaceInput(const Plan& plan, const PlanStep& step,
                 const std::vector<int>& last_consumers) {
  if (step.kind != StepKind::kCompute || step.op_kind != OpKind::kCellwise ||
      step.inputs.empty()) {
    return -1;
  }
  const int in = step.inputs[0];
  const PlanNode& node = plan.nodes[static_cast<size_t>(in)];
  const bool dies =
      last_consumers[static_cast<size_t>(in)] == step.id &&
      std::count(step.inputs.begin(), step.inputs.end(), in) == 1;
  const bool loaded =
      node.producer_step >= 0 &&
      plan.steps[static_cast<size_t>(node.producer_step)].kind ==
          StepKind::kLoad;
  return dies && !loaded && node.scheme() != Scheme::kBroadcast ? in : -1;
}

}  // namespace dmac
