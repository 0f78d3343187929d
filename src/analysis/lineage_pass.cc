// Lineage completeness (pass 6).
//
// Fault recovery (docs/fault_tolerance.md) rebuilds a lost partition by
// re-running the producer step recorded in the node's lineage, recursing
// through that step's inputs. That only terminates — and only rebuilds the
// right data — when the plan itself is recoverable: every materialized
// node's `producer_step` annotation points at the step that actually writes
// it, every node a step consumes is producible, and walking producers
// backwards from every program output bottoms out at regenerable sources
// (load / random) without revisiting a node (a lineage cycle would make
// recovery recurse forever).
#include <string>
#include <unordered_set>
#include <vector>

#include "analysis/passes.h"

namespace dmac {

namespace {

constexpr char kPass[] = "lineage-completeness";

class LineageCompletenessPass final : public AnalysisPass {
 public:
  const char* name() const override { return kPass; }

  void Run(const AnalysisContext& ctx,
           std::vector<Diagnostic>* out) const override {
    if (ctx.plan == nullptr) return;  // plan-level pass only
    const Plan& plan = *ctx.plan;
    const int num_nodes = static_cast<int>(plan.nodes.size());

    // 0. Degraded-mode quorum feasibility: a quorum larger than the cluster
    //    can never be met, so the very first permanent worker death — or,
    //    for min_workers > num_workers, even a fault-free run's first
    //    quorum check — fails the query.
    if (ctx.min_workers > ctx.num_workers) {
      out->push_back(
          {Severity::kError, kPass, -1,
           "degraded-mode quorum of " + std::to_string(ctx.min_workers) +
               " workers exceeds the " + std::to_string(ctx.num_workers) +
               "-worker cluster",
           "any permanent worker death fails the query immediately"});
    } else if (ctx.min_workers == ctx.num_workers && ctx.num_workers > 1) {
      out->push_back(
          {Severity::kWarning, kPass, -1,
           "degraded-mode quorum of " + std::to_string(ctx.min_workers) +
               " equals the cluster size",
           "the run cannot tolerate a single permanent worker loss"});
    }

    // 0b. Durable-restart cadence: with --resume (or any durable checkpoint
    //     dir) and no checkpoint hints in the plan, the durable layer
    //     defaults to snapshotting after every producing step. Correct, but
    //     worth a heads-up — epoch commit I/O can dominate the run.
    if (ctx.resume) {
      bool any_hint = false;
      for (const PlanNode& node : plan.nodes) {
        if (node.checkpoint_hint) any_hint = true;
      }
      if (!any_hint) {
        out->push_back(
            {Severity::kWarning, kPass, -1,
             "resume requested but the plan carries no checkpoint hints; "
             "every producing step commits a durable epoch",
             "checkpoint I/O may dominate the run (docs/fault_tolerance.md)"});
      }
    }

    // 0c. Recovery re-runs plan.steps[producer_step], so a step's id must
    //     be its position in the step table (plan.cc and the fault layer
    //     index steps the same way).
    for (size_t pos = 0; pos < plan.steps.size(); ++pos) {
      const PlanStep& step = plan.steps[pos];
      if (step.id != static_cast<int>(pos)) {
        out->push_back({Severity::kError, kPass, step.id,
                        StepLabel(step) + " sits at position " +
                            std::to_string(pos) + " of the step table",
                        "lineage recovery would re-run the wrong step"});
      }
    }

    // The actual producer of each node, from the step table.
    std::vector<int> producer(static_cast<size_t>(num_nodes), -1);
    for (const PlanStep& step : plan.steps) {
      if (step.output >= 0 && step.output < num_nodes) {
        producer[static_cast<size_t>(step.output)] = step.id;
      }
    }

    // 1. The node table's producer_step annotations must agree with the
    //    step table — recovery re-runs plan.steps[producer_step] and would
    //    rebuild the wrong matrix (or crash) on a stale annotation.
    for (const PlanNode& node : plan.nodes) {
      const int actual = ValidNode(plan, node.id)
                             ? producer[static_cast<size_t>(node.id)]
                             : -1;
      if (node.producer_step == actual) continue;
      if (node.producer_step < 0 ||
          static_cast<size_t>(node.producer_step) >= plan.steps.size()) {
        out->push_back({Severity::kError, kPass, actual,
                        "node " + node.ToString() + " (id " +
                            std::to_string(node.id) +
                            ") records producer_step " +
                            std::to_string(node.producer_step) +
                            " outside the step table",
                        "lineage recovery cannot rebuild this node"});
      } else {
        out->push_back({Severity::kError, kPass, node.producer_step,
                        "node " + node.ToString() + " (id " +
                            std::to_string(node.id) +
                            ") records producer_step " +
                            std::to_string(node.producer_step) +
                            " but is written by step s" +
                            std::to_string(actual),
                        "lineage recovery would re-run the wrong step"});
      }
    }

    // 2. Every node any step consumes must be producible.
    for (const PlanStep& step : plan.steps) {
      for (int id : step.inputs) {
        if (id < 0 || id >= num_nodes) continue;  // graph pass reports these
        if (producer[static_cast<size_t>(id)] < 0) {
          out->push_back({Severity::kError, kPass, step.id,
                          StepLabel(step) + " consumes node " +
                              NodeLabel(plan, id) + " (id " +
                              std::to_string(id) + ") that no step produces",
                          "the node is unrecoverable after a fault"});
        }
      }
    }

    // 3. The lineage closure of every program output must terminate at
    //    load / random sources without cycles.
    for (const PlanOutput& po : plan.outputs) {
      std::unordered_set<int> on_path;
      std::unordered_set<int> done;
      WalkLineage(plan, producer, po.node, po.variable, &on_path, &done,
                  out);
    }
  }

 private:
  /// DFS over producer edges. `on_path` holds the current chain for cycle
  /// detection; `done` memoizes fully-walked nodes so shared sub-lineages
  /// are walked (and reported) once per output — iterative plans share
  /// almost every sub-lineage, so without the memo the walk is exponential
  /// in the iteration count.
  void WalkLineage(const Plan& plan, const std::vector<int>& producer,
                   int id, const std::string& output_var,
                   std::unordered_set<int>* on_path,
                   std::unordered_set<int>* done,
                   std::vector<Diagnostic>* out) const {
    if (!ValidNode(plan, id)) {
      out->push_back({Severity::kError, kPass, -1,
                      "output " + output_var + " binds node id " +
                          std::to_string(id) + " outside the node table",
                      "the output is unrecoverable after a fault"});
      return;
    }
    if (done->count(id) != 0) return;
    if (!on_path->insert(id).second) {
      out->push_back({Severity::kError, kPass,
                      producer[static_cast<size_t>(id)],
                      "lineage of output " + output_var +
                          " cycles through node " + NodeLabel(plan, id) +
                          " (id " + std::to_string(id) + ")",
                      "recovery recursion would never terminate"});
      return;
    }
    const int step_id = producer[static_cast<size_t>(id)];
    if (step_id < 0) {
      out->push_back({Severity::kError, kPass, -1,
                      "lineage of output " + output_var +
                          " dead-ends at node " + NodeLabel(plan, id) +
                          " (id " + std::to_string(id) +
                          ") that no step produces",
                      "the output is unrecoverable after a fault"});
      on_path->erase(id);
      done->insert(id);
      return;
    }
    // A step whose id is not its position was reported above (0c); the
    // walk stops there rather than read another step or past the table.
    const bool at_its_position =
        static_cast<size_t>(step_id) < plan.steps.size() &&
        plan.steps[static_cast<size_t>(step_id)].id == step_id;
    const PlanStep* step =
        at_its_position ? &plan.steps[static_cast<size_t>(step_id)] : nullptr;
    // Load and random steps regenerate from bindings / seeds: lineage roots.
    if (step != nullptr && step->kind != StepKind::kLoad &&
        step->kind != StepKind::kRandom) {
      for (int input : step->inputs) {
        WalkLineage(plan, producer, input, output_var, on_path, done, out);
      }
    }
    on_path->erase(id);
    done->insert(id);
  }
};

}  // namespace

AnalysisPassPtr MakeLineageCompletenessPass() {
  return std::make_unique<LineageCompletenessPass>();
}

}  // namespace dmac
