#include "plan/planner.h"

#include <algorithm>
#include <array>
#include <limits>
#include <unordered_map>

#include "analysis/analyzer.h"
#include "common/logging.h"
#include "plan/dependency.h"
#include "plan/fusion.h"

namespace dmac {

namespace {

/// Availability of one (matrix, transposed) pair: the node currently
/// materialized under each scheme (-1 when absent). This is the planner's
/// view of the paper's OutputSet.
struct Availability {
  std::array<int, 3> per_scheme = {-1, -1, -1};
};

/// A costly repartition recorded for Heuristic 1 (the paper's InputSet
/// entries with Cost > 0).
struct CostlyPartition {
  int step_id;  // the kPartition (or kLoad) step that paid the cost
  int node_id;  // the row/column partitioned node it produced
};

/// Outcome of resolving one required input against the OutputSet.
struct Resolution {
  DependencyType dep = DependencyType::kNone;
  int source_node = -1;
  double cost = std::numeric_limits<double>::infinity();
  bool collapses_source = false;  // Heuristic 2 applies on commit
};

class Planner {
 public:
  Planner(const OperatorList& ops, const PlannerOptions& options)
      : ops_(ops), opts_(options) {}

  Result<Plan> Run() {
    // Shape-inference gate: reject malformed operator lists (wrong arity,
    // undefined names, non-conforming shapes) with a Status instead of
    // letting the strategy/estimation code index past operand arrays.
    DMAC_RETURN_NOT_OK(CheckOperators(ops_));
    DMAC_ASSIGN_OR_RETURN(stats_, EstimateSizes(ops_));

    for (const Operator& op : ops_.ops) {
      DMAC_RETURN_NOT_OK(PlanOperator(op));
    }
    DMAC_RETURN_NOT_OK(BindOutputs());
    MarkCheckpointHints();
    if (opts_.fuse_transposes) {
      // Kernel-flag rewrite: local transposes feeding only multiplies are
      // folded into TransA/TransB operand flags (plan/fusion.h) — the
      // transposed copy is never materialized.
      FuseTransposes(&plan_);
    }
    DMAC_RETURN_NOT_OK(plan_.Finalize());
    if (opts_.verify_plan) {
      // Post-pass: the static verifier re-derives every invariant Algorithm 1
      // is supposed to establish and fails planning on any violation.
      DMAC_RETURN_NOT_OK(VerifyPlan(ops_, plan_, opts_.num_workers,
                                    opts_.min_workers, opts_.resume));
    }
    return std::move(plan_);
  }

 private:
  /// Stamps PlanNode::checkpoint_hint on every SSA version of a hinted
  /// program variable ("W#3" inherits a hint on "W"). Temps ("_tN") carry
  /// no '#' and never match. Transpose views ("W#3^T") are exempt: they are
  /// derivable from the hinted primary at zero communication, so
  /// checkpointing them is redundant — and the exemption leaves them
  /// eligible for the transpose-fusion rewrite (plan/fusion.h).
  void MarkCheckpointHints() {
    if (ops_.checkpoint_vars.empty()) return;
    for (PlanNode& node : plan_.nodes) {
      if (node.transposed) continue;
      const size_t hash = node.matrix.find('#');
      if (hash == std::string::npos) continue;
      const std::string base = node.matrix.substr(0, hash);
      for (const std::string& var : ops_.checkpoint_vars) {
        if (base == var) {
          node.checkpoint_hint = true;
          break;
        }
      }
    }
  }

  // ---- node/step construction ------------------------------------------

  int NewNode(const std::string& matrix, bool transposed, SchemeSet schemes,
              const MatrixStats& stats) {
    PlanNode node;
    node.id = static_cast<int>(plan_.nodes.size());
    node.matrix = matrix;
    node.transposed = transposed;
    node.schemes = schemes;
    node.stats = stats;
    plan_.nodes.push_back(node);
    return node.id;
  }

  PlanStep& NewStep(StepKind kind) {
    PlanStep step;
    step.id = static_cast<int>(plan_.steps.size());
    step.kind = kind;
    plan_.steps.push_back(std::move(step));
    return plan_.steps.back();
  }

  void Register(int node_id) {
    const PlanNode& node = plan_.nodes[static_cast<size_t>(node_id)];
    Availability& a = avail_[node.transposed ? 1 : 0][node.matrix];
    for (uint8_t s = 0; s < 3; ++s) {
      if (node.schemes & (1u << s)) a.per_scheme[s] = node_id;
    }
  }

  void Unregister(int node_id) {
    const PlanNode& node = plan_.nodes[static_cast<size_t>(node_id)];
    Availability& a = avail_[node.transposed ? 1 : 0][node.matrix];
    for (uint8_t s = 0; s < 3; ++s) {
      if (a.per_scheme[s] == node_id) a.per_scheme[s] = -1;
    }
  }

  /// Collapses a flexible node to a single scheme (Heuristic 2 /
  /// Re-assignment) and fixes the availability map.
  void CollapseNode(int node_id, Scheme to) {
    PlanNode& node = plan_.nodes[static_cast<size_t>(node_id)];
    if (SchemeSetIsSingle(node.schemes)) return;
    Unregister(node_id);
    node.schemes = SchemeBit(to);
    Register(node_id);
  }

  Result<MatrixStats> BaseStats(const std::string& name) const {
    auto it = stats_.find(name);
    if (it == stats_.end()) {
      return Status::NotFound("no stats for matrix " + name);
    }
    return it->second;
  }

  // ---- dependency resolution -------------------------------------------

  /// Finds the cheapest way to satisfy In(ref, required) from the
  /// OutputSet. In SystemML-S mode every dependency pays its repartition
  /// price even if the schemes align.
  Resolution Resolve(const MatrixRef& ref, Scheme required) const {
    Resolution best;
    auto base_it = stats_.find(ref.name);
    if (base_it == stats_.end()) return best;
    const double bytes = base_it->second.EstimatedBytes();

    for (int trans = 0; trans < 2; ++trans) {
      auto it = avail_[trans].find(ref.name);
      if (it == avail_[trans].end()) continue;
      const bool relation_transposed = (trans == 1) != ref.transposed;
      for (uint8_t s = 0; s < 3; ++s) {
        const int node_id = it->second.per_scheme[s];
        if (node_id < 0) continue;
        const Scheme pi = static_cast<Scheme>(s);
        DependencyType dep = ClassifyDependency(relation_transposed, pi,
                                                required);
        double cost = DependencyCommBytes(dep, bytes, opts_.num_workers);
        if (!opts_.exploit_dependencies) {
          // SystemML-S: the cached layout never satisfies the operator's
          // requirement; a repartition (or broadcast) is always performed.
          if (required == Scheme::kBroadcast) {
            dep = relation_transposed ? DependencyType::kTransposeBroadcast
                                      : DependencyType::kBroadcast;
          } else {
            dep = relation_transposed ? DependencyType::kTransposePartition
                                      : DependencyType::kPartition;
          }
          cost = DependencyCommBytes(dep, bytes, opts_.num_workers);
        }
        const PlanNode& node = plan_.nodes[static_cast<size_t>(node_id)];
        const bool collapses = !SchemeSetIsSingle(node.schemes);
        if (collapses && !opts_.reassignment && dep == DependencyType::kReference) {
          // Without Heuristic 2 a flexible output cannot be steered toward
          // the consumer; assume it materialized in the other scheme.
          continue;
        }
        // Prefer lower cost; among equals prefer non-collapsing references.
        if (cost < best.cost ||
            (cost == best.cost && !collapses && best.collapses_source)) {
          best.dep = dep;
          best.source_node = node_id;
          best.cost = cost;
          best.collapses_source = collapses;
        }
      }
    }
    return best;
  }

  /// Materializes the resolution: emits the extended-operator steps and
  /// returns the node id satisfying In(ref, required).
  Result<int> CommitResolution(const MatrixRef& ref, Scheme required,
                               const Resolution& res) {
    if (res.source_node < 0) {
      return Status::Internal("unresolvable input " + ref.ToString());
    }
    if (res.collapses_source) {
      // Heuristic 2: steer the flexible producer toward the needed scheme.
      const PlanNode& src = plan_.nodes[static_cast<size_t>(res.source_node)];
      Scheme to = required;
      if (res.dep != DependencyType::kReference) {
        // Collapse to any member; keep the first.
        to = SchemeSetFirst(src.schemes);
      }
      CollapseNode(res.source_node, to);
    }

    DMAC_ASSIGN_OR_RETURN(MatrixStats base, BaseStats(ref.name));
    const MatrixStats target_stats =
        ref.transposed ? base.Transposed() : base;
    const PlanNode& src = plan_.nodes[static_cast<size_t>(res.source_node)];
    const double bytes = base.EstimatedBytes();
    const MatrixStats src_stats = src.stats;

    switch (res.dep) {
      case DependencyType::kReference:
        return res.source_node;

      case DependencyType::kTranspose: {
        const int target = NewNode(ref.name, ref.transposed,
                                   SchemeBit(required), target_stats);
        PlanStep& step = NewStep(StepKind::kTranspose);
        step.inputs = {res.source_node};
        step.output = target;
        if (opts_.exploit_dependencies) Register(target);
        return target;
      }

      case DependencyType::kExtract: {
        const int target = NewNode(ref.name, ref.transposed,
                                   SchemeBit(required), target_stats);
        PlanStep& step = NewStep(StepKind::kExtract);
        step.inputs = {res.source_node};
        step.output = target;
        if (opts_.exploit_dependencies) Register(target);
        return target;
      }

      case DependencyType::kExtractTranspose: {
        // Local filter to the opposite scheme, then a local transpose.
        const int mid =
            NewNode(src.matrix, src.transposed,
                    SchemeBit(OppositeScheme(required)), src_stats);
        PlanStep& extract = NewStep(StepKind::kExtract);
        extract.inputs = {res.source_node};
        extract.output = mid;
        const int target = NewNode(ref.name, ref.transposed,
                                   SchemeBit(required), target_stats);
        PlanStep& transpose = NewStep(StepKind::kTranspose);
        transpose.inputs = {mid};
        transpose.output = target;
        if (opts_.exploit_dependencies) {
          Register(mid);
          Register(target);
        }
        return target;
      }

      case DependencyType::kPartition: {
        const int target = NewNode(ref.name, ref.transposed,
                                   SchemeBit(required), target_stats);
        PlanStep& step = NewStep(StepKind::kPartition);
        step.inputs = {res.source_node};
        step.output = target;
        step.comm_bytes = bytes;
        if (opts_.exploit_dependencies) {
          Register(target);  // Algorithm 1 line 19: add Out to OutputSet
          costly_partitions_[ref.name].push_back({step.id, target});
        }
        return target;
      }

      case DependencyType::kTransposePartition: {
        // Local transpose first, then the repartition.
        const Scheme src_scheme = SchemeSetFirst(src.schemes);
        const int mid = NewNode(ref.name, ref.transposed,
                                SchemeBit(OppositeScheme(src_scheme)),
                                target_stats);
        PlanStep& transpose = NewStep(StepKind::kTranspose);
        transpose.inputs = {res.source_node};
        transpose.output = mid;
        const int target = NewNode(ref.name, ref.transposed,
                                   SchemeBit(required), target_stats);
        PlanStep& part = NewStep(StepKind::kPartition);
        part.inputs = {mid};
        part.output = target;
        part.comm_bytes = bytes;
        if (opts_.exploit_dependencies) {
          Register(mid);
          Register(target);
          costly_partitions_[ref.name].push_back({part.id, target});
        }
        return target;
      }

      case DependencyType::kBroadcast:
      case DependencyType::kTransposeBroadcast: {
        // Heuristic 1: pull the broadcast up to an earlier costly
        // repartition of the same matrix.
        if (opts_.exploit_dependencies && opts_.pull_up_broadcast) {
          DMAC_ASSIGN_OR_RETURN(int pulled, TryPullUpBroadcast(ref));
          if (pulled >= 0) return FinishBroadcastFrom(pulled, ref, required);
        }
        int from = res.source_node;
        if (res.dep == DependencyType::kTransposeBroadcast) {
          // Transpose locally, then broadcast.
          const Scheme src_scheme = SchemeSetFirst(src.schemes);
          const int mid = NewNode(ref.name, ref.transposed,
                                  SchemeBit(OppositeScheme(src_scheme)),
                                  target_stats);
          PlanStep& transpose = NewStep(StepKind::kTranspose);
          transpose.inputs = {res.source_node};
          transpose.output = mid;
          if (opts_.exploit_dependencies) Register(mid);
          from = mid;
        }
        const int target = NewNode(ref.name, ref.transposed,
                                   SchemeBit(Scheme::kBroadcast),
                                   target_stats);
        PlanStep& step = NewStep(StepKind::kBroadcast);
        step.inputs = {from};
        step.output = target;
        step.comm_bytes = static_cast<double>(opts_.num_workers) * bytes;
        if (opts_.exploit_dependencies) Register(target);
        return target;
      }

      case DependencyType::kNone:
        break;
    }
    return Status::Internal("unhandled dependency type");
  }

  /// Heuristic 1 body: rewrites the earlier costly repartition step into a
  /// broadcast and re-derives its output by a local extract. Returns the
  /// new broadcast node id, or -1 when no candidate exists.
  Result<int> TryPullUpBroadcast(const MatrixRef& ref) {
    auto it = costly_partitions_.find(ref.name);
    if (it == costly_partitions_.end() || it->second.empty()) return -1;
    const CostlyPartition entry = it->second.back();
    it->second.pop_back();

    PlanStep& step = plan_.steps[static_cast<size_t>(entry.step_id)];
    PlanNode& old_out = plan_.nodes[static_cast<size_t>(entry.node_id)];
    DMAC_CHECK(step.kind == StepKind::kPartition ||
               step.kind == StepKind::kLoad);

    DMAC_ASSIGN_OR_RETURN(MatrixStats base, BaseStats(ref.name));
    MatrixStats bstats =
        old_out.transposed ? base.Transposed() : base;
    const int bnode = NewNode(old_out.matrix, old_out.transposed,
                              SchemeBit(Scheme::kBroadcast), bstats);
    step.output = bnode;
    step.kind = step.kind == StepKind::kLoad ? StepKind::kLoad
                                             : StepKind::kBroadcast;
    step.comm_bytes =
        static_cast<double>(opts_.num_workers) * base.EstimatedBytes();
    Register(bnode);

    // Re-derive the original row/column partitioned node locally.
    PlanStep& extract = NewStep(StepKind::kExtract);
    extract.inputs = {bnode};
    extract.output = entry.node_id;
    return bnode;
  }

  /// Satisfies In(ref, required=b) from an existing broadcast node,
  /// transposing locally if the orientation differs.
  Result<int> FinishBroadcastFrom(int bnode_id, const MatrixRef& ref,
                                  Scheme required) {
    DMAC_CHECK(required == Scheme::kBroadcast);
    const PlanNode& bnode = plan_.nodes[static_cast<size_t>(bnode_id)];
    if (bnode.transposed == ref.transposed) return bnode_id;
    DMAC_ASSIGN_OR_RETURN(MatrixStats base, BaseStats(ref.name));
    const MatrixStats target_stats =
        ref.transposed ? base.Transposed() : base;
    const int target = NewNode(ref.name, ref.transposed,
                               SchemeBit(Scheme::kBroadcast), target_stats);
    PlanStep& step = NewStep(StepKind::kTranspose);
    step.inputs = {bnode_id};
    step.output = target;
    Register(target);
    return target;
  }

  // ---- strategy selection ----------------------------------------------

  /// Cost of executing `op` with strategy `st` given the current OutputSet
  /// (Equation 1's objective).
  Result<double> StrategyCost(const Operator& op, const Strategy& st) const {
    double cost = 0;
    for (size_t i = 0; i < op.inputs.size(); ++i) {
      const Resolution r = Resolve(op.inputs[i], st.input_schemes[i]);
      if (r.source_node < 0) {
        return Status::Internal("input " + op.inputs[i].ToString() +
                                " of " + op.ToString() + " is unavailable");
      }
      cost += r.cost;
    }
    if (st.output_comm) {
      DMAC_ASSIGN_OR_RETURN(MatrixStats out, BaseStats(op.output));
      cost += static_cast<double>(opts_.num_workers) * out.EstimatedBytes();
    }
    if (op.kind == OpKind::kLoad) {
      DMAC_ASSIGN_OR_RETURN(MatrixStats out, BaseStats(op.output));
      const double factor =
          SchemeSetContains(st.out_schemes, Scheme::kBroadcast)
              ? static_cast<double>(opts_.num_workers)
              : 1.0;
      cost += factor * out.EstimatedBytes();
    }
    return cost;
  }

  /// Tie-break score: how well does producing `name` with `out_schemes`
  /// serve the next few consumers of `name`? Sums, over up to
  /// `lookahead_edges` future input edges on this matrix, the cheapest
  /// dependency cost any of the consumer's strategies could achieve.
  double LookaheadScore(int op_index, const std::string& name,
                        SchemeSet out_schemes) const {
    if (opts_.lookahead_edges <= 0 || !opts_.exploit_dependencies) return 0;
    auto stats_it = stats_.find(name);
    if (stats_it == stats_.end()) return 0;
    const double bytes = stats_it->second.EstimatedBytes();

    double score = 0;
    int edges = 0;
    for (size_t j = static_cast<size_t>(op_index) + 1;
         j < ops_.ops.size() && edges < opts_.lookahead_edges; ++j) {
      const Operator& future = ops_.ops[j];
      for (size_t k = 0; k < future.inputs.size(); ++k) {
        const MatrixRef& ref = future.inputs[k];
        if (ref.name != name) continue;
        ++edges;
        double best = std::numeric_limits<double>::infinity();
        for (const Strategy& fs : CandidateStrategies(future)) {
          if (k >= fs.input_schemes.size()) continue;
          const Scheme need = fs.input_schemes[k];
          for (uint8_t s = 0; s < 3; ++s) {
            if (!(out_schemes & (1u << s))) continue;
            const DependencyType dep = ClassifyDependency(
                ref.transposed, static_cast<Scheme>(s), need);
            best = std::min(
                best, DependencyCommBytes(dep, bytes, opts_.num_workers));
          }
        }
        if (best < std::numeric_limits<double>::infinity()) score += best;
      }
    }
    return score;
  }

  // ---- per-operator planning (Algorithm 1 body) -------------------------

  Status PlanOperator(const Operator& op) {
    if (op.kind == OpKind::kScalarAssign) {
      PlanStep& step = NewStep(StepKind::kScalarAssign);
      step.scalar = op.scalar;
      step.scalar_out = op.scalar_out;
      return Status::Ok();
    }

    const std::vector<Strategy> candidates = CandidateStrategies(op);
    DMAC_CHECK(!candidates.empty());

    // Plan-search override: a forced operator commits the indexed candidate
    // directly (plan/search.h enumerates these assignments).
    const Strategy* best = nullptr;
    double best_cost = std::numeric_limits<double>::infinity();
    double best_look = std::numeric_limits<double>::infinity();
    const auto forced = opts_.forced_strategies.find(op.id);
    if (forced != opts_.forced_strategies.end()) {
      if (forced->second < 0 ||
          static_cast<size_t>(forced->second) >= candidates.size()) {
        return Status::Invalid("forced strategy index " +
                               std::to_string(forced->second) + " for " +
                               op.ToString() + " out of range");
      }
      best = &candidates[static_cast<size_t>(forced->second)];
      DMAC_ASSIGN_OR_RETURN(best_cost, StrategyCost(op, *best));
    }

    // Equation 1: pick the strategy with minimum communication; ties are
    // broken by the lookahead score over future consumers.
    for (const Strategy& st : candidates) {
      if (forced != opts_.forced_strategies.end()) break;  // forced above
      DMAC_ASSIGN_OR_RETURN(double cost, StrategyCost(op, st));
      double look = 0;
      if (!op.output.empty()) {
        look = LookaheadScore(op.id, op.output, st.out_schemes);
      }
      if (cost < best_cost ||
          (cost == best_cost && look < best_look)) {
        best = &st;
        best_cost = cost;
        best_look = look;
      }
    }
    DMAC_CHECK(best != nullptr);

    // Commit the chosen strategy: resolve inputs (emitting dependency
    // steps), then emit the operator step itself.
    std::vector<int> input_nodes;
    for (size_t i = 0; i < op.inputs.size(); ++i) {
      const Resolution r = Resolve(op.inputs[i], best->input_schemes[i]);
      DMAC_ASSIGN_OR_RETURN(
          int node, CommitResolution(op.inputs[i], best->input_schemes[i], r));
      input_nodes.push_back(node);
    }

    switch (op.kind) {
      case OpKind::kLoad:
      case OpKind::kRandom: {
        DMAC_ASSIGN_OR_RETURN(MatrixStats out_stats, BaseStats(op.output));
        const int out = NewNode(op.output, false, best->out_schemes,
                                out_stats);
        PlanStep& step = NewStep(op.kind == OpKind::kLoad ? StepKind::kLoad
                                                          : StepKind::kRandom);
        step.output = out;
        step.source = op.source;
        step.decl_shape = op.decl_shape;
        step.decl_sparsity = op.decl_sparsity;
        if (op.kind == OpKind::kLoad) {
          const double factor =
              SchemeSetContains(best->out_schemes, Scheme::kBroadcast)
                  ? static_cast<double>(opts_.num_workers)
                  : 1.0;
          step.comm_bytes = factor * out_stats.EstimatedBytes();
          if (opts_.exploit_dependencies &&
              !SchemeSetContains(best->out_schemes, Scheme::kBroadcast)) {
            costly_partitions_[op.output].push_back({step.id, out});
          }
        }
        Register(out);
        return Status::Ok();
      }

      case OpKind::kReduce: {
        PlanStep& step = NewStep(StepKind::kReduce);
        step.inputs = input_nodes;
        step.reduce = op.reduce;
        step.scalar_out = op.scalar_out;
        return Status::Ok();
      }

      default: {  // multiply, element-wise functions, row/column sums
        DMAC_ASSIGN_OR_RETURN(MatrixStats out_stats, BaseStats(op.output));
        const int out =
            NewNode(op.output, false, best->out_schemes, out_stats);
        PlanStep& step = NewStep(StepKind::kCompute);
        step.op_kind = op.kind;
        step.mult_algo = best->mult_algo;
        step.inputs = input_nodes;
        step.output = out;
        step.scalar = op.scalar;
        step.cell = op.cell;
        step.output_comm = best->output_comm;
        if (best->output_comm) {
          step.comm_bytes = static_cast<double>(opts_.num_workers) *
                            out_stats.EstimatedBytes();
        }
        Register(out);
        return Status::Ok();
      }
    }
  }

  Status BindOutputs() {
    for (const auto& [var, ref] : ops_.output_bindings) {
      int node = -1;
      bool transposed = false;
      for (int trans = 0; trans < 2 && node < 0; ++trans) {
        auto it = avail_[trans].find(ref.name);
        if (it == avail_[trans].end()) continue;
        // Prefer the orientation matching the binding; any scheme works.
        for (uint8_t s = 0; s < 3; ++s) {
          if (it->second.per_scheme[s] >= 0) {
            node = it->second.per_scheme[s];
            transposed = (trans == 1) != ref.transposed;
            break;
          }
        }
      }
      if (node < 0) {
        return Status::NotFound("no materialization of output matrix " +
                                ref.name);
      }
      plan_.outputs.push_back({var, node, transposed});
    }
    for (const auto& [var, ssa] : ops_.scalar_output_bindings) {
      plan_.scalar_outputs.emplace_back(var, ssa);
    }
    return Status::Ok();
  }

  const OperatorList& ops_;
  PlannerOptions opts_;
  StatsMap stats_;
  Plan plan_;
  // OutputSet: [transposed] -> matrix name -> per-scheme node.
  std::unordered_map<std::string, Availability> avail_[2];
  // InputSet entries with cost > 0 (Heuristic 1 candidates).
  std::unordered_map<std::string, std::vector<CostlyPartition>>
      costly_partitions_;
};

}  // namespace

Result<Plan> GeneratePlan(const OperatorList& ops,
                          const PlannerOptions& options) {
  return Planner(ops, options).Run();
}

}  // namespace dmac
