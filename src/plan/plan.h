// Execution plan IR (paper §4.2, Fig. 3).
//
// A plan is a DAG whose nodes are materialized matrices annotated with a
// partition scheme, and whose steps are either compute operators or the five
// extended operators (partition, broadcast, transpose, reference, extract)
// that express matrix dependencies. Reference dependencies are null
// operations and produce no step — the consumer simply reuses the node.
//
// After construction the plan is finalized: steps are topologically ordered
// and cut into un-interleaved stages at communication boundaries (§5.2), so
// that everything inside one stage runs on the cluster without any network
// traffic.
#pragma once

#include <string>
#include <vector>

#include "lang/op.h"
#include "plan/scheme.h"
#include "plan/size_estimator.h"
#include "plan/strategy.h"

namespace dmac {

/// Kind of a plan step.
enum class StepKind : uint8_t {
  kLoad,       // read + distribute an input matrix
  kRandom,     // generate a random matrix in place
  kCompute,    // a multiply, an element-wise function or a row/column sum
  kPartition,  // extended: repartition to Row/Col        (communicates)
  kBroadcast,  // extended: replicate to all workers      (communicates)
  kTranspose,  // extended: local transpose
  kExtract,    // extended: local filter from a broadcast copy
  kReduce,     // matrix → scalar at the driver
  kScalarAssign,  // driver-side scalar computation
};

const char* StepKindName(StepKind k);

/// A materialized matrix instance in the plan.
struct PlanNode {
  int id = -1;
  /// Base SSA matrix name this node holds (possibly transposed).
  std::string matrix;
  bool transposed = false;
  /// Scheme(s); more than one bit only while the producer's output is still
  /// flexible (CPMM r|c) — collapsed by Heuristic 2 or at finalization.
  SchemeSet schemes = kNoSchemes;
  MatrixStats stats;
  int producer_step = -1;
  int stage = -1;
  /// Program-level checkpoint hint (ProgramBuilder::CheckpointHint): the
  /// executor's periodic checkpointing snapshots only hinted nodes when any
  /// exist in the plan (docs/fault_tolerance.md).
  bool checkpoint_hint = false;

  Scheme scheme() const { return SchemeSetFirst(schemes); }
  std::string ToString() const {
    return (transposed ? matrix + "^T" : matrix) + "(" +
           SchemeSetToString(schemes) + ")";
  }
};

/// One step of the plan.
struct PlanStep {
  int id = -1;
  StepKind kind = StepKind::kCompute;

  /// For kCompute / kReduce: the originating operator semantics.
  OpKind op_kind = OpKind::kLoad;
  MultAlgo mult_algo = MultAlgo::kNone;

  /// kCompute multiply only: consume inputs[0]/inputs[1] transposed (the
  /// operand is stored untransposed; the kernel reads it through the flag —
  /// matrix/kernels.h). Set by the transpose-fusion pass (plan/fusion.h)
  /// when it folds a kTranspose step into its consuming multiply.
  bool trans_a = false;
  bool trans_b = false;

  std::vector<int> inputs;  // node ids
  int output = -1;          // node id, or -1 (reduce / scalar-assign)

  /// Plan-time communication estimate of this step (cost-model bytes).
  double comm_bytes = 0;

  /// True when the strategy's own execution shuffles its output (CPMM's
  /// cross-product aggregation, row/column-sum aggregation).
  bool output_comm = false;

  int stage = -1;

  /// kLoad / kRandom: binding key and declared metadata.
  std::string source;
  Shape decl_shape;
  double decl_sparsity = 1.0;

  /// kCompute with op_kind kCellwise: the function applied.
  CellOp cell;

  /// kCompute kScale / kShift, kScalarAssign: resolved scalar expression.
  ScalarExprPtr scalar;
  /// kReduce / kScalarAssign: produced SSA scalar.
  ReduceKind reduce = ReduceKind::kSum;
  std::string scalar_out;

  /// True when this step moves data between workers.
  bool Communicates() const {
    return kind == StepKind::kLoad || kind == StepKind::kPartition ||
           kind == StepKind::kBroadcast || output_comm;
  }
};

/// Binding of a program output variable to a plan node.
struct PlanOutput {
  std::string variable;
  int node = -1;
  bool transposed = false;  // gather must transpose the node's matrix
};

/// A finalized execution plan.
struct Plan {
  std::vector<PlanNode> nodes;
  std::vector<PlanStep> steps;  // topologically ordered after Finalize()
  std::vector<PlanOutput> outputs;
  /// Scalar outputs as (program variable, SSA scalar name) pairs.
  std::vector<std::pair<std::string, std::string>> scalar_outputs;
  int num_stages = 0;
  double total_comm_bytes = 0;

  /// Topologically orders steps, assigns stages (cut at communication
  /// boundaries), and accumulates total communication.
  Status Finalize();

  /// Human-readable rendering: one line per step, grouped by stage
  /// (the textual analogue of Fig. 3).
  std::string ToString() const;
};

/// A step's kind and what it computes, as plan text prints it:
/// "compute[multiply:RMM2:Ta]", "compute[add]", "reduce[sum]" or a bare
/// kind ("partition"). `brief` leaves out the transpose flags and the
/// reduce kind, as trace span names and analyzer diagnostics do.
std::string StepKindLabel(const PlanStep& step, bool brief = false);

/// For every node of `plan`, the id of the last step that reads it (-1
/// when none does); plan outputs map past the last step, since they live
/// until gathered. Step ids equal positions in a finalized plan.
std::vector<int> LastConsumers(const Plan& plan);

/// The node element-wise `step` writes its result into on a clean run
/// (in-place execution, §5.2), or -1: its first input, when that input
/// dies at the step (`last_consumers` from LastConsumers), is not also its
/// other operand, is not a load (a load aliases the caller's binding) and
/// is not Broadcast (worker 0 maps the one replica all workers share).
int InPlaceInput(const Plan& plan, const PlanStep& step,
                 const std::vector<int>& last_consumers);

}  // namespace dmac
