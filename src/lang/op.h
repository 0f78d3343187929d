// The decomposed form of a matrix program: an ordered list of matrix
// operators in SSA form. This is the input of the planners (paper §4:
// "DMac decomposes the program into a sequence of matrix operators").
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "lang/expr.h"

namespace dmac {

/// Reference to a (possibly transposed) materialized matrix. Transposition
/// is not an operator in DMac — it is part of the dependency between the
/// consuming operator and the producer (paper Table 2, B = Aᵀ cases).
struct MatrixRef {
  std::string name;        // SSA name, e.g. "H#2" or "_t14"
  bool transposed = false;

  std::string ToString() const { return transposed ? name + "^T" : name; }
  bool operator==(const MatrixRef& o) const {
    return name == o.name && transposed == o.transposed;
  }
};

/// Kinds of decomposed operators.
enum class OpKind {
  kLoad,            // read an input matrix from storage
  kRandom,          // generate a random dense matrix in place
  kMultiply,        // %*%
  kCellwise,        // element-wise function (Operator::cell)
  kRowSums,         // m×n → m×1
  kColSums,         // m×n → 1×n
  kReduce,          // matrix → scalar (sum / norm2 / value)
  kScalarAssign,    // driver-side scalar assignment (no matrix events)
};

const char* OpKindName(OpKind k);

/// An operator's name in plans and messages: the element-wise function's
/// (CellOp::name()) for kCellwise, OpKindName(kind) otherwise.
const char* OpName(OpKind kind, const CellOp& cell);

/// One decomposed operator.
struct Operator {
  int id = -1;
  OpKind kind = OpKind::kLoad;

  std::vector<MatrixRef> inputs;  // 0, 1, or 2 matrix inputs
  std::string output;             // SSA name of the produced matrix, or ""

  // kLoad / kRandom: declared metadata. `source` is the binding key for
  // kLoad and the generator seed name for kRandom.
  Shape decl_shape;
  double decl_sparsity = 1.0;
  std::string source;

  // kCellwise: the function applied (its scalar operand is `scalar`).
  CellOp cell;

  // kCellwise kScale / kShift, kScalarAssign: scalar operand with all
  // variable references resolved to SSA scalar names.
  ScalarExprPtr scalar;

  // kReduce / kScalarAssign: SSA name of the produced scalar.
  ReduceKind reduce = ReduceKind::kSum;
  std::string scalar_out;

  std::string ToString() const;
};

/// The full decomposition of a program.
struct OperatorList {
  std::vector<Operator> ops;
  /// program output variable → SSA name holding its final value
  /// (second = transposed flag of the final binding).
  std::unordered_map<std::string, MatrixRef> output_bindings;
  /// program scalar output → SSA scalar name.
  std::unordered_map<std::string, std::string> scalar_output_bindings;
  /// Program variables hinted for checkpointing (every SSA version of a
  /// hinted variable inherits the hint when the plan is generated).
  std::vector<std::string> checkpoint_vars;

  std::string ToString() const;
};

}  // namespace dmac
