// Expression IR for matrix programs (paper Codes 1–5).
//
// A matrix program is a sequence of assignments whose right-hand sides are
// trees of MatrixExpr / ScalarExpr. Loops in the source program are unrolled
// by the builder (the paper likewise decomposes the whole program into one
// operator sequence). The IR is deliberately small: matrix multiplication,
// one element-wise node for every function of CellOp, transpose, row and
// column sums, leaves, and scalar reductions.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>

#include "common/result.h"
#include "matrix/cell_op.h"
#include "matrix/shape.h"

namespace dmac {

/// Scalar reductions of a matrix.
enum class ReduceKind {
  kSum,    // sum of elements
  kNorm2,  // sqrt(sum of squares)
  kValue,  // the single element of a 1x1 matrix
};

const char* ReduceName(ReduceKind r);

struct MatrixExpr;
struct ScalarExpr;
using MatrixExprPtr = std::shared_ptr<const MatrixExpr>;
using ScalarExprPtr = std::shared_ptr<const ScalarExpr>;

/// A scalar-valued expression evaluated at the driver during execution.
struct ScalarExpr {
  enum class Kind { kLiteral, kVarRef, kReduce, kBinary, kSqrt };

  Kind kind;
  double literal = 0;        // kLiteral
  std::string name;          // kVarRef: scalar variable
  ReduceKind reduce = ReduceKind::kSum;  // kReduce
  MatrixExprPtr matrix;      // kReduce operand
  char op = '+';             // kBinary: one of + - * /
  ScalarExprPtr lhs, rhs;    // kBinary (lhs only for kSqrt)

  static ScalarExprPtr Literal(double v);
  static ScalarExprPtr VarRef(std::string name);
  static ScalarExprPtr Reduce(ReduceKind r, MatrixExprPtr m);
  static ScalarExprPtr Binary(char op, ScalarExprPtr l, ScalarExprPtr r);
  static ScalarExprPtr Sqrt(ScalarExprPtr v);
};

/// A run's scalar values by variable (or SSA) name.
using ScalarEnv = std::unordered_map<std::string, double>;

/// Evaluates `e` against `env`, handing each kReduce node to `reduce`.
Result<double> EvalScalar(
    const ScalarExpr& e, const ScalarEnv& env,
    const std::function<Result<double>(const ScalarExpr&)>& reduce);

/// A matrix-valued expression node.
struct MatrixExpr {
  enum class Kind {
    kLoad,       // named input matrix
    kRandom,     // random dense matrix (generated in place on workers)
    kVarRef,     // reference to a program variable
    kMultiply,   // lhs %*% rhs
    kCellwise,   // element-wise function `cell` (paper §3.1)
    kTranspose,  // matrix transpose
    kRowSums,    // m×n → m×1 row aggregation
    kColSums,    // m×n → 1×n column aggregation
  };

  Kind kind;
  // kLoad / kVarRef: variable or input name. kRandom: generated name.
  std::string name;
  // kLoad / kRandom: declared shape and sparsity (1.0 = dense).
  Shape shape;
  double sparsity = 1.0;
  // kCellwise: the function; its scalar operand is `scalar`, not
  // cell.scalar, which is filled in when the program runs.
  CellOp cell;
  // Operands: lhs for every operator, rhs for kMultiply and a binary
  // kCellwise.
  MatrixExprPtr lhs, rhs;
  // kCellwise kScale / kShift: the scalar operand.
  ScalarExprPtr scalar;

  static MatrixExprPtr Load(std::string name, Shape shape, double sparsity);
  static MatrixExprPtr Random(std::string name, Shape shape);
  static MatrixExprPtr VarRef(std::string name);
  static MatrixExprPtr Multiply(MatrixExprPtr l, MatrixExprPtr r);
  /// `cell` applied to `l` and, for a binary function, `r`; kScale and
  /// kShift take their scalar operand `s`.
  static MatrixExprPtr Cellwise(CellOp cell, MatrixExprPtr l,
                                MatrixExprPtr r = nullptr,
                                ScalarExprPtr s = nullptr);
  static MatrixExprPtr Transpose(MatrixExprPtr m);
  static MatrixExprPtr RowSums(MatrixExprPtr m);
  static MatrixExprPtr ColSums(MatrixExprPtr m);
};

}  // namespace dmac
