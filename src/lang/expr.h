// Expression IR for matrix programs (paper Codes 1–5).
//
// A matrix program is a sequence of assignments whose right-hand sides are
// trees of MatrixExpr / ScalarExpr. Loops in the source program are unrolled
// by the builder (the paper likewise decomposes the whole program into one
// operator sequence). The IR is deliberately small: the five binary
// operators DMac supports, scalar ops, transpose, leaves, and scalar
// reductions.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>

#include "common/result.h"
#include "matrix/shape.h"
#include "matrix/unary_fn.h"

namespace dmac {

/// The five binary matrix operators supported by DMac (paper §3.1).
enum class BinOpKind {
  kMultiply,      // %*%
  kAdd,           // +
  kSubtract,      // -
  kCellMultiply,  // *
  kCellDivide,    // /
};


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
    kBinary,     // one of the five binary operators
    kScalarMul,  // matrix * scalar-expression
    kScalarAdd,  // matrix + scalar-expression
    kTranspose,  // matrix transpose
    kRowSums,    // m×n → m×1 row aggregation
    kColSums,    // m×n → 1×n column aggregation
    kCellUnary,  // element-wise unary function
  };

  Kind kind;
  // kLoad / kVarRef: variable or input name. kRandom: generated name.
  std::string name;
  // kLoad / kRandom: declared shape and sparsity (1.0 = dense).
  Shape shape;
  double sparsity = 1.0;
  // kBinary
  BinOpKind bin_op = BinOpKind::kAdd;
  MatrixExprPtr lhs, rhs;
  // kScalarMul / kScalarAdd: lhs is the matrix operand.
  ScalarExprPtr scalar;
  // kCellUnary
  UnaryFnKind unary_fn = UnaryFnKind::kAbs;

  static MatrixExprPtr Load(std::string name, Shape shape, double sparsity);
  static MatrixExprPtr Random(std::string name, Shape shape);
  static MatrixExprPtr VarRef(std::string name);
  static MatrixExprPtr Binary(BinOpKind op, MatrixExprPtr l, MatrixExprPtr r);
  static MatrixExprPtr ScalarMul(MatrixExprPtr m, ScalarExprPtr s);
  static MatrixExprPtr ScalarAdd(MatrixExprPtr m, ScalarExprPtr s);
  static MatrixExprPtr Transpose(MatrixExprPtr m);
  static MatrixExprPtr RowSums(MatrixExprPtr m);
  static MatrixExprPtr ColSums(MatrixExprPtr m);
  static MatrixExprPtr CellUnary(UnaryFnKind fn, MatrixExprPtr m);
};

}  // namespace dmac
