// The element-wise functions: what every element-wise operator of a
// program computes, from the expression tree to the block evaluator
// (matrix/block_ops.h, Cellwise).
#pragma once

#include "matrix/shape.h"
#include "matrix/unary_fn.h"

namespace dmac {

/// One element-wise function: what Cellwise() computes at every element,
/// pairing a binary function's first operand with the aligned element of
/// its second. Each function fixes the result's representation:
///   * kAdd, kSubtract: sparse over the union of both patterns when both
///     operands are sparse, dense otherwise;
///   * kMultiply: sparse when either operand is sparse, over the sparse
///     operand's pattern, or over the intersection of both patterns when
///     both are (so a * b and b * a give the same bits); entries whose
///     product is zero leave it;
///   * kDivide: the numerator's pattern when it is sparse (0 / y == 0);
///     a zero denominator at a non-zero numerator yields IEEE inf, as in R;
///   * kScale (a · scalar): the operand's representation and pattern,
///     explicit zeros included;
///   * kShift (a + scalar): dense, except that a shift by 0 returns the
///     operand itself;
///   * kUnary: the operand's pattern for a zero-preserving `fn` (abs,
///     square), dense otherwise.
/// A sparse operand's structural zeros take no part in a product or a
/// quotient, so a non-finite value there gives 0 where the same values
/// held densely give NaN (inf · 0, 0 / 0).
struct CellOp {
  enum Kind { kAdd, kSubtract, kMultiply, kDivide, kScale, kShift, kUnary };

  Kind kind = kAdd;
  Scalar scalar = 0;                   // kScale, kShift
  UnaryFnKind fn = UnaryFnKind::kExp;  // kUnary

  /// True for the functions of two operands (kAdd .. kDivide).
  bool binary() const { return kind <= kDivide; }
  /// The function's name in plans and messages: "add", "subtract",
  /// "cell-multiply", "cell-divide", "scalar-multiply", "scalar-add" or
  /// "cell-unary".
  const char* name() const;
};

}  // namespace dmac
