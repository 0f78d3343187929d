// Matrix programs and the R-like DSL front end (paper §5.4).
//
// Usage mirrors the paper's Scala codes:
//
//   ProgramBuilder pb;
//   Mat V = pb.Load("V", {d, w}, 0.01);
//   Mat W = pb.Random("W", {d, k});
//   Mat H = pb.Random("H", {k, w});
//   for (int i = 0; i < 10; ++i) {                      // unrolled
//     pb.Assign(H, H * (W.t().mm(V)) / (W.t().mm(W).mm(H)));
//     pb.Assign(W, W * (V.mm(H.t())) / (W.mm(H).mm(H.t())));
//   }
//   pb.Output(W); pb.Output(H);
//   Program p = pb.Build();
#pragma once

#include <string>
#include <vector>

#include "lang/expr.h"

namespace dmac {

class ProgramBuilder;

/// DSL handle for a matrix-valued expression (or variable).
class Mat {
 public:
  Mat() = default;

  const MatrixExprPtr& expr() const { return expr_; }

  /// Matrix multiplication (the paper's %*%).
  Mat mm(const Mat& other) const;
  /// Transpose (the paper's .t / W.t).
  Mat t() const;
  /// m×1 vector of row sums.
  Mat RowSums() const;
  /// 1×n vector of column sums.
  Mat ColSums() const;

  /// Element-wise unary functions.
  Mat Exp() const;
  Mat Log() const;
  Mat Abs() const;
  Mat Sigmoid() const;
  Mat Square() const;

  Mat operator+(const Mat& other) const;
  Mat operator-(const Mat& other) const;
  /// Cell-wise multiplication (the paper's *).
  Mat operator*(const Mat& other) const;
  /// Cell-wise division (the paper's /).
  Mat operator/(const Mat& other) const;

  Mat operator*(double scalar) const;
  Mat operator+(double scalar) const;
  Mat operator-(double scalar) const;

  class Scl Sum() const;
  class Scl Norm2() const;
  /// Scalar value of a 1×1 matrix (the paper's .value).
  class Scl Value() const;

 private:
  friend class ProgramBuilder;
  friend class Scl;
  explicit Mat(MatrixExprPtr expr) : expr_(std::move(expr)) {}
  Mat Unary(UnaryFnKind fn) const;
  Mat Binary(CellOp::Kind kind, const Mat& other) const;
  MatrixExprPtr expr_;
};

Mat operator*(double scalar, const Mat& m);

/// DSL handle for a scalar-valued expression (or scalar variable).
class Scl {
 public:
  Scl() = default;
  /// Implicit from literal.
  Scl(double v) : expr_(ScalarExpr::Literal(v)) {}  // NOLINT

  const ScalarExprPtr& expr() const { return expr_; }

  Scl operator+(const Scl& o) const;
  Scl operator-(const Scl& o) const;
  Scl operator*(const Scl& o) const;
  Scl operator/(const Scl& o) const;
  Scl Sqrt() const;

  /// Scales a matrix by this scalar.
  Mat operator*(const Mat& m) const;

 private:
  friend class ProgramBuilder;
  friend class Mat;
  explicit Scl(ScalarExprPtr expr) : expr_(std::move(expr)) {}
  ScalarExprPtr expr_;
};

/// One program statement.
struct Statement {
  enum class Kind { kAssignMatrix, kAssignScalar };
  Kind kind;
  std::string target;      // variable name
  MatrixExprPtr matrix;    // kAssignMatrix
  ScalarExprPtr scalar;    // kAssignScalar
};

/// A complete matrix program: declarations, statements, and the variables
/// whose final values the caller wants back.
struct Program {
  std::vector<Statement> statements;
  std::vector<std::string> outputs;         // matrix variables to fetch
  std::vector<std::string> scalar_outputs;  // scalar variables to fetch
  /// Matrix variables hinted for fault-tolerance checkpointing
  /// (docs/fault_tolerance.md) — typically the iteration state of an
  /// iterative app, whose lineage chain otherwise grows unboundedly.
  std::vector<std::string> checkpoint_hints;
};

/// Builds a Program from DSL expressions; loops are unrolled by executing
/// the host-language loop against the builder.
class ProgramBuilder {
 public:
  /// Declares an input matrix with known shape and sparsity (paper §5.1:
  /// sparsity is pre-computed or user-specified).
  Mat Load(const std::string& name, Shape shape, double sparsity = 1.0);

  /// Declares a random dense matrix generated on the workers.
  Mat Random(const std::string& name, Shape shape);

  /// Declares an uninitialized matrix variable (assign before use).
  Mat Var(const std::string& name);

  /// Declares a scalar variable initialized to a literal.
  Scl ScalarVar(const std::string& name, double initial);

  /// Appends `target = expr`. `target` must be a variable handle (from
  /// Load/Random/Var), not a compound expression.
  void Assign(const Mat& target, const Mat& expr);

  /// Appends `target = expr` for scalars.
  void Assign(const Scl& target, const Scl& expr);

  /// Marks a matrix variable as a program output.
  void Output(const Mat& var);

  /// Marks a scalar variable as a program output.
  void OutputScalar(const Scl& var);

  /// Hints that a matrix variable is worth checkpointing under fault
  /// tolerance (cuts its lineage chain in iterative programs).
  void CheckpointHint(const Mat& var);

  /// Finalizes and returns the program.
  Program Build();

 private:
  Program program_;
  int next_random_id_ = 0;
};

}  // namespace dmac
