#include "lang/program.h"

#include "common/logging.h"

namespace dmac {

Mat Mat::mm(const Mat& other) const {
  return Mat(MatrixExpr::Multiply(expr_, other.expr_));
}

Mat Mat::t() const { return Mat(MatrixExpr::Transpose(expr_)); }

Mat Mat::RowSums() const { return Mat(MatrixExpr::RowSums(expr_)); }

Mat Mat::ColSums() const { return Mat(MatrixExpr::ColSums(expr_)); }

Mat Mat::Unary(UnaryFnKind fn) const {
  return Mat(MatrixExpr::Cellwise({.kind = CellOp::kUnary, .fn = fn}, expr_));
}
Mat Mat::Exp() const { return Unary(UnaryFnKind::kExp); }
Mat Mat::Log() const { return Unary(UnaryFnKind::kLog); }
Mat Mat::Abs() const { return Unary(UnaryFnKind::kAbs); }
Mat Mat::Sigmoid() const { return Unary(UnaryFnKind::kSigmoid); }
Mat Mat::Square() const { return Unary(UnaryFnKind::kSquare); }

Mat Mat::Binary(CellOp::Kind kind, const Mat& other) const {
  return Mat(MatrixExpr::Cellwise({kind}, expr_, other.expr_));
}
Mat Mat::operator+(const Mat& o) const { return Binary(CellOp::kAdd, o); }
Mat Mat::operator-(const Mat& o) const { return Binary(CellOp::kSubtract, o); }
Mat Mat::operator*(const Mat& o) const { return Binary(CellOp::kMultiply, o); }
Mat Mat::operator/(const Mat& o) const { return Binary(CellOp::kDivide, o); }

Mat Mat::operator*(double scalar) const { return Scl(scalar) * *this; }

Mat Mat::operator+(double scalar) const {
  return Mat(MatrixExpr::Cellwise({CellOp::kShift}, expr_, nullptr,
                                  ScalarExpr::Literal(scalar)));
}

Mat Mat::operator-(double scalar) const { return *this + -scalar; }

Scl Mat::Sum() const { return Scl(ScalarExpr::Reduce(ReduceKind::kSum, expr_)); }

Scl Mat::Norm2() const {
  return Scl(ScalarExpr::Reduce(ReduceKind::kNorm2, expr_));
}

Scl Mat::Value() const {
  return Scl(ScalarExpr::Reduce(ReduceKind::kValue, expr_));
}

Mat operator*(double scalar, const Mat& m) { return m * scalar; }

Scl Scl::operator+(const Scl& o) const {
  return Scl(ScalarExpr::Binary('+', expr_, o.expr_));
}
Scl Scl::operator-(const Scl& o) const {
  return Scl(ScalarExpr::Binary('-', expr_, o.expr_));
}
Scl Scl::operator*(const Scl& o) const {
  return Scl(ScalarExpr::Binary('*', expr_, o.expr_));
}
Scl Scl::operator/(const Scl& o) const {
  return Scl(ScalarExpr::Binary('/', expr_, o.expr_));
}
Scl Scl::Sqrt() const { return Scl(ScalarExpr::Sqrt(expr_)); }

Mat Scl::operator*(const Mat& m) const {
  return Mat(MatrixExpr::Cellwise({CellOp::kScale}, m.expr(), nullptr, expr_));
}

Mat ProgramBuilder::Load(const std::string& name, Shape shape,
                         double sparsity) {
  Statement st;
  st.kind = Statement::Kind::kAssignMatrix;
  st.target = name;
  st.matrix = MatrixExpr::Load(name, shape, sparsity);
  program_.statements.push_back(std::move(st));
  return Mat(MatrixExpr::VarRef(name));
}

Mat ProgramBuilder::Random(const std::string& name, Shape shape) {
  Statement st;
  st.kind = Statement::Kind::kAssignMatrix;
  st.target = name;
  st.matrix = MatrixExpr::Random(name, shape);
  program_.statements.push_back(std::move(st));
  return Mat(MatrixExpr::VarRef(name));
}

Mat ProgramBuilder::Var(const std::string& name) {
  return Mat(MatrixExpr::VarRef(name));
}

Scl ProgramBuilder::ScalarVar(const std::string& name, double initial) {
  Statement st;
  st.kind = Statement::Kind::kAssignScalar;
  st.target = name;
  st.scalar = ScalarExpr::Literal(initial);
  program_.statements.push_back(std::move(st));
  return Scl(ScalarExpr::VarRef(name));
}

void ProgramBuilder::Assign(const Mat& target, const Mat& expr) {
  DMAC_CHECK(target.expr() != nullptr &&
             target.expr()->kind == MatrixExpr::Kind::kVarRef)
      << "Assign target must be a matrix variable";
  Statement st;
  st.kind = Statement::Kind::kAssignMatrix;
  st.target = target.expr()->name;
  st.matrix = expr.expr();
  program_.statements.push_back(std::move(st));
}

void ProgramBuilder::Assign(const Scl& target, const Scl& expr) {
  DMAC_CHECK(target.expr() != nullptr &&
             target.expr()->kind == ScalarExpr::Kind::kVarRef)
      << "Assign target must be a scalar variable";
  Statement st;
  st.kind = Statement::Kind::kAssignScalar;
  st.target = target.expr()->name;
  st.scalar = expr.expr();
  program_.statements.push_back(std::move(st));
}

void ProgramBuilder::Output(const Mat& var) {
  DMAC_CHECK(var.expr() != nullptr &&
             var.expr()->kind == MatrixExpr::Kind::kVarRef)
      << "Output must be a matrix variable";
  program_.outputs.push_back(var.expr()->name);
}

void ProgramBuilder::OutputScalar(const Scl& var) {
  DMAC_CHECK(var.expr() != nullptr &&
             var.expr()->kind == ScalarExpr::Kind::kVarRef)
      << "OutputScalar must be a scalar variable";
  program_.scalar_outputs.push_back(var.expr()->name);
}

void ProgramBuilder::CheckpointHint(const Mat& var) {
  DMAC_CHECK(var.expr() != nullptr &&
             var.expr()->kind == MatrixExpr::Kind::kVarRef)
      << "CheckpointHint must name a matrix variable";
  program_.checkpoint_hints.push_back(var.expr()->name);
}

Program ProgramBuilder::Build() { return std::move(program_); }

}  // namespace dmac
