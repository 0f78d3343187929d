#include "lang/expr.h"

#include <cmath>

namespace dmac {

Result<double> EvalScalar(
    const ScalarExpr& e, const ScalarEnv& env,
    const std::function<Result<double>(const ScalarExpr&)>& reduce) {
  switch (e.kind) {
    case ScalarExpr::Kind::kLiteral:
      return e.literal;
    case ScalarExpr::Kind::kVarRef: {
      auto it = env.find(e.name);
      if (it == env.end()) {
        return Status::NotFound("scalar variable " + e.name +
                                " used before assignment");
      }
      return it->second;
    }
    case ScalarExpr::Kind::kReduce:
      return reduce(e);
    case ScalarExpr::Kind::kBinary: {
      DMAC_ASSIGN_OR_RETURN(double l, EvalScalar(*e.lhs, env, reduce));
      DMAC_ASSIGN_OR_RETURN(double r, EvalScalar(*e.rhs, env, reduce));
      switch (e.op) {
        case '+':
          return l + r;
        case '-':
          return l - r;
        case '*':
          return l * r;
        case '/':
          return l / r;
      }
      return Status::Invalid(std::string("unknown scalar operator ") + e.op);
    }
    case ScalarExpr::Kind::kSqrt: {
      DMAC_ASSIGN_OR_RETURN(double l, EvalScalar(*e.lhs, env, reduce));
      return std::sqrt(l);
    }
  }
  return Status::Internal("unreachable ScalarExpr kind");
}

const char* ReduceName(ReduceKind r) {
  switch (r) {
    case ReduceKind::kSum:
      return "sum";
    case ReduceKind::kNorm2:
      return "norm2";
    case ReduceKind::kValue:
      return "value";
  }
  return "?";
}

ScalarExprPtr ScalarExpr::Literal(double v) {
  auto e = std::make_shared<ScalarExpr>();
  e->kind = Kind::kLiteral;
  e->literal = v;
  return e;
}

ScalarExprPtr ScalarExpr::VarRef(std::string name) {
  auto e = std::make_shared<ScalarExpr>();
  e->kind = Kind::kVarRef;
  e->name = std::move(name);
  return e;
}

ScalarExprPtr ScalarExpr::Reduce(ReduceKind r, MatrixExprPtr m) {
  auto e = std::make_shared<ScalarExpr>();
  e->kind = Kind::kReduce;
  e->reduce = r;
  e->matrix = std::move(m);
  return e;
}

ScalarExprPtr ScalarExpr::Binary(char op, ScalarExprPtr l, ScalarExprPtr r) {
  auto e = std::make_shared<ScalarExpr>();
  e->kind = Kind::kBinary;
  e->op = op;
  e->lhs = std::move(l);
  e->rhs = std::move(r);
  return e;
}

ScalarExprPtr ScalarExpr::Sqrt(ScalarExprPtr v) {
  auto e = std::make_shared<ScalarExpr>();
  e->kind = Kind::kSqrt;
  e->lhs = std::move(v);
  return e;
}

MatrixExprPtr MatrixExpr::Load(std::string name, Shape shape,
                               double sparsity) {
  auto e = std::make_shared<MatrixExpr>();
  e->kind = Kind::kLoad;
  e->name = std::move(name);
  e->shape = shape;
  e->sparsity = sparsity;
  return e;
}

MatrixExprPtr MatrixExpr::Random(std::string name, Shape shape) {
  auto e = std::make_shared<MatrixExpr>();
  e->kind = Kind::kRandom;
  e->name = std::move(name);
  e->shape = shape;
  e->sparsity = 1.0;
  return e;
}

MatrixExprPtr MatrixExpr::VarRef(std::string name) {
  auto e = std::make_shared<MatrixExpr>();
  e->kind = Kind::kVarRef;
  e->name = std::move(name);
  return e;
}

MatrixExprPtr MatrixExpr::Multiply(MatrixExprPtr l, MatrixExprPtr r) {
  auto e = std::make_shared<MatrixExpr>();
  e->kind = Kind::kMultiply;
  e->lhs = std::move(l);
  e->rhs = std::move(r);
  return e;
}

MatrixExprPtr MatrixExpr::Cellwise(CellOp cell, MatrixExprPtr l,
                                   MatrixExprPtr r, ScalarExprPtr s) {
  auto e = std::make_shared<MatrixExpr>();
  e->kind = Kind::kCellwise;
  e->cell = cell;
  e->lhs = std::move(l);
  e->rhs = std::move(r);
  e->scalar = std::move(s);
  return e;
}

MatrixExprPtr MatrixExpr::Transpose(MatrixExprPtr m) {
  auto e = std::make_shared<MatrixExpr>();
  e->kind = Kind::kTranspose;
  e->lhs = std::move(m);
  return e;
}

MatrixExprPtr MatrixExpr::RowSums(MatrixExprPtr m) {
  auto e = std::make_shared<MatrixExpr>();
  e->kind = Kind::kRowSums;
  e->lhs = std::move(m);
  return e;
}

MatrixExprPtr MatrixExpr::ColSums(MatrixExprPtr m) {
  auto e = std::make_shared<MatrixExpr>();
  e->kind = Kind::kColSums;
  e->lhs = std::move(m);
  return e;
}

}  // namespace dmac
