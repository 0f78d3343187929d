#include "lang/decompose.h"

#include <algorithm>
#include <limits>
#include <unordered_set>

#include "common/logging.h"

namespace dmac {

const char* OpKindName(OpKind k) {
  switch (k) {
    case OpKind::kLoad:
      return "load";
    case OpKind::kRandom:
      return "random";
    case OpKind::kMultiply:
      return "multiply";
    case OpKind::kCellwise:
      return "cellwise";
    case OpKind::kRowSums:
      return "row-sums";
    case OpKind::kColSums:
      return "col-sums";
    case OpKind::kReduce:
      return "reduce";
    case OpKind::kScalarAssign:
      return "scalar-assign";
  }
  return "?";
}

const char* OpName(OpKind kind, const CellOp& cell) {
  return kind == OpKind::kCellwise ? cell.name() : OpKindName(kind);
}

std::string Operator::ToString() const {
  std::string s = "op" + std::to_string(id) + ": ";
  if (!output.empty()) s += output + " = ";
  if (!scalar_out.empty()) s += scalar_out + " = ";
  s += OpName(kind, cell);
  if (kind == OpKind::kReduce) {
    s += std::string("(") + ReduceName(reduce) + ")";
  }
  for (size_t i = 0; i < inputs.size(); ++i) {
    s += (i == 0 ? " " : ", ") + inputs[i].ToString();
  }
  if (kind == OpKind::kLoad || kind == OpKind::kRandom) {
    s += " " + source + " " + decl_shape.ToString();
  }
  return s;
}

std::string OperatorList::ToString() const {
  std::string s;
  for (const Operator& op : ops) {
    s += op.ToString();
    s += "\n";
  }
  return s;
}

namespace {

/// Decomposition context: variable environments and emission buffers.
class Decomposer {
 public:
  Result<OperatorList> Run(const Program& program) {
    for (const Statement& st : program.statements) {
      stmt_ops_.clear();
      Status s = st.kind == Statement::Kind::kAssignMatrix
                     ? HandleMatrixStatement(st)
                     : HandleScalarStatement(st);
      DMAC_RETURN_NOT_OK(s);
      ReorderMultiplicationsFirst();
      for (Operator& op : stmt_ops_) {
        op.id = static_cast<int>(result_.ops.size());
        result_.ops.push_back(std::move(op));
      }
    }
    for (const std::string& out : program.outputs) {
      auto it = matrix_env_.find(out);
      if (it == matrix_env_.end()) {
        return Status::NotFound("output matrix variable never assigned: " +
                                out);
      }
      result_.output_bindings[out] = it->second;
    }
    for (const std::string& out : program.scalar_outputs) {
      auto it = scalar_env_.find(out);
      if (it == scalar_env_.end()) {
        return Status::NotFound("output scalar variable never assigned: " +
                                out);
      }
      result_.scalar_output_bindings[out] = it->second;
    }
    result_.checkpoint_vars = program.checkpoint_hints;
    EliminateDeadOperators();
    return std::move(result_);
  }

 private:
  Status HandleMatrixStatement(const Statement& st) {
    // Pure aliasing (`a = b` or `a = b.t`) introduces no operator.
    const MatrixExpr* e = st.matrix.get();
    bool alias_transposed = false;
    while (e->kind == MatrixExpr::Kind::kTranspose) {
      alias_transposed = !alias_transposed;
      e = e->lhs.get();
    }
    if (e->kind == MatrixExpr::Kind::kVarRef) {
      auto it = matrix_env_.find(e->name);
      if (it == matrix_env_.end()) {
        return Status::NotFound("matrix variable used before assignment: " +
                                e->name);
      }
      MatrixRef ref = it->second;
      ref.transposed = ref.transposed != alias_transposed;
      matrix_env_[st.target] = ref;
      return Status::Ok();
    }

    MatrixRef ref;
    DMAC_RETURN_NOT_OK(EmitMatrix(*st.matrix, &ref));
    // Rename the temp produced by the statement's root operator to the
    // versioned target, unless the root is an alias (handled above) —
    // compound roots always end in a fresh temp produced by the last op.
    const std::string ssa = NewVersion(st.target);
    if (!ref.transposed && !stmt_ops_.empty() &&
        stmt_ops_.back().output == ref.name) {
      stmt_ops_.back().output = ssa;
      RecordShape(ssa, ShapeOf(ref));
    } else {
      // Root was transposed or refers to an earlier op: keep the alias in
      // the environment instead of copying.
      matrix_env_[st.target] = ref;
      return Status::Ok();
    }
    matrix_env_[st.target] = MatrixRef{ssa, false};
    return Status::Ok();
  }

  Status HandleScalarStatement(const Statement& st) {
    ScalarExprPtr resolved;
    DMAC_RETURN_NOT_OK(EmitScalar(st.scalar, &resolved));
    const std::string ssa = NewVersion(st.target);
    Operator op;
    op.kind = OpKind::kScalarAssign;
    op.scalar = std::move(resolved);
    op.scalar_out = ssa;
    stmt_ops_.push_back(std::move(op));
    scalar_env_[st.target] = ssa;
    return Status::Ok();
  }

  Status EmitMatrix(const MatrixExpr& e, MatrixRef* out) {
    switch (e.kind) {
      case MatrixExpr::Kind::kVarRef: {
        auto it = matrix_env_.find(e.name);
        if (it == matrix_env_.end()) {
          return Status::NotFound("matrix variable used before assignment: " +
                                  e.name);
        }
        *out = it->second;
        return Status::Ok();
      }
      case MatrixExpr::Kind::kTranspose: {
        DMAC_RETURN_NOT_OK(EmitMatrix(*e.lhs, out));
        out->transposed = !out->transposed;
        return Status::Ok();
      }
      case MatrixExpr::Kind::kLoad:
      case MatrixExpr::Kind::kRandom: {
        Operator op;
        op.kind = e.kind == MatrixExpr::Kind::kLoad ? OpKind::kLoad
                                                    : OpKind::kRandom;
        op.decl_shape = e.shape;
        op.decl_sparsity = e.sparsity;
        op.source = e.name;
        op.output = NewTemp();
        RecordShape(op.output, e.shape);
        *out = MatrixRef{op.output, false};
        stmt_ops_.push_back(std::move(op));
        return Status::Ok();
      }
      case MatrixExpr::Kind::kMultiply:
        return EmitMultiplyChain(e, out);
      case MatrixExpr::Kind::kCellwise: {
        Operator op;
        op.kind = OpKind::kCellwise;
        op.cell = e.cell;
        op.inputs.resize(e.cell.binary() ? 2 : 1);
        DMAC_RETURN_NOT_OK(EmitMatrix(*e.lhs, &op.inputs[0]));
        if (e.cell.binary()) {
          DMAC_RETURN_NOT_OK(EmitMatrix(*e.rhs, &op.inputs[1]));
        }
        if (e.scalar != nullptr) {
          DMAC_RETURN_NOT_OK(EmitScalar(e.scalar, &op.scalar));
        }
        op.output = NewTemp();
        RecordShape(op.output, ShapeOf(op.inputs[0]));
        *out = MatrixRef{op.output, false};
        stmt_ops_.push_back(std::move(op));
        return Status::Ok();
      }
      case MatrixExpr::Kind::kRowSums:
      case MatrixExpr::Kind::kColSums: {
        MatrixRef operand;
        DMAC_RETURN_NOT_OK(EmitMatrix(*e.lhs, &operand));
        const bool rows = e.kind == MatrixExpr::Kind::kRowSums;
        Operator op;
        op.kind = rows ? OpKind::kRowSums : OpKind::kColSums;
        op.inputs = {operand};
        op.output = NewTemp();
        const Shape in_shape = ShapeOf(operand);
        RecordShape(op.output, rows ? Shape{in_shape.rows, 1}
                                    : Shape{1, in_shape.cols});
        *out = MatrixRef{op.output, false};
        stmt_ops_.push_back(std::move(op));
        return Status::Ok();
      }
    }
    return Status::Internal("unreachable MatrixExpr kind");
  }

  Status EmitScalar(const ScalarExprPtr& e, ScalarExprPtr* out) {
    switch (e->kind) {
      case ScalarExpr::Kind::kLiteral:
        *out = e;
        return Status::Ok();
      case ScalarExpr::Kind::kVarRef: {
        auto it = scalar_env_.find(e->name);
        if (it == scalar_env_.end()) {
          return Status::NotFound("scalar variable used before assignment: " +
                                  e->name);
        }
        *out = ScalarExpr::VarRef(it->second);
        return Status::Ok();
      }
      case ScalarExpr::Kind::kReduce: {
        MatrixRef operand;
        DMAC_RETURN_NOT_OK(EmitMatrix(*e->matrix, &operand));
        Operator op;
        op.kind = OpKind::kReduce;
        op.reduce = e->reduce;
        op.inputs = {operand};
        op.scalar_out = NewScalarTemp();
        *out = ScalarExpr::VarRef(op.scalar_out);
        stmt_ops_.push_back(std::move(op));
        return Status::Ok();
      }
      case ScalarExpr::Kind::kBinary: {
        ScalarExprPtr l, r;
        DMAC_RETURN_NOT_OK(EmitScalar(e->lhs, &l));
        DMAC_RETURN_NOT_OK(EmitScalar(e->rhs, &r));
        *out = ScalarExpr::Binary(e->op, std::move(l), std::move(r));
        return Status::Ok();
      }
      case ScalarExpr::Kind::kSqrt: {
        ScalarExprPtr l;
        DMAC_RETURN_NOT_OK(EmitScalar(e->lhs, &l));
        *out = ScalarExpr::Sqrt(std::move(l));
        return Status::Ok();
      }
    }
    return Status::Internal("unreachable ScalarExpr kind");
  }

  // ---- multiplication chain reassociation -------------------------------

  /// Flattens a tree of nested %*% nodes into its in-order factor list.
  static void FlattenMultiplyChain(const MatrixExpr& e,
                                   std::vector<const MatrixExpr*>* chain) {
    if (e.kind == MatrixExpr::Kind::kMultiply) {
      FlattenMultiplyChain(*e.lhs, chain);
      FlattenMultiplyChain(*e.rhs, chain);
    } else {
      chain->push_back(&e);
    }
  }

  /// Emits a multiplication chain with the parenthesization that minimizes
  /// scalar multiplications (classic matrix-chain DP). The paper's Fig. 3
  /// relies on this: `W %*% H %*% H.t` is evaluated as `W %*% (H %*% H.t)`,
  /// avoiding the huge dense W·H intermediate.
  Status EmitMultiplyChain(const MatrixExpr& root, MatrixRef* out) {
    std::vector<const MatrixExpr*> factors;
    FlattenMultiplyChain(root, &factors);
    const size_t n = factors.size();

    std::vector<MatrixRef> refs(n);
    std::vector<Shape> shapes(n);
    for (size_t i = 0; i < n; ++i) {
      DMAC_RETURN_NOT_OK(EmitMatrix(*factors[i], &refs[i]));
      shapes[i] = ShapeOf(refs[i]);
    }
    for (size_t i = 0; i + 1 < n; ++i) {
      if (shapes[i].cols != shapes[i + 1].rows) {
        return Status::DimensionMismatch(
            "multiply chain: " + shapes[i].ToString() + " %*% " +
            shapes[i + 1].ToString());
      }
    }

    if (n == 2) {
      *out = EmitMultiplyOp(refs[0], refs[1], shapes[0], shapes[1]);
      return Status::Ok();
    }

    // cost[i][j] = min scalar multiplications for factors i..j.
    std::vector<std::vector<double>> cost(n, std::vector<double>(n, 0));
    std::vector<std::vector<size_t>> split(n, std::vector<size_t>(n, 0));
    for (size_t len = 2; len <= n; ++len) {
      for (size_t i = 0; i + len <= n; ++i) {
        const size_t j = i + len - 1;
        cost[i][j] = std::numeric_limits<double>::infinity();
        for (size_t k = i; k < j; ++k) {
          const double c =
              cost[i][k] + cost[k + 1][j] +
              static_cast<double>(shapes[i].rows) *
                  static_cast<double>(shapes[k].cols) *
                  static_cast<double>(shapes[j].cols);
          if (c < cost[i][j]) {
            cost[i][j] = c;
            split[i][j] = k;
          }
        }
      }
    }
    *out = EmitChainRange(refs, shapes, split, 0, n - 1);
    return Status::Ok();
  }

  MatrixRef EmitChainRange(const std::vector<MatrixRef>& refs,
                           const std::vector<Shape>& shapes,
                           const std::vector<std::vector<size_t>>& split,
                           size_t i, size_t j) {
    if (i == j) return refs[i];
    const size_t k = split[i][j];
    const MatrixRef l = EmitChainRange(refs, shapes, split, i, k);
    const MatrixRef r = EmitChainRange(refs, shapes, split, k + 1, j);
    return EmitMultiplyOp(l, r, ShapeOf(l), ShapeOf(r));
  }

  MatrixRef EmitMultiplyOp(const MatrixRef& l, const MatrixRef& r,
                           const Shape& ls, const Shape& rs) {
    Operator op;
    op.kind = OpKind::kMultiply;
    op.inputs = {l, r};
    op.output = NewTemp();
    RecordShape(op.output, {ls.rows, rs.cols});
    MatrixRef out{op.output, false};
    stmt_ops_.push_back(std::move(op));
    return out;
  }

  void RecordShape(const std::string& ssa, Shape shape) {
    shapes_[ssa] = shape;
  }

  Shape ShapeOf(const MatrixRef& ref) const {
    auto it = shapes_.find(ref.name);
    DMAC_CHECK(it != shapes_.end()) << "no shape recorded for " << ref.name;
    return ref.transposed ? it->second.Transposed() : it->second;
  }

  /// Collects the scalar variable names a resolved ScalarExpr reads.
  static void CollectScalarRefs(const ScalarExprPtr& e,
                                std::unordered_set<std::string>* refs) {
    if (e == nullptr) return;
    if (e->kind == ScalarExpr::Kind::kVarRef) refs->insert(e->name);
    CollectScalarRefs(e->lhs, refs);
    CollectScalarRefs(e->rhs, refs);
  }

  /// Stable topological reorder of the statement's operators preferring
  /// multiplications among ready operators (paper §4.2.3).
  void ReorderMultiplicationsFirst() {
    const size_t n = stmt_ops_.size();
    if (n < 2) return;

    // Build intra-statement dependency edges via produced names.
    std::unordered_map<std::string, size_t> producer;
    for (size_t i = 0; i < n; ++i) {
      if (!stmt_ops_[i].output.empty()) producer[stmt_ops_[i].output] = i;
      if (!stmt_ops_[i].scalar_out.empty()) {
        producer[stmt_ops_[i].scalar_out] = i;
      }
    }
    std::vector<std::vector<size_t>> consumers(n);
    std::vector<int> pending(n, 0);
    for (size_t i = 0; i < n; ++i) {
      std::unordered_set<std::string> deps;
      for (const MatrixRef& ref : stmt_ops_[i].inputs) deps.insert(ref.name);
      CollectScalarRefs(stmt_ops_[i].scalar, &deps);
      for (const std::string& d : deps) {
        auto it = producer.find(d);
        if (it != producer.end() && it->second != i) {
          consumers[it->second].push_back(i);
          ++pending[i];
        }
      }
    }

    std::vector<Operator> ordered;
    ordered.reserve(n);
    std::vector<bool> emitted(n, false);
    for (size_t step = 0; step < n; ++step) {
      // Among ready ops, pick the first multiplication, else the first op.
      size_t pick = n;
      for (size_t i = 0; i < n; ++i) {
        if (emitted[i] || pending[i] > 0) continue;
        if (stmt_ops_[i].kind == OpKind::kMultiply) {
          pick = i;
          break;
        }
        if (pick == n) pick = i;
      }
      DMAC_CHECK_LT(pick, n) << "cycle in statement operator graph";
      emitted[pick] = true;
      for (size_t c : consumers[pick]) --pending[c];
      ordered.push_back(std::move(stmt_ops_[pick]));
    }
    stmt_ops_ = std::move(ordered);
  }

  /// Dead-code elimination: drops operators whose results can never reach a
  /// program output. Iterates a backward liveness pass over the SSA list —
  /// an operator is live iff its matrix output or scalar output is read by
  /// a live operator or is itself a program output.
  void EliminateDeadOperators() {
    std::unordered_set<std::string> live_names;
    for (const auto& [var, ref] : result_.output_bindings) {
      live_names.insert(ref.name);
    }
    for (const auto& [var, ssa] : result_.scalar_output_bindings) {
      live_names.insert(ssa);
    }

    std::vector<bool> live(result_.ops.size(), false);
    for (size_t i = result_.ops.size(); i-- > 0;) {
      const Operator& op = result_.ops[i];
      const bool needed =
          (!op.output.empty() && live_names.count(op.output)) ||
          (!op.scalar_out.empty() && live_names.count(op.scalar_out));
      if (!needed) continue;
      live[i] = true;
      for (const MatrixRef& ref : op.inputs) live_names.insert(ref.name);
      CollectScalarRefs(op.scalar, &live_names);
    }

    std::vector<Operator> kept;
    kept.reserve(result_.ops.size());
    for (size_t i = 0; i < result_.ops.size(); ++i) {
      if (!live[i]) continue;
      Operator op = std::move(result_.ops[i]);
      op.id = static_cast<int>(kept.size());
      kept.push_back(std::move(op));
    }
    result_.ops = std::move(kept);
  }

  std::string NewVersion(const std::string& var) {
    const int v = ++matrix_version_[var];
    return var + "#" + std::to_string(v);
  }
  std::string NewTemp() { return "_t" + std::to_string(next_temp_++); }
  std::string NewScalarTemp() { return "_s" + std::to_string(next_stemp_++); }

  OperatorList result_;
  std::vector<Operator> stmt_ops_;
  std::unordered_map<std::string, MatrixRef> matrix_env_;
  std::unordered_map<std::string, std::string> scalar_env_;
  std::unordered_map<std::string, Shape> shapes_;
  std::unordered_map<std::string, int> matrix_version_;
  int next_temp_ = 0;
  int next_stemp_ = 0;
};

}  // namespace

Result<OperatorList> Decompose(const Program& program) {
  return Decomposer().Run(program);
}

}  // namespace dmac
