#include "apps/local_interpreter.h"

#include <cmath>

#include "common/timer.h"

namespace dmac {

namespace {

class Interpreter {
 public:
  Interpreter(const Bindings& bindings, int64_t block_size, uint64_t seed)
      : bindings_(bindings), block_size_(block_size), seed_(seed) {}

  Result<LocalRunResult> Run(const Program& program) {
    Timer timer;
    for (const Statement& st : program.statements) {
      if (st.kind == Statement::Kind::kAssignMatrix) {
        DMAC_ASSIGN_OR_RETURN(LocalMatrix m, EvalMatrix(*st.matrix));
        matrices_[st.target] = std::move(m);
      } else {
        DMAC_ASSIGN_OR_RETURN(double v, EvalScalar(*st.scalar));
        scalars_[st.target] = v;
      }
    }
    LocalRunResult result;
    for (const std::string& out : program.outputs) {
      auto it = matrices_.find(out);
      if (it == matrices_.end()) {
        return Status::NotFound("output matrix " + out + " never assigned");
      }
      result.matrices.emplace(out, it->second);
    }
    for (const std::string& out : program.scalar_outputs) {
      auto it = scalars_.find(out);
      if (it == scalars_.end()) {
        return Status::NotFound("output scalar " + out + " never assigned");
      }
      result.scalars.emplace(out, it->second);
    }
    result.seconds = timer.ElapsedSeconds();
    return result;
  }

 private:
  Result<LocalMatrix> EvalMatrix(const MatrixExpr& e) {
    switch (e.kind) {
      case MatrixExpr::Kind::kLoad: {
        auto it = bindings_.find(e.name);
        if (it == bindings_.end()) {
          return Status::NotFound("no binding for input matrix " + e.name);
        }
        if (it->second->shape() != e.shape) {
          return Status::DimensionMismatch(
              "binding " + e.name + " is " + it->second->shape().ToString() +
              ", declared " + e.shape.ToString());
        }
        return *it->second;
      }
      case MatrixExpr::Kind::kRandom: {
        const BlockGrid grid{e.shape, block_size_};
        std::vector<Block> blocks;
        blocks.reserve(static_cast<size_t>(grid.num_blocks()));
        for (int64_t bi = 0; bi < grid.block_rows(); ++bi) {
          for (int64_t bj = 0; bj < grid.block_cols(); ++bj) {
            const Shape s = grid.BlockShape(bi, bj);
            blocks.push_back(RandomDenseBlock(
                s.rows, s.cols, RandomBlockSeed(seed_, e.name, bi, bj)));
          }
        }
        return LocalMatrix::FromBlocks(e.shape, block_size_,
                                       std::move(blocks));
      }
      case MatrixExpr::Kind::kVarRef: {
        auto it = matrices_.find(e.name);
        if (it == matrices_.end()) {
          return Status::NotFound("matrix variable " + e.name +
                                  " used before assignment");
        }
        return it->second;
      }
      case MatrixExpr::Kind::kTranspose: {
        DMAC_ASSIGN_OR_RETURN(LocalMatrix m, EvalMatrix(*e.lhs));
        return m.Transposed();
      }
      case MatrixExpr::Kind::kRowSums: {
        DMAC_ASSIGN_OR_RETURN(LocalMatrix m, EvalMatrix(*e.lhs));
        return m.RowSums();
      }
      case MatrixExpr::Kind::kColSums: {
        DMAC_ASSIGN_OR_RETURN(LocalMatrix m, EvalMatrix(*e.lhs));
        return m.ColSums();
      }
      case MatrixExpr::Kind::kMultiply: {
        DMAC_ASSIGN_OR_RETURN(LocalMatrix l, EvalMatrix(*e.lhs));
        DMAC_ASSIGN_OR_RETURN(LocalMatrix r, EvalMatrix(*e.rhs));
        return l.Multiply(r);
      }
      case MatrixExpr::Kind::kCellwise: {
        DMAC_ASSIGN_OR_RETURN(LocalMatrix l, EvalMatrix(*e.lhs));
        CellOp op = e.cell;
        if (e.scalar != nullptr) {
          DMAC_ASSIGN_OR_RETURN(double s, EvalScalar(*e.scalar));
          op.scalar = static_cast<Scalar>(s);
        }
        if (!op.binary()) return l.Cellwise(op);
        DMAC_ASSIGN_OR_RETURN(LocalMatrix r, EvalMatrix(*e.rhs));
        return l.Cellwise(op, &r);
      }
    }
    return Status::Internal("unreachable MatrixExpr kind");
  }

  Result<double> EvalScalar(const ScalarExpr& e) {
    return dmac::EvalScalar(
        e, scalars_, [this](const ScalarExpr& r) -> Result<double> {
          DMAC_ASSIGN_OR_RETURN(LocalMatrix m, EvalMatrix(*r.matrix));
          switch (r.reduce) {
            case ReduceKind::kSum:
              return m.Sum();
            case ReduceKind::kNorm2:
              return std::sqrt(m.SumSquares());
            case ReduceKind::kValue:
              if (m.rows() != 1 || m.cols() != 1) {
                return Status::DimensionMismatch(
                    ".value requires a 1x1 matrix, got " +
                    m.shape().ToString());
              }
              return m.Sum();
          }
          return Status::Internal("unreachable reduce kind");
        });
  }

  const Bindings& bindings_;
  int64_t block_size_;
  uint64_t seed_;
  std::unordered_map<std::string, LocalMatrix> matrices_;
  ScalarEnv scalars_;
};

}  // namespace

Result<LocalRunResult> InterpretLocally(const Program& program,
                                        const Bindings& bindings,
                                        int64_t block_size, uint64_t seed) {
  Interpreter interp(bindings, block_size, seed);
  return interp.Run(program);
}

}  // namespace dmac
