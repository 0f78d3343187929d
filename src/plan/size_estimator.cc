#include "plan/size_estimator.h"

#include <algorithm>

namespace dmac {

double MatrixStats::EstimatedBytes() const {
  const double m = static_cast<double>(shape.rows);
  const double n = static_cast<double>(shape.cols);
  const double dense = 4.0 * m * n;
  const double sparse = 4.0 * n + 8.0 * m * n * sparsity;
  return std::min(dense, sparse);
}

Result<MatrixStats> StatsForRef(const StatsMap& stats, const MatrixRef& ref) {
  auto it = stats.find(ref.name);
  if (it == stats.end()) {
    return Status::NotFound("no stats for matrix " + ref.name);
  }
  return ref.transposed ? it->second.Transposed() : it->second;
}

Result<StatsMap> EstimateSizes(const OperatorList& ops) {
  StatsMap stats;
  for (const Operator& op : ops.ops) {
    switch (op.kind) {
      case OpKind::kLoad:
      case OpKind::kRandom:
        stats[op.output] = {op.decl_shape, op.decl_sparsity};
        break;
      case OpKind::kMultiply: {
        DMAC_ASSIGN_OR_RETURN(MatrixStats a, StatsForRef(stats, op.inputs[0]));
        DMAC_ASSIGN_OR_RETURN(MatrixStats b, StatsForRef(stats, op.inputs[1]));
        if (a.shape.cols != b.shape.rows) {
          return Status::DimensionMismatch(
              op.ToString() + ": " + a.shape.ToString() + " %*% " +
              b.shape.ToString());
        }
        // Worst case: the product is fully dense.
        stats[op.output] = {{a.shape.rows, b.shape.cols}, 1.0};
        break;
      }
      case OpKind::kCellwise: {
        DMAC_ASSIGN_OR_RETURN(MatrixStats a, StatsForRef(stats, op.inputs[0]));
        // A scale and a zero-preserving unary function keep the operand's
        // sparsity (paper §5.1); a shift and any other unary function fill
        // every structural zero; a binary function is bounded by the sum.
        double sparsity = a.sparsity;
        if (op.cell.binary()) {
          DMAC_ASSIGN_OR_RETURN(MatrixStats b,
                                StatsForRef(stats, op.inputs[1]));
          if (a.shape != b.shape) {
            return Status::DimensionMismatch(
                op.ToString() + ": " + a.shape.ToString() + " vs " +
                b.shape.ToString());
          }
          sparsity = std::min(a.sparsity + b.sparsity, 1.0);
        } else if (op.cell.kind == CellOp::kShift ||
                   (op.cell.kind == CellOp::kUnary &&
                    !UnaryFnPreservesZero(op.cell.fn))) {
          sparsity = 1.0;
        }
        stats[op.output] = {a.shape, sparsity};
        break;
      }
      case OpKind::kRowSums:
      case OpKind::kColSums: {
        DMAC_ASSIGN_OR_RETURN(MatrixStats a, StatsForRef(stats, op.inputs[0]));
        // Worst case: every aggregated row/column has a non-zero.
        if (op.kind == OpKind::kRowSums) {
          stats[op.output] = {{a.shape.rows, 1}, 1.0};
        } else {
          stats[op.output] = {{1, a.shape.cols}, 1.0};
        }
        break;
      }
      case OpKind::kReduce: {
        DMAC_ASSIGN_OR_RETURN(MatrixStats a, StatsForRef(stats, op.inputs[0]));
        if (op.reduce == ReduceKind::kValue &&
            (a.shape.rows != 1 || a.shape.cols != 1)) {
          return Status::DimensionMismatch(op.ToString() +
                                           ": .value requires a 1x1 matrix, "
                                           "got " +
                                           a.shape.ToString());
        }
        break;
      }
      case OpKind::kScalarAssign:
        break;
    }
  }
  return stats;
}

}  // namespace dmac
