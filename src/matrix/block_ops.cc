#include "matrix/block_ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>

#include "matrix/kernels.h"

namespace dmac {

namespace {

int64_t EffRows(const Block& x, bool trans) {
  return trans ? x.cols() : x.rows();
}
int64_t EffCols(const Block& x, bool trans) {
  return trans ? x.rows() : x.cols();
}

std::string FlaggedShape(const Block& x, bool trans) {
  return x.shape().ToString() + (trans ? "ᵀ" : "");
}

Status CheckMultiplyShapes(const Block& a, const Block& b, bool trans_a,
                           bool trans_b) {
  if (EffCols(a, trans_a) != EffRows(b, trans_b)) {
    return Status::DimensionMismatch("multiply " + FlaggedShape(a, trans_a) +
                                     " by " + FlaggedShape(b, trans_b));
  }
  return Status::Ok();
}

Status CheckSameShape(const Block& a, const Block& b, const char* op) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    return Status::DimensionMismatch(std::string(op) + " " +
                                     a.shape().ToString() + " with " +
                                     b.shape().ToString());
  }
  return Status::Ok();
}

// The first operand as a dense result's storage: moved out of an owned
// dense operand, copied from a borrowed one, expanded from a sparse one.
DenseBlock DenseResult(Block&& a) {
  return a.IsDense() ? std::move(a.dense()) : a.ToDense();
}
DenseBlock DenseResult(const Block& a) { return a.ToDense(); }

// A sparse first operand as the storage of a result with its pattern.
CscBlock SparseResult(Block&& a) { return std::move(a.sparse()); }
CscBlock SparseResult(const Block& a) { return a.sparse(); }

// out(i,j) = fn(a(i,j), b(i,j)) over dense storage; reads a dense b in
// place and expands a sparse one.
template <typename A, typename Fn>
Block ElementwiseDense(A&& a, const Block& b, Fn fn) {
  DenseBlock out = DenseResult(std::forward<A>(a));
  DenseBlock b_dense;
  const Scalar* rhs = b.IsDense() ? b.dense().data()
                                  : (b_dense = b.ToDense()).data();
  Scalar* lhs = out.data();
  const int64_t n = out.rows() * out.cols();
  for (int64_t i = 0; i < n; ++i) lhs[i] = fn(lhs[i], rhs[i]);
  return Block(std::move(out));
}

// Merge two CSC blocks column by column: out(i,j) = fn(a(i,j), b(i,j)) over
// the union of their patterns. fn(0,0) must be 0.
template <typename Fn>
CscBlock MergeSparse(const CscBlock& a, const CscBlock& b, Fn fn) {
  CscBuilder builder(a.rows(), a.cols());
  builder.Reserve(static_cast<size_t>(a.nnz() + b.nnz()));
  for (int64_t c = 0; c < a.cols(); ++c) {
    int32_t pa = a.ColStart(c);
    int32_t pb = b.ColStart(c);
    const int32_t ea = a.ColEnd(c);
    const int32_t eb = b.ColEnd(c);
    while (pa < ea || pb < eb) {
      const int32_t ra = pa < ea ? a.row_idx()[pa] : INT32_MAX;
      const int32_t rb = pb < eb ? b.row_idx()[pb] : INT32_MAX;
      if (ra < rb) {
        builder.Add(ra, c, fn(a.values()[pa], Scalar{0}));
        ++pa;
      } else if (rb < ra) {
        builder.Add(rb, c, fn(Scalar{0}, b.values()[pb]));
        ++pb;
      } else {
        builder.Add(ra, c, fn(a.values()[pa], b.values()[pb]));
        ++pa;
        ++pb;
      }
    }
  }
  return builder.Build();
}

// out(i,j) = fn(a(i,j), b(i,j)) over the intersection of two CSC patterns:
// the product of two sparse operands, symmetric in their order.
template <typename Fn>
CscBlock IntersectSparse(const CscBlock& a, const CscBlock& b, Fn fn) {
  CscBuilder builder(a.rows(), a.cols());
  builder.Reserve(static_cast<size_t>(std::min(a.nnz(), b.nnz())));
  for (int64_t c = 0; c < a.cols(); ++c) {
    int32_t pa = a.ColStart(c);
    int32_t pb = b.ColStart(c);
    const int32_t ea = a.ColEnd(c);
    const int32_t eb = b.ColEnd(c);
    while (pa < ea && pb < eb) {
      const int32_t ra = a.row_idx()[pa];
      const int32_t rb = b.row_idx()[pb];
      if (ra < rb) {
        ++pa;
      } else if (rb < ra) {
        ++pb;
      } else {
        builder.Add(ra, c, fn(a.values()[pa++], b.values()[pb++]));
      }
    }
  }
  return builder.Build();
}

// kAdd and kSubtract: sparse over the union of the patterns when both
// operands are sparse, dense otherwise.
template <typename A, typename Fn>
Block UnionOp(A&& a, const Block& b, Fn fn) {
  if (a.IsSparse() && b.IsSparse()) {
    return Block(MergeSparse(a.sparse(), b.sparse(), fn));
  }
  return ElementwiseDense(std::forward<A>(a), b, fn);
}

// out(r,c) = fn(pattern(r,c), other(r,c)) over the stored entries of
// `pattern` only: the sparse side of a product with a dense operand, or a
// sparse numerator.
template <typename Fn>
CscBlock PatternOp(const CscBlock& pattern, const Block& other, Fn fn) {
  CscBuilder builder(pattern.rows(), pattern.cols());
  builder.Reserve(static_cast<size_t>(pattern.nnz()));
  for (int64_t c = 0; c < pattern.cols(); ++c) {
    for (int32_t p = pattern.ColStart(c); p < pattern.ColEnd(c); ++p) {
      const int32_t r = pattern.row_idx()[p];
      builder.Add(r, c, fn(pattern.values()[p], other.At(r, c)));
    }
  }
  return builder.Build();
}

// Rewrites the first operand's stored values with fn(values, count): in
// its own pattern when `keep_sparse` and it is sparse, densely otherwise.
template <typename A, typename Fn>
Block MapStored(A&& a, bool keep_sparse, Fn fn) {
  if (keep_sparse && a.IsSparse()) {
    CscBlock out = SparseResult(std::forward<A>(a));
    fn(out.mutable_values(), out.nnz());
    return Block(std::move(out));
  }
  DenseBlock out = DenseResult(std::forward<A>(a));
  fn(out.data(), out.rows() * out.cols());
  return Block(std::move(out));
}

// The one element-wise evaluator: picks the representation and the inner
// loop once per block (see CellOp for the rules).
template <typename A>
Result<Block> CellwiseImpl(const CellOp& op, A&& a, const Block* b) {
  if (op.binary() != (b != nullptr)) {
    return Status::Invalid(std::string(op.name()) +
                           (b == nullptr ? " needs" : " takes no") +
                           " second operand");
  }
  if (b != nullptr) DMAC_RETURN_NOT_OK(CheckSameShape(a, *b, op.name()));
  const Scalar s = op.scalar;
  switch (op.kind) {
    case CellOp::kAdd:
      return UnionOp(std::forward<A>(a), *b, std::plus<Scalar>());
    case CellOp::kSubtract:
      return UnionOp(std::forward<A>(a), *b, std::minus<Scalar>());
    case CellOp::kMultiply:
      if (a.IsSparse() && b->IsSparse()) {
        return Block(IntersectSparse(a.sparse(), b->sparse(),
                                     std::multiplies<Scalar>()));
      }
      if (a.IsSparse()) {
        return Block(PatternOp(a.sparse(), *b, std::multiplies<Scalar>()));
      }
      if (b->IsSparse()) {
        return Block(PatternOp(b->sparse(), a, std::multiplies<Scalar>()));
      }
      return ElementwiseDense(std::forward<A>(a), *b,
                              std::multiplies<Scalar>());
    case CellOp::kDivide:
      if (a.IsSparse()) {
        return Block(PatternOp(a.sparse(), *b, std::divides<Scalar>()));
      }
      return ElementwiseDense(std::forward<A>(a), *b, std::divides<Scalar>());
    case CellOp::kScale:
      return MapStored(std::forward<A>(a), /*keep_sparse=*/true,
                       [s](Scalar* v, int64_t n) {
                         for (int64_t i = 0; i < n; ++i) v[i] *= s;
                       });
    case CellOp::kShift:
      if (s == Scalar{0}) return Block(std::forward<A>(a));
      return MapStored(std::forward<A>(a), /*keep_sparse=*/false,
                       [s](Scalar* v, int64_t n) {
                         for (int64_t i = 0; i < n; ++i) v[i] += s;
                       });
    case CellOp::kUnary:
      return MapStored(std::forward<A>(a), UnaryFnPreservesZero(op.fn),
                       [fn = op.fn](Scalar* v, int64_t n) {
                         VecUnary(v, n, fn);
                       });
  }
  return Status::Internal("unknown element-wise function");
}

}  // namespace

Result<Block> Multiply(const Block& a, const Block& b) {
  return Multiply(a, b, /*trans_a=*/false, /*trans_b=*/false);
}

Result<Block> Multiply(const Block& a, const Block& b, bool trans_a,
                       bool trans_b, GemmScratch* scratch, GemmStats* stats) {
  DMAC_RETURN_NOT_OK(CheckMultiplyShapes(a, b, trans_a, trans_b));
  DenseBlock acc(EffRows(a, trans_a), EffCols(b, trans_b));
  DMAC_RETURN_NOT_OK(
      MultiplyAccumulate(a, b, trans_a, trans_b, &acc, scratch, stats));
  return Block(std::move(acc));
}

Status MultiplyAccumulate(const Block& a, const Block& b, DenseBlock* acc) {
  return MultiplyAccumulate(a, b, /*trans_a=*/false, /*trans_b=*/false, acc);
}

Status MultiplyAccumulate(const Block& a, const Block& b, bool trans_a,
                          bool trans_b, DenseBlock* acc, GemmScratch* scratch,
                          GemmStats* stats) {
  DMAC_RETURN_NOT_OK(CheckMultiplyShapes(a, b, trans_a, trans_b));
  if (acc->rows() != EffRows(a, trans_a) ||
      acc->cols() != EffCols(b, trans_b)) {
    return Status::DimensionMismatch(
        "accumulator " + acc->shape().ToString() + " for " +
        FlaggedShape(a, trans_a) + " * " + FlaggedShape(b, trans_b));
  }
  GemmScratch local;
  if (scratch == nullptr) scratch = &local;
  if (a.IsDense() && b.IsDense()) {
    GemmDense(a.dense(), b.dense(), trans_a, trans_b, acc, scratch, stats);
  } else if (a.IsSparse() && b.IsDense()) {
    GemmSparseDense(a.sparse(), b.dense(), trans_a, trans_b, acc, scratch,
                    stats);
  } else if (a.IsDense() && b.IsSparse()) {
    GemmDenseSparse(a.dense(), b.sparse(), trans_a, trans_b, acc, scratch,
                    stats);
  } else {
    GemmSparseSparse(a.sparse(), b.sparse(), trans_a, trans_b, acc, stats);
  }
  return Status::Ok();
}

Result<CscBlock> MultiplySparseChain(
    const std::vector<std::pair<const CscBlock*, const CscBlock*>>& chain,
    int64_t rows, int64_t cols) {
  for (const auto& [a, b] : chain) {
    if (a->cols() != b->rows() || a->rows() != rows || b->cols() != cols) {
      return Status::DimensionMismatch(
          "sparse chain multiply: " + a->shape().ToString() + " by " +
          b->shape().ToString() + " into " + std::to_string(rows) + "x" +
          std::to_string(cols));
    }
  }
  // Gustavson: accumulate each output column in a dense workspace with an
  // occupancy list, then emit its non-zeros in sorted row order.
  std::vector<Scalar> workspace(static_cast<size_t>(rows), 0);
  std::vector<int32_t> occupied;
  std::vector<int32_t> col_ptr(static_cast<size_t>(cols + 1), 0);
  std::vector<int32_t> row_idx;
  std::vector<Scalar> values;

  for (int64_t j = 0; j < cols; ++j) {
    occupied.clear();
    for (const auto& [a, b] : chain) {
      for (int32_t p = b->ColStart(j); p < b->ColEnd(j); ++p) {
        const int64_t l = b->row_idx()[p];
        const Scalar t = b->values()[p];
        for (int32_t q = a->ColStart(l); q < a->ColEnd(l); ++q) {
          const int32_t r = a->row_idx()[q];
          if (workspace[r] == Scalar{0}) occupied.push_back(r);
          workspace[r] += a->values()[q] * t;
        }
      }
    }
    std::sort(occupied.begin(), occupied.end());
    for (int32_t r : occupied) {
      if (workspace[r] != Scalar{0}) {
        row_idx.push_back(r);
        values.push_back(workspace[r]);
      }
      workspace[r] = Scalar{0};
    }
    col_ptr[j + 1] = static_cast<int32_t>(values.size());
  }
  return CscBlock(rows, cols, std::move(col_ptr), std::move(row_idx),
                  std::move(values));
}

Result<Block> SumBlocks(const std::vector<const Block*>& blocks,
                        double density_threshold) {
  if (blocks.empty()) return Status::Invalid("SumBlocks over no blocks");
  bool all_sparse = true;
  for (const Block* b : blocks) all_sparse = all_sparse && b->IsSparse();

  if (all_sparse && blocks.size() == 2) {
    // One union merge is already optimal for a pair.
    DMAC_ASSIGN_OR_RETURN(Block merged,
                          Cellwise({CellOp::kAdd}, *blocks[0], blocks[1]));
    return std::move(merged).Compacted(density_threshold);
  }

  if (all_sparse && blocks.size() > 2) {
    // Dense-workspace scatter: one m-sized column workspace shared across
    // all inputs replaces the pairwise merges (which re-copied the growing
    // accumulator once per input — O(n·nnz) on the CPMM aggregation path).
    // Scattering inputs in order per column keeps the FP addition order
    // identical to the pairwise merges.
    const int64_t m = blocks[0]->rows();
    const int64_t n = blocks[0]->cols();
    for (const Block* blk : blocks) {
      if (blk->rows() != m || blk->cols() != n) {
        return Status::DimensionMismatch("sum " + blk->shape().ToString() +
                                         " with " +
                                         blocks[0]->shape().ToString());
      }
    }
    size_t nnz_bound = 0;
    for (const Block* blk : blocks) {
      nnz_bound += static_cast<size_t>(blk->sparse().nnz());
    }
    std::vector<Scalar> workspace(static_cast<size_t>(m), 0);
    std::vector<int32_t> occupied;
    std::vector<int32_t> col_ptr(static_cast<size_t>(n + 1), 0);
    std::vector<int32_t> row_idx;
    std::vector<Scalar> values;
    row_idx.reserve(std::min(nnz_bound, static_cast<size_t>(m) *
                                            static_cast<size_t>(n)));
    values.reserve(row_idx.capacity());
    for (int64_t j = 0; j < n; ++j) {
      occupied.clear();
      for (const Block* blk : blocks) {
        const CscBlock& s = blk->sparse();
        const auto& rows = s.row_idx();
        const auto& vals = s.values();
        const int32_t end = s.ColEnd(j);
        for (int32_t p = s.ColStart(j); p < end; ++p) {
          const int32_t r = rows[p];
          if (workspace[r] == Scalar{0}) occupied.push_back(r);
          workspace[r] += vals[p];
        }
      }
      std::sort(occupied.begin(), occupied.end());
      for (int32_t r : occupied) {
        // The occupancy list can hold duplicates when a partial sum passes
        // through zero; zeroing after emit dedups exactly like
        // MultiplySparseChain's workspace.
        if (workspace[r] != Scalar{0}) {
          row_idx.push_back(r);
          values.push_back(workspace[r]);
        }
        workspace[r] = Scalar{0};
      }
      col_ptr[j + 1] = static_cast<int32_t>(values.size());
    }
    return Block(CscBlock(m, n, std::move(col_ptr), std::move(row_idx),
                          std::move(values)))
        .Compacted(density_threshold);
  }

  if (all_sparse) {  // single sparse input
    return Block(blocks[0]->sparse()).Compacted(density_threshold);
  }

  DenseBlock acc(blocks[0]->rows(), blocks[0]->cols());
  for (const Block* b : blocks) {
    DMAC_RETURN_NOT_OK(AddAccumulate(*b, &acc));
  }
  return CompactFromDense(&acc, density_threshold);
}

Result<Block> Cellwise(const CellOp& op, Block&& a, const Block* b) {
  return CellwiseImpl(op, std::move(a), b);
}
Result<Block> Cellwise(const CellOp& op, const Block& a, const Block* b) {
  return CellwiseImpl(op, a, b);
}

Status AddAccumulate(const Block& a, DenseBlock* acc) {
  if (a.rows() != acc->rows() || a.cols() != acc->cols()) {
    return Status::DimensionMismatch("accumulate " + a.shape().ToString() +
                                     " into " + acc->shape().ToString());
  }
  if (a.IsDense()) {
    VecAccumulate(acc->data(), a.dense().data(), a.rows() * a.cols());
  } else {
    const CscBlock& s = a.sparse();
    for (int64_t c = 0; c < s.cols(); ++c) {
      for (int32_t p = s.ColStart(c); p < s.ColEnd(c); ++p) {
        acc->Accumulate(s.row_idx()[p], c, s.values()[p]);
      }
    }
  }
  return Status::Ok();
}

DenseBlock RowSums(const Block& a) {
  DenseBlock out(a.rows(), 1);
  Scalar* sums = out.data();
  if (a.IsDense()) {
    const DenseBlock& d = a.dense();
    for (int64_t c = 0; c < d.cols(); ++c) {
      VecRowAccumulate(sums, d.col(c), d.rows());
    }
  } else {
    const CscBlock& s = a.sparse();
    for (size_t p = 0; p < s.values().size(); ++p) {
      sums[s.row_idx()[p]] += s.values()[p];
    }
  }
  return out;
}

DenseBlock ColSums(const Block& a) {
  DenseBlock out(1, a.cols());
  Scalar* sums = out.data();
  if (a.IsDense()) {
    const DenseBlock& d = a.dense();
    for (int64_t c = 0; c < d.cols(); ++c) {
      sums[c] = VecColSum(d.col(c), d.rows());
    }
  } else {
    const CscBlock& s = a.sparse();
    for (int64_t c = 0; c < s.cols(); ++c) {
      Scalar total = 0;
      for (int32_t p = s.ColStart(c); p < s.ColEnd(c); ++p) {
        total += s.values()[p];
      }
      sums[c] = total;
    }
  }
  return out;
}

double Sum(const Block& a) {
  if (a.IsDense()) {
    return VecSum(a.dense().data(), a.rows() * a.cols());
  }
  const auto& values = a.sparse().values();
  return VecSum(values.data(), static_cast<int64_t>(values.size()));
}

double SumSquares(const Block& a) {
  if (a.IsDense()) {
    return VecSumSquares(a.dense().data(), a.rows() * a.cols());
  }
  const auto& values = a.sparse().values();
  return VecSumSquares(values.data(), static_cast<int64_t>(values.size()));
}

Block CompactFromDense(DenseBlock* acc, double density_threshold) {
  const int64_t total = acc->rows() * acc->cols();
  const int64_t nnz = acc->CountNonZeros();
  if (total > 0 &&
      static_cast<double>(nnz) < density_threshold * total) {
    CscBuilder builder(acc->rows(), acc->cols());
    builder.Reserve(static_cast<size_t>(nnz));
    for (int64_t c = 0; c < acc->cols(); ++c) {
      const Scalar* col = acc->col(c);
      for (int64_t r = 0; r < acc->rows(); ++r) {
        if (col[r] != Scalar{0}) builder.Add(r, c, col[r]);
      }
    }
    return Block(builder.Build());
  }
  return Block(std::move(*acc));  // the accumulator becomes the result
}

namespace {

bool WithinTol(Scalar x, Scalar y, double tol) {
  return std::abs(static_cast<double>(x) - y) <= tol;
}

/// Sparse-vs-dense column walk: advance the sparse pointer alongside the
/// dense rows so each stored entry is visited once (no At() column scans).
bool ApproxEqualSparseDense(const CscBlock& s, const DenseBlock& d,
                            double tol) {
  const auto& rows = s.row_idx();
  const auto& vals = s.values();
  for (int64_t c = 0; c < s.cols(); ++c) {
    const Scalar* col = d.col(c);
    int32_t p = s.ColStart(c);
    const int32_t end = s.ColEnd(c);
    for (int64_t r = 0; r < s.rows(); ++r) {
      const Scalar sv =
          (p < end && rows[p] == r) ? vals[p++] : Scalar{0};
      if (!WithinTol(sv, col[r], tol)) return false;
    }
  }
  return true;
}

/// Two-pointer union walk per column over both sparse patterns.
bool ApproxEqualSparseSparse(const CscBlock& a, const CscBlock& b,
                             double tol) {
  for (int64_t c = 0; c < a.cols(); ++c) {
    int32_t pa = a.ColStart(c);
    int32_t pb = b.ColStart(c);
    const int32_t ea = a.ColEnd(c);
    const int32_t eb = b.ColEnd(c);
    while (pa < ea || pb < eb) {
      const int32_t ra = pa < ea ? a.row_idx()[pa] : INT32_MAX;
      const int32_t rb = pb < eb ? b.row_idx()[pb] : INT32_MAX;
      if (ra < rb) {
        if (!WithinTol(a.values()[pa], Scalar{0}, tol)) return false;
        ++pa;
      } else if (rb < ra) {
        if (!WithinTol(Scalar{0}, b.values()[pb], tol)) return false;
        ++pb;
      } else {
        if (!WithinTol(a.values()[pa], b.values()[pb], tol)) return false;
        ++pa;
        ++pb;
      }
    }
  }
  return true;
}

}  // namespace

bool ApproxEqual(const Block& a, const Block& b, double tol) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  if (a.IsDense() && b.IsDense()) {
    const Scalar* x = a.dense().data();
    const Scalar* y = b.dense().data();
    const int64_t n = a.rows() * a.cols();
    for (int64_t i = 0; i < n; ++i) {
      if (!WithinTol(x[i], y[i], tol)) return false;
    }
    return true;
  }
  if (a.IsSparse() && b.IsSparse()) {
    return ApproxEqualSparseSparse(a.sparse(), b.sparse(), tol);
  }
  if (a.IsSparse()) return ApproxEqualSparseDense(a.sparse(), b.dense(), tol);
  return ApproxEqualSparseDense(b.sparse(), a.dense(), tol);
}

}  // namespace dmac
