// Block-level compute kernels: the "BLAS" substrate of DMac's local engine.
//
// All binary kernels validate dimensions and return Status/Result. The
// multiply kernels come in two forms:
//   * Multiply()            — returns a fresh dense result,
//   * MultiplyAccumulate()  — adds A·B into an existing dense accumulator;
//     this is the primitive behind the paper's In-Place execution (§5.3),
//     which folds every block product contributing to one result block into
//     the same output buffer instead of materializing intermediates.
// MultiplySparseChain() is the CSC×CSC SpGEMM used when a sparse result is
// worth keeping sparse (the Buffer-mode ablation of Fig. 7 calls it with a
// one-pair chain).
//
// The multiply kernels are transpose-aware: the flagged overloads compute
// op(A)·op(B) where op is controlled by trans_a/trans_b, consuming each
// operand in its stored layout (see matrix/kernels.h). The planner's
// transpose-fusion pass relies on these to execute Aᵀ·B without ever
// materializing Aᵀ.
#pragma once

#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "matrix/block.h"
#include "matrix/cell_op.h"
#include "matrix/kernels.h"

namespace dmac {

/// C = A·B as a dense block. Shapes must agree (A: m×k, B: k×n).
Result<Block> Multiply(const Block& a, const Block& b);

/// C = op(A)·op(B) as a dense block; effective shapes must agree.
/// `scratch`/`stats` may be null (local scratch, no accounting).
Result<Block> Multiply(const Block& a, const Block& b, bool trans_a,
                       bool trans_b, GemmScratch* scratch = nullptr,
                       GemmStats* stats = nullptr);

/// acc += A·B. `acc` must be dense with shape m×n.
Status MultiplyAccumulate(const Block& a, const Block& b, DenseBlock* acc);

/// acc += op(A)·op(B). `acc` must match the effective output shape.
Status MultiplyAccumulate(const Block& a, const Block& b, bool trans_a,
                          bool trans_b, DenseBlock* acc,
                          GemmScratch* scratch = nullptr,
                          GemmStats* stats = nullptr);

/// C = Σ_k A_k·B_k over a chain of CSC pairs, computed with one shared
/// Gustavson workspace and emitted directly as CSC — the sparse In-Place
/// path: no dense m×n accumulator and no materialized partial products.
/// All pairs must agree on the output shape m×n.
Result<CscBlock> MultiplySparseChain(
    const std::vector<std::pair<const CscBlock*, const CscBlock*>>& chain,
    int64_t rows, int64_t cols);

/// Sum of blocks; stays sparse (pairwise merges) when every input is
/// sparse, otherwise accumulates densely. Used to aggregate CPMM partials
/// and Buffer-mode partial products.
Result<Block> SumBlocks(const std::vector<const Block*>& blocks,
                        double density_threshold);

/// acc += a. `acc` must be dense and shape-compatible.
Status AddAccumulate(const Block& a, DenseBlock* acc);

/// Applies `op` to `a` and, for a binary op, to `*b`, which must then be
/// non-null and of a's shape; a unary op takes no `b`. The first operand
/// is either owned (an rvalue) or borrowed. An owned operand whose
/// representation the result keeps becomes the result's storage: a dense
/// operand of a dense result, or a sparse operand whose pattern the result
/// keeps. This is the paper's in-place execution (§5.2, Fig. 7): a step
/// whose input dies there writes into it instead of allocating. A borrowed
/// operand is copied exactly when an owned one would have been reused, and
/// both forms give the same bits in the same representation. `b` must not
/// alias an owned `a`.
Result<Block> Cellwise(const CellOp& op, Block&& a, const Block* b = nullptr);
Result<Block> Cellwise(const CellOp& op, const Block& a,
                       const Block* b = nullptr);

/// Column vector of row sums (m×1 dense).
DenseBlock RowSums(const Block& a);

/// Row vector of column sums (1×n dense).
DenseBlock ColSums(const Block& a);

/// Sum of all elements (double accumulation).
double Sum(const Block& a);

/// Sum of squared elements (double accumulation).
double SumSquares(const Block& a);

/// True when every |a(i,j) - b(i,j)| <= tol. Shapes must match exactly.
bool ApproxEqual(const Block& a, const Block& b, double tol = 1e-4);

/// Emits a dense accumulator in its cheaper representation. Below the
/// density threshold the result is a CSC copy and `*acc` is left as it
/// was; otherwise `*acc`'s storage becomes the dense result and `*acc` is
/// left empty (Fig. 4 flow).
Block CompactFromDense(DenseBlock* acc, double density_threshold);

}  // namespace dmac
