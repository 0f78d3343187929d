// Gustavson-style row-major SpGEMM over CSR views of CSC blocks.
//
// DMac stores every sparse block CSC, but the stored arrays of a CscBlock
// read equally well as CSR of the *transposed* matrix: stored column i of A
// is logical row i of Aᵀ. The transposed sparse multiply cases exploit
// that — Aᵀ·B and Aᵀ·Bᵀ become plain row-major Gustavson products over CSR
// views, with per-entry work proportional to the actual flops instead of
// the O(n·nnz) gather sweeps they previously ran (the 50–60× `tn` cliff in
// BENCH_kernels.json; docs/kernels.md#sparse-kernels).
//
// The only case that needs a materialized conversion is CSR of an
// *untransposed* operand, which is exactly `CscBlock::Transposed()` — a
// one-time O(nnz) counting pass per kernel call.
#pragma once

#include "matrix/csc_block.h"
#include "matrix/dense_block.h"

namespace dmac {

/// acc(i, j) += Σ_l a_rows(i, l) · b_rows(l, j), where both operands are
/// *CSR views*: stored column i of `a_rows` holds row i of the logical
/// left operand, and stored column l of `b_rows` holds row l of the
/// logical right operand. Classic Gustavson: for every stored entry
/// (i, l, v) of the left operand, scale row l of the right operand by v
/// and accumulate into output row i. The dense accumulator replaces the
/// usual sparse-accumulator workspace — output blocks here are dense or
/// near-dense after a sparse×sparse product, and the engine compacts them
/// afterwards (CompactFromDense).
///
/// Shapes (of the logical product): acc is m×n with m = a_rows.cols(),
/// n = b_rows.rows(); the inner dimension is a_rows.rows() =
/// b_rows.cols(). Callers validate — this is a kernel, not an API.
void SpGemmGustavson(const CscBlock& a_rows, const CscBlock& b_rows,
                     DenseBlock* acc);

}  // namespace dmac
