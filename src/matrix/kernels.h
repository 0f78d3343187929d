// High-performance block kernels: the compute core under block_ops.h.
//
// The dense GEMM is a cache-blocked, register-tiled micro-kernel design
// (GotoBLAS-style): operand panels are packed into contiguous scratch
// buffers sized for the cache hierarchy, and an 8x16 register tile with a
// fixed trip count lets the compiler auto-vectorize the inner product (this
// translation unit is compiled -O3, optionally -march=native; see
// src/matrix/CMakeLists.txt and docs/kernels.md).
//
// Transpose-awareness: every multiply kernel takes TransA/TransB flags so a
// transposed operand is consumed in its *stored* layout — the packing
// routines absorb a dense transpose (no materialized copy), and a CSC block
// under TransA is simply reinterpreted as CSR of the logical operand. The
// planner's fusion pass (plan/fusion.h) relies on this to delete
// materialized kTranspose steps.
//
// Packing scratch is a GemmScratch: heap buffers that one task reuses across
// its kernel calls and frees when it ends.
#pragma once

#include <cstdint>

#include "matrix/csc_block.h"
#include "matrix/dense_block.h"
#include "matrix/unary_fn.h"

namespace dmac {

// ---- tiling parameters ---------------------------------------------------
// Register tile: kMr x kNr accumulators (8x16 floats = 8 AVX-512 lanes'
// worth, still sensible on AVX2). Cache blocking: a kMc x kKc packed A
// panel (~128 KB, L2-resident) against kKc x kNr B micro-panels (~16 KB,
// L1-resident) swept over kNc output columns.
inline constexpr int64_t kGemmMr = 8;
inline constexpr int64_t kGemmNr = 16;
inline constexpr int64_t kGemmKc = 256;
inline constexpr int64_t kGemmMc = 128;
inline constexpr int64_t kGemmNc = 1024;

/// Per-call kernel accounting, surfaced as engine.gemm_flops and
/// engine.gemm.pack.seconds (docs/observability.md).
struct GemmStats {
  double flops = 0;         // 2*m*n*k per dense GEMM, 2 per sparse madd
  double pack_seconds = 0;  // wall time spent packing/staging/converting
};

/// Reusable packing/staging scratch for the multiply kernels. One instance
/// serves one task (any number of sequential kernel calls); not
/// thread-safe. Three heap buffers, allocated lazily, grown on demand and
/// freed with the scratch. They are DenseBlocks, so the memory tracker
/// counts them like any other block.
class GemmScratch {
 public:
  GemmScratch() = default;

  GemmScratch(const GemmScratch&) = delete;
  GemmScratch& operator=(const GemmScratch&) = delete;
  GemmScratch(GemmScratch&& other) noexcept = default;

  /// Packed A panel of at least `elems` floats (≤ kGemmMc·kGemmKc; sized to
  /// the operands so small multiplies take small buffers). Grows on
  /// demand, never shrinks.
  Scalar* PanelA(int64_t elems);
  /// Packed B panel of at least `elems` floats (≤ kGemmKc·kGemmNc).
  Scalar* PanelB(int64_t elems);
  /// Transpose staging for mixed dense/sparse flagged multiplies: a dense
  /// rows x cols buffer. Contents are overwritten by the caller;
  /// reallocated when the requested shape changes.
  DenseBlock* Staging(int64_t rows, int64_t cols);

 private:
  DenseBlock panel_a_;
  DenseBlock panel_b_;
  DenseBlock staging_;
};

// ---- multiply kernels ----------------------------------------------------
// All kernels accumulate op(A)·op(B) into a dense accumulator whose shape
// must match the *effective* (post-transpose) operand shapes; dimension
// checking lives in block_ops.cc. `scratch` must not be null; `stats` may
// be null (no accounting). They cannot fail.

/// acc += op(A)·op(B) over dense blocks: packed panels + micro-kernel. The
/// packing stage absorbs the transposes, so all four flag combinations run
/// the same micro-kernel and produce bit-identical results. Entirely-zero
/// packed micro-panels are skipped (the column-skip prefilter for
/// dense-but-sparse-ish operands); zero terms never change a finite sum.
void GemmDense(const DenseBlock& a, const DenseBlock& b, bool trans_a,
               bool trans_b, DenseBlock* acc, GemmScratch* scratch,
               GemmStats* stats);

/// acc += op(A_csc)·op(B_dense). TransA reinterprets the CSC arrays as CSR
/// of the logical A (a per-output-element gather dot product); TransB
/// stages Bᵀ once through the scratch.
void GemmSparseDense(const CscBlock& a, const DenseBlock& b, bool trans_a,
                     bool trans_b, DenseBlock* acc, GemmScratch* scratch,
                     GemmStats* stats);

/// acc += op(A_dense)·op(B_csc). TransB walks B's stored columns as the
/// logical B's rows (contiguous axpy per stored entry); TransA stages Aᵀ
/// through the scratch when B carries enough non-zeros to amortize the
/// transpose (then runs the contiguous axpy kernel), falling back to a
/// per-element gather dot for very sparse B.
void GemmDenseSparse(const DenseBlock& a, const CscBlock& b, bool trans_a,
                     bool trans_b, DenseBlock* acc, GemmScratch* scratch,
                     GemmStats* stats);

/// acc += op(A_csc)·op(B_csc) with a dense accumulator. The transposed
/// cases run Gustavson row-major SpGEMM over CSR views (matrix/spgemm.h):
/// a CSC block under TransA *is* a CSR view for free, and the TransA-only
/// case needs CSR of B, which this kernel converts inline with a one-time
/// CSC→CSR pass (counted as pack time).
void GemmSparseSparse(const CscBlock& a, const CscBlock& b, bool trans_a,
                      bool trans_b, DenseBlock* acc, GemmStats* stats);

// ---- vectorized elementwise / reduction primitives -----------------------
// Plain loops with compiler-friendly shapes (contiguous, fixed-stride,
// multiple accumulators), compiled -O3 in this TU.

/// dst[i] += src[i] for i in [0, n).
void VecAccumulate(Scalar* dst, const Scalar* src, int64_t n);

/// Σ data[i] with double accumulation (8-way partial sums).
double VecSum(const Scalar* data, int64_t n);

/// Σ data[i]² with double accumulation (8-way partial sums).
double VecSumSquares(const Scalar* data, int64_t n);

/// sums[r] += col[r] for r in [0, rows) — the RowSums inner loop.
void VecRowAccumulate(Scalar* sums, const Scalar* col, int64_t rows);

/// Σ col[r] as Scalar (4-way partial sums) — the ColSums inner loop.
Scalar VecColSum(const Scalar* col, int64_t rows);

/// data[i] = fn(data[i]); per-function loops so abs/square vectorize.
void VecUnary(Scalar* data, int64_t n, UnaryFnKind fn);

}  // namespace dmac
