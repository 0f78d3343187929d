// Kernel implementations. Like every dmac_matrix source, this TU is
// compiled -O3 -ffp-contract=off (plus -march=native when DMAC_NATIVE_ARCH
// is on) so the fixed-trip-count loops below vectorize without fusing any
// multiply-add; see docs/kernels.md for the design and how it was verified
// with -fopt-info-vec.
#include "matrix/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/logging.h"
#include "common/timer.h"
#include "matrix/spgemm.h"

namespace dmac {

namespace {

// ---- packing -------------------------------------------------------------
// A is packed into row micro-panels of kGemmMr rows: within a panel the
// element order is (l, i) — the kGemmMr values of one k-slice are
// contiguous, which is exactly the broadcast order the micro-kernel reads.
// B is packed into column micro-panels of kGemmNr columns in (l, j) order.
// Ragged edges are zero-padded so the micro-kernel always runs full tiles;
// the zero lanes fold into local accumulators that are never written back.
//
// PackB flags each packed micro-panel that holds at least one non-zero
// (AnyNonZero, dense_block.h) — the cheap column-skip prefilter: an
// all-zero panel contributes nothing, and skipping exact zeros never
// changes a finite sum.

/// Packs rows [i0, i0+mc) x cols [l0, l0+kc) of the effective A (m x k)
/// into `pack`. `a` is the stored block; when `trans` is set the effective
/// A(i, l) is stored at a(l, i).
void PackA(const DenseBlock& a, bool trans, int64_t i0, int64_t mc,
           int64_t l0, int64_t kc, Scalar* pack) {
  const int64_t panels = (mc + kGemmMr - 1) / kGemmMr;
  for (int64_t p = 0; p < panels; ++p) {
    Scalar* dst = pack + p * kGemmMr * kc;
    const int64_t ibase = i0 + p * kGemmMr;
    const int64_t mr = std::min<int64_t>(kGemmMr, i0 + mc - ibase);
    if (!trans) {
      // Stored column-major m x k: a column of A holds consecutive i.
      for (int64_t l = 0; l < kc; ++l) {
        const Scalar* src = a.col(l0 + l) + ibase;
        for (int64_t i = 0; i < mr; ++i) dst[l * kGemmMr + i] = src[i];
        for (int64_t i = mr; i < kGemmMr; ++i) dst[l * kGemmMr + i] = 0;
      }
    } else {
      // Stored k x m: effective row i of A is stored column i — packing a
      // transposed operand reads contiguously, no transposed copy needed.
      for (int64_t i = 0; i < mr; ++i) {
        const Scalar* src = a.col(ibase + i) + l0;
        for (int64_t l = 0; l < kc; ++l) dst[l * kGemmMr + i] = src[l];
      }
      for (int64_t i = mr; i < kGemmMr; ++i) {
        for (int64_t l = 0; l < kc; ++l) dst[l * kGemmMr + i] = 0;
      }
    }
  }
}

/// Packs rows [l0, l0+kc) x cols [j0, j0+nc) of the effective B (k x n)
/// into `pack`, and records per-micro-panel nonzero flags in `live`.
void PackB(const DenseBlock& b, bool trans, int64_t l0, int64_t kc,
           int64_t j0, int64_t nc, Scalar* pack, std::vector<char>* live) {
  const int64_t panels = (nc + kGemmNr - 1) / kGemmNr;
  live->assign(static_cast<size_t>(panels), 0);
  for (int64_t p = 0; p < panels; ++p) {
    Scalar* dst = pack + p * kGemmNr * kc;
    const int64_t jbase = j0 + p * kGemmNr;
    const int64_t nr = std::min<int64_t>(kGemmNr, j0 + nc - jbase);
    if (!trans) {
      // Stored k x n: effective column j is stored column j.
      for (int64_t j = 0; j < nr; ++j) {
        const Scalar* src = b.col(jbase + j) + l0;
        for (int64_t l = 0; l < kc; ++l) dst[l * kGemmNr + j] = src[l];
      }
      for (int64_t j = nr; j < kGemmNr; ++j) {
        for (int64_t l = 0; l < kc; ++l) dst[l * kGemmNr + j] = 0;
      }
    } else {
      // Stored n x k: effective B(l, j) is stored at b(j, l); one k-slice
      // of the panel is a contiguous run of the stored column l.
      for (int64_t l = 0; l < kc; ++l) {
        const Scalar* src = b.col(l0 + l) + jbase;
        for (int64_t j = 0; j < nr; ++j) dst[l * kGemmNr + j] = src[j];
        for (int64_t j = nr; j < kGemmNr; ++j) dst[l * kGemmNr + j] = 0;
      }
    }
    (*live)[static_cast<size_t>(p)] = AnyNonZero(dst, kc * kGemmNr) ? 1 : 0;
  }
}

// ---- micro-kernel --------------------------------------------------------

/// acc(kGemmMr x kGemmNr tile at (i, j)) += packed_a · packed_b over kc.
/// Fixed trip counts over the register tile let the compiler keep the
/// accumulators in vector registers and fuse the multiply-adds — but only
/// if the tile loops are actually flattened: without the explicit unroll
/// pragmas gcc vectorizes the j loop yet leaves `acc` addressable on the
/// stack, reloading and respilling the whole tile every k step (measured
/// ~12x slower than the fully unrolled form on AVX-512, ~5x on baseline
/// SSE2). Only the first mr x nr elements are written back (edge tiles).
void MicroKernel(int64_t kc, const Scalar* __restrict a,
                 const Scalar* __restrict b, Scalar* c, int64_t ldc,
                 int64_t mr, int64_t nr) {
  // The unroll factors below must match the tile; update them together.
  static_assert(kGemmMr == 8 && kGemmNr == 16);
  Scalar acc[kGemmMr][kGemmNr] = {};
  for (int64_t l = 0; l < kc; ++l) {
    const Scalar* al = a + l * kGemmMr;
    const Scalar* bl = b + l * kGemmNr;
#pragma GCC unroll 8
    for (int64_t i = 0; i < kGemmMr; ++i) {
      const Scalar ai = al[i];
#pragma GCC unroll 16
      for (int64_t j = 0; j < kGemmNr; ++j) acc[i][j] += ai * bl[j];
    }
  }
  for (int64_t j = 0; j < nr; ++j) {
    Scalar* col = c + j * ldc;
    for (int64_t i = 0; i < mr; ++i) col[i] += acc[i][j];
  }
}

/// Effective dimensions of a possibly-flagged operand.
int64_t EffRows(const DenseBlock& x, bool trans) {
  return trans ? x.cols() : x.rows();
}
int64_t EffCols(const DenseBlock& x, bool trans) {
  return trans ? x.rows() : x.cols();
}

/// Stages the dense transpose of `x` into scratch and returns the staged
/// block (used by the mixed dense/sparse flagged kernels, where packing
/// cannot absorb the transpose). Counted as packing time.
const DenseBlock* StageTranspose(const DenseBlock& x, GemmScratch* scratch,
                                 GemmStats* stats) {
  Timer timer;
  DenseBlock* staged = scratch->Staging(x.cols(), x.rows());
  const int64_t rows = x.rows();
  const int64_t cols = x.cols();
  // Tiled transpose to keep both sides cache-resident.
  constexpr int64_t kTile = 32;
  for (int64_t c0 = 0; c0 < cols; c0 += kTile) {
    const int64_t c1 = std::min(cols, c0 + kTile);
    for (int64_t r0 = 0; r0 < rows; r0 += kTile) {
      const int64_t r1 = std::min(rows, r0 + kTile);
      for (int64_t c = c0; c < c1; ++c) {
        const Scalar* src = x.col(c);
        for (int64_t r = r0; r < r1; ++r) {
          staged->col(r)[c] = src[r];
        }
      }
    }
  }
  if (stats != nullptr) stats->pack_seconds += timer.ElapsedSeconds();
  return staged;
}

}  // namespace

// ---- GemmScratch ---------------------------------------------------------

Scalar* GemmScratch::PanelA(int64_t elems) {
  if (panel_a_.rows() < elems) panel_a_ = DenseBlock(elems, 1);
  return panel_a_.data();
}

Scalar* GemmScratch::PanelB(int64_t elems) {
  if (panel_b_.rows() < elems) panel_b_ = DenseBlock(elems, 1);
  return panel_b_.data();
}

DenseBlock* GemmScratch::Staging(int64_t rows, int64_t cols) {
  if (staging_.rows() != rows || staging_.cols() != cols) {
    staging_ = DenseBlock(rows, cols);
  }
  return &staging_;
}

// ---- dense GEMM ----------------------------------------------------------

void GemmDense(const DenseBlock& a, const DenseBlock& b, bool trans_a,
               bool trans_b, DenseBlock* acc, GemmScratch* scratch,
               GemmStats* stats) {
  const int64_t m = EffRows(a, trans_a);
  const int64_t k = EffCols(a, trans_a);
  const int64_t n = EffCols(b, trans_b);
  if (m == 0 || n == 0 || k == 0) return;
  if (stats != nullptr) stats->flops += 2.0 * m * n * k;

  // Panels are sized to the actual blocking this call uses (capped at the
  // full cache-block panels) so small multiplies take small buffers.
  const auto round_up = [](int64_t v, int64_t unit) {
    return (v + unit - 1) / unit * unit;
  };
  const int64_t kc_max = std::min(k, kGemmKc);
  const int64_t a_elems = round_up(std::min(m, kGemmMc), kGemmMr) * kc_max;
  const int64_t b_elems = kc_max * round_up(std::min(n, kGemmNc), kGemmNr);
  Scalar* pack_a = scratch->PanelA(a_elems);
  Scalar* pack_b = scratch->PanelB(b_elems);
  std::vector<char> b_live;

  for (int64_t j0 = 0; j0 < n; j0 += kGemmNc) {
    const int64_t nc = std::min(kGemmNc, n - j0);
    for (int64_t l0 = 0; l0 < k; l0 += kGemmKc) {
      const int64_t kc = std::min(kGemmKc, k - l0);
      Timer pack_timer;
      PackB(b, trans_b, l0, kc, j0, nc, pack_b, &b_live);
      if (stats != nullptr) {
        stats->pack_seconds += pack_timer.ElapsedSeconds();
      }
      for (int64_t i0 = 0; i0 < m; i0 += kGemmMc) {
        const int64_t mc = std::min(kGemmMc, m - i0);
        pack_timer.Reset();
        PackA(a, trans_a, i0, mc, l0, kc, pack_a);
        if (stats != nullptr) {
          stats->pack_seconds += pack_timer.ElapsedSeconds();
        }
        const int64_t jpanels = (nc + kGemmNr - 1) / kGemmNr;
        const int64_t ipanels = (mc + kGemmMr - 1) / kGemmMr;
        for (int64_t jp = 0; jp < jpanels; ++jp) {
          if (!b_live[static_cast<size_t>(jp)]) continue;  // zero columns
          const int64_t j = j0 + jp * kGemmNr;
          const int64_t nr = std::min<int64_t>(kGemmNr, n - j);
          for (int64_t ip = 0; ip < ipanels; ++ip) {
            const int64_t i = i0 + ip * kGemmMr;
            const int64_t mr = std::min<int64_t>(kGemmMr, m - i);
            MicroKernel(kc, pack_a + ip * kGemmMr * kc,
                        pack_b + jp * kGemmNr * kc, acc->col(j) + i,
                        acc->rows(), mr, nr);
          }
        }
      }
    }
  }
}

// ---- sparse x dense ------------------------------------------------------

namespace {

/// acc += A_csc · B_dense, both untransposed: scatter A's column l scaled
/// by B(l, j) — the seed formulation with the zero test hoisted to the
/// sparse structure (no per-element branch; B's zeros cost one madd each
/// inside the axpy, A's zeros are absent from the structure).
void SpDnPlain(const CscBlock& a, const DenseBlock& b, DenseBlock* acc) {
  const int64_t k = a.cols();
  const int64_t n = b.cols();
  const auto& rows = a.row_idx();
  const auto& vals = a.values();
  for (int64_t j = 0; j < n; ++j) {
    Scalar* c_col = acc->col(j);
    const Scalar* b_col = b.col(j);
    for (int64_t l = 0; l < k; ++l) {
      const Scalar t = b_col[l];
      if (t == Scalar{0}) continue;  // column-skip over B's zero entries
      const int32_t end = a.ColEnd(l);
      for (int32_t p = a.ColStart(l); p < end; ++p) {
        c_col[rows[p]] += vals[p] * t;
      }
    }
  }
}

/// acc += Aᵀ · B with A stored CSC: the stored arrays read as CSR of the
/// logical A, so C(i, j) is a gather dot product of stored column i against
/// B's column j. No sparse transpose is built.
void SpDnTransA(const CscBlock& a, const DenseBlock& b, DenseBlock* acc) {
  const int64_t m = a.cols();  // effective rows of Aᵀ
  const int64_t n = b.cols();
  const auto& rows = a.row_idx();
  const auto& vals = a.values();
  for (int64_t j = 0; j < n; ++j) {
    Scalar* c_col = acc->col(j);
    const Scalar* b_col = b.col(j);
    for (int64_t i = 0; i < m; ++i) {
      const int32_t end = a.ColEnd(i);
      Scalar sum = 0;
      for (int32_t p = a.ColStart(i); p < end; ++p) {
        sum += vals[p] * b_col[rows[p]];
      }
      c_col[i] += sum;
    }
  }
}

}  // namespace

void GemmSparseDense(const CscBlock& a, const DenseBlock& b, bool trans_a,
                     bool trans_b, DenseBlock* acc, GemmScratch* scratch,
                     GemmStats* stats) {
  const DenseBlock* beff = trans_b ? StageTranspose(b, scratch, stats) : &b;
  if (stats != nullptr) {
    stats->flops += 2.0 * static_cast<double>(a.nnz()) * beff->cols();
  }
  if (trans_a) {
    SpDnTransA(a, *beff, acc);
  } else {
    SpDnPlain(a, *beff, acc);
  }
}

// ---- dense x sparse ------------------------------------------------------

namespace {

/// c_col += Σ_q A(:, rows[q]) · vals[q] over N stored entries of one B
/// column: each C(i, j) is loaded once, gets the N products added in stored
/// order, and is stored once. Every element sees the same roundings in the
/// same order as one axpy per entry (bit-identical under
/// -ffp-contract=off), while C's column is read and written 1/N as often.
template <int N>
void AxpyStored(const DenseBlock& a, const int32_t* rows, const Scalar* vals,
                Scalar* __restrict c_col) {
  const int64_t m = a.rows();
  const Scalar* x[N];
  Scalar t[N];
  for (int q = 0; q < N; ++q) {
    x[q] = a.col(rows[q]);
    t[q] = vals[q];
  }
  for (int64_t i = 0; i < m; ++i) {
    Scalar c = c_col[i];
    for (int q = 0; q < N; ++q) c += x[q][i] * t[q];
    c_col[i] = c;
  }
}

/// acc += A_dense · B_csc: contiguous axpy of A's column l per stored
/// non-zero B(l, j), fused four stored entries per pass over C's column.
void DnSpPlain(const DenseBlock& a, const CscBlock& b, DenseBlock* acc) {
  const int64_t n = b.cols();
  const int32_t* rows = b.row_idx().data();
  const Scalar* vals = b.values().data();
  for (int64_t j = 0; j < n; ++j) {
    Scalar* c_col = acc->col(j);
    int32_t p = b.ColStart(j);
    const int32_t end = b.ColEnd(j);
    for (; p + 4 <= end; p += 4) AxpyStored<4>(a, rows + p, vals + p, c_col);
    switch (end - p) {
      case 3:
        AxpyStored<3>(a, rows + p, vals + p, c_col);
        break;
      case 2:
        AxpyStored<2>(a, rows + p, vals + p, c_col);
        break;
      case 1:
        AxpyStored<1>(a, rows + p, vals + p, c_col);
        break;
      default:
        break;
    }
  }
}

/// acc += Aᵀ · B_csc with A stored dense k x m: C(i, j) gathers stored
/// column i of A at B's column-j row indices.
void DnSpTransA(const DenseBlock& a, const CscBlock& b, DenseBlock* acc) {
  const int64_t m = a.cols();  // effective rows of Aᵀ
  const int64_t n = b.cols();
  const auto& rows = b.row_idx();
  const auto& vals = b.values();
  for (int64_t j = 0; j < n; ++j) {
    Scalar* c_col = acc->col(j);
    const int32_t start = b.ColStart(j);
    const int32_t end = b.ColEnd(j);
    if (start == end) continue;
    for (int64_t i = 0; i < m; ++i) {
      const Scalar* a_col = a.col(i);
      Scalar sum = 0;
      for (int32_t p = start; p < end; ++p) {
        sum += vals[p] * a_col[rows[p]];
      }
      c_col[i] += sum;
    }
  }
}

/// acc += A · Bᵀ with B stored CSC n x k: stored column l of B is row l of
/// the logical Bᵀ... i.e. each stored entry (j, t) in column l contributes
/// t · A(:, l) to C(:, j) — a contiguous axpy per non-zero, no transpose
/// copy.
void DnSpTransB(const DenseBlock& a, const CscBlock& b, DenseBlock* acc) {
  const int64_t m = a.rows();
  const int64_t k = b.cols();  // stored columns = effective inner dim
  const auto& rows = b.row_idx();
  const auto& vals = b.values();
  for (int64_t l = 0; l < k; ++l) {
    const Scalar* a_col = a.col(l);
    for (int32_t p = b.ColStart(l); p < b.ColEnd(l); ++p) {
      Scalar* c_col = acc->col(rows[p]);
      const Scalar t = vals[p];
      for (int64_t i = 0; i < m; ++i) c_col[i] += a_col[i] * t;
    }
  }
}

}  // namespace

void GemmDenseSparse(const DenseBlock& a, const CscBlock& b, bool trans_a,
                     bool trans_b, DenseBlock* acc, GemmScratch* scratch,
                     GemmStats* stats) {
  if (stats != nullptr) {
    stats->flops +=
        2.0 * static_cast<double>(b.nnz()) * (trans_a ? a.cols() : a.rows());
  }
  if (!trans_a && !trans_b) {
    DnSpPlain(a, b, acc);
  } else if (trans_a && !trans_b) {
    // Aᵀ·B_csc: the gather dot strides A once per stored entry of B, so
    // once B carries at least one entry per inner row it is cheaper to pay
    // the one-pass dense transpose and run the contiguous axpy kernel
    // (the ~7× dense_sparse `tn` cliff in BENCH_kernels.json). Very
    // sparse B keeps the gather path: its total work is below one
    // transpose pass over A.
    if (b.nnz() >= a.rows()) {
      DnSpPlain(*StageTranspose(a, scratch, stats), b, acc);
    } else {
      DnSpTransA(a, b, acc);
    }
  } else if (!trans_a && trans_b) {
    DnSpTransB(a, b, acc);
  } else {
    // Aᵀ·Bᵀ: stage Aᵀ once, then the TransB axpy kernel.
    DnSpTransB(*StageTranspose(a, scratch, stats), b, acc);
  }
}

// ---- sparse x sparse -----------------------------------------------------

namespace {

/// acc += A_csc · B_csc, untransposed (seed scatter formulation).
void SpSpPlain(const CscBlock& a, const CscBlock& b, DenseBlock* acc) {
  const int64_t n = b.cols();
  const auto& a_rows = a.row_idx();
  const auto& a_vals = a.values();
  const auto& b_rows = b.row_idx();
  const auto& b_vals = b.values();
  for (int64_t j = 0; j < n; ++j) {
    Scalar* c_col = acc->col(j);
    for (int32_t p = b.ColStart(j); p < b.ColEnd(j); ++p) {
      const int64_t l = b_rows[p];
      const Scalar t = b_vals[p];
      for (int32_t q = a.ColStart(l); q < a.ColEnd(l); ++q) {
        c_col[a_rows[q]] += a_vals[q] * t;
      }
    }
  }
}

/// acc += A · Bᵀ, both CSC: stored entry (j, t) in B's column l pairs with
/// A's column l — scatter a_col(l) · t into C's column j.
void SpSpTransB(const CscBlock& a, const CscBlock& b, DenseBlock* acc) {
  const int64_t k = b.cols();  // stored columns = inner dim
  const auto& a_rows = a.row_idx();
  const auto& a_vals = a.values();
  const auto& b_rows = b.row_idx();
  const auto& b_vals = b.values();
  for (int64_t l = 0; l < k; ++l) {
    const int32_t astart = a.ColStart(l);
    const int32_t aend = a.ColEnd(l);
    if (astart == aend) continue;
    for (int32_t p = b.ColStart(l); p < b.ColEnd(l); ++p) {
      Scalar* c_col = acc->col(b_rows[p]);
      const Scalar t = b_vals[p];
      for (int32_t q = astart; q < aend; ++q) {
        c_col[a_rows[q]] += a_vals[q] * t;
      }
    }
  }
}

double SpSpFlops(const CscBlock& a, const CscBlock& b, bool trans_a,
                 bool trans_b) {
  // Exact madd count: Σ over inner index l of nnz(a slice l)·nnz(b slice l)
  // would need per-slice counts; approximate with the scatter work bound
  // actually performed by each formulation.
  if (!trans_a && trans_b) return 2.0 * b.nnz() * (a.nnz() / std::max<int64_t>(a.cols(), 1));
  return 2.0 * static_cast<double>(a.nnz()) *
         (static_cast<double>(b.nnz()) /
          std::max<int64_t>(trans_b ? b.cols() : b.rows(), 1));
}

}  // namespace

void GemmSparseSparse(const CscBlock& a, const CscBlock& b, bool trans_a,
                      bool trans_b, DenseBlock* acc, GemmStats* stats) {
  if (stats != nullptr) stats->flops += SpSpFlops(a, b, trans_a, trans_b);
  if (!trans_a && !trans_b) {
    SpSpPlain(a, b, acc);
  } else if (trans_a && !trans_b) {
    // Aᵀ·B via Gustavson: A's stored arrays already read as CSR of Aᵀ;
    // row-major access to B needs its CSR form — the one conversion the
    // kernel layer ever materializes, counted as pack time.
    Timer timer;
    const CscBlock converted = b.Transposed();
    if (stats != nullptr) stats->pack_seconds += timer.ElapsedSeconds();
    SpGemmGustavson(a, converted, acc);
  } else if (!trans_a && trans_b) {
    SpSpTransB(a, b, acc);
  } else {
    // Aᵀ·Bᵀ is Gustavson for free: stored A is CSR of Aᵀ and stored B's
    // column l is row l of the logical Bᵀ.
    SpGemmGustavson(a, b, acc);
  }
}

// ---- vectorized elementwise / reductions ---------------------------------

void VecAccumulate(Scalar* dst, const Scalar* src, int64_t n) {
  for (int64_t i = 0; i < n; ++i) dst[i] += src[i];
}

double VecSum(const Scalar* data, int64_t n) {
  // Eight independent chains so the reduction vectorizes without
  // -ffast-math; double accumulators match the seed's precision.
  double acc[8] = {};
  const int64_t n8 = n & ~int64_t{7};
  for (int64_t i = 0; i < n8; i += 8) {
    for (int64_t u = 0; u < 8; ++u) acc[u] += data[i + u];
  }
  for (int64_t i = n8; i < n; ++i) acc[i - n8] += data[i];
  return ((acc[0] + acc[1]) + (acc[2] + acc[3])) +
         ((acc[4] + acc[5]) + (acc[6] + acc[7]));
}

double VecSumSquares(const Scalar* data, int64_t n) {
  double acc[8] = {};
  const int64_t n8 = n & ~int64_t{7};
  for (int64_t i = 0; i < n8; i += 8) {
    for (int64_t u = 0; u < 8; ++u) {
      const double v = data[i + u];
      acc[u] += v * v;
    }
  }
  for (int64_t i = n8; i < n; ++i) {
    const double v = data[i];
    acc[i - n8] += v * v;
  }
  return ((acc[0] + acc[1]) + (acc[2] + acc[3])) +
         ((acc[4] + acc[5]) + (acc[6] + acc[7]));
}

void VecRowAccumulate(Scalar* sums, const Scalar* col, int64_t rows) {
  for (int64_t r = 0; r < rows; ++r) sums[r] += col[r];
}

Scalar VecColSum(const Scalar* col, int64_t rows) {
  Scalar acc[4] = {};
  const int64_t n4 = rows & ~int64_t{3};
  for (int64_t r = 0; r < n4; r += 4) {
    for (int64_t u = 0; u < 4; ++u) acc[u] += col[r + u];
  }
  for (int64_t r = n4; r < rows; ++r) acc[r - n4] += col[r];
  return (acc[0] + acc[1]) + (acc[2] + acc[3]);
}

void VecUnary(Scalar* data, int64_t n, UnaryFnKind fn) {
  // One loop per function: abs and square vectorize; the transcendental
  // loops stay scalar but avoid the per-element switch of the seed.
  switch (fn) {
    case UnaryFnKind::kAbs:
      for (int64_t i = 0; i < n; ++i) data[i] = std::abs(data[i]);
      return;
    case UnaryFnKind::kSquare:
      for (int64_t i = 0; i < n; ++i) data[i] = data[i] * data[i];
      return;
    case UnaryFnKind::kExp:
      for (int64_t i = 0; i < n; ++i) data[i] = std::exp(data[i]);
      return;
    case UnaryFnKind::kLog:
      for (int64_t i = 0; i < n; ++i) data[i] = std::log(data[i]);
      return;
    case UnaryFnKind::kSigmoid:
      for (int64_t i = 0; i < n; ++i) {
        data[i] = 1.0f / (1.0f + std::exp(-data[i]));
      }
      return;
  }
}

}  // namespace dmac
