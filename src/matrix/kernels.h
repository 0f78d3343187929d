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
// Packing scratch comes from a caller-supplied allocator — the local engine
// installs a BufferPool-backed one so the governor's memory accounting sees
// packing buffers like any other pooled block. Without an allocator the
// scratch falls back to plain heap blocks (tests, benchmarks).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "matrix/csc_block.h"
#include "matrix/dense_block.h"
#include "matrix/unary_fn.h"

namespace dmac {

class ThreadPool;

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

/// Dense multiplies below this flop count (2·m·n·k) always run the serial
/// macro-kernel: tile-task dispatch costs more than it buys on small
/// blocks (docs/performance.md).
inline constexpr int64_t kGemmParallelMinFlops = 4'000'000;

/// Per-call kernel accounting, surfaced as engine.gemm_flops,
/// engine.gemm.pack.seconds and engine.gemm.tasks (docs/observability.md).
struct GemmStats {
  double flops = 0;         // 2*m*n*k per dense GEMM, 2 per sparse madd
  double pack_seconds = 0;  // wall time spent packing/staging/converting
  double tasks = 0;         // parallel tile tasks run (0 on the serial path)
};

/// Intra-kernel parallelism context for the dense GEMM macro-kernel.
///
/// The dense kernel decomposes each Kc slice into independent
/// (Mc-row-panel × column-chunk) tile tasks that all read the same packed
/// operand panels and write disjoint accumulator tiles, then runs them via
/// ParallelFor (common/parallel_for.h): the calling thread participates, so
/// sharing `pool` with the engine's own block tasks cannot deadlock. The
/// Kc accumulation loop stays serial, which keeps the threaded path
/// bit-identical to the serial one.
struct GemmParallel {
  /// Pool the tile tasks fan out over; null runs the serial kernel.
  ThreadPool* pool = nullptr;
  /// Cooperative cancel flag polled at every tile-task boundary (may be
  /// null). Once it reads true the kernel stops claiming tiles and returns
  /// kCancelled.
  const std::atomic<bool>* abandon = nullptr;
  /// Upper bound on concurrent tile workers *including* the calling
  /// thread; values <= 1 run the serial kernel. The engine passes the pool
  /// width + 1.
  int max_workers = 0;
  /// Optional per-tile-task wrapper (must invoke `body` exactly once); the
  /// engine installs one that records a "gemm-tile" trace span so the
  /// matrix layer stays free of an obs dependency. Called concurrently.
  std::function<void(const std::function<void()>&)> wrap_task;

  /// True when the configuration can actually fan out.
  bool Enabled() const { return pool != nullptr && max_workers > 1; }
};

/// Reusable packing/staging scratch for the multiply kernels. One instance
/// serves one task (any number of sequential kernel calls); not
/// thread-safe. Buffers are acquired lazily and returned on destruction.
class GemmScratch {
 public:
  using AcquireFn = std::function<Result<DenseBlock>(int64_t, int64_t)>;
  using ReleaseFn = std::function<void(DenseBlock)>;

  /// Heap-backed scratch (tests, benchmarks, standalone kernel use).
  GemmScratch() = default;

  /// Scratch drawing from an external pool (the engine passes
  /// BufferPool::Acquire/Release so packing memory is budget-charged).
  GemmScratch(AcquireFn acquire, ReleaseFn release)
      : acquire_(std::move(acquire)), release_(std::move(release)) {}

  ~GemmScratch();

  GemmScratch(const GemmScratch&) = delete;
  GemmScratch& operator=(const GemmScratch&) = delete;

  /// Movable so factories can hand out configured scratches; the source is
  /// left empty (its destructor releases nothing).
  GemmScratch(GemmScratch&& other) noexcept
      : acquire_(std::move(other.acquire_)),
        release_(std::move(other.release_)),
        panel_a_(std::move(other.panel_a_)),
        panel_b_(std::move(other.panel_b_)),
        staging_(std::move(other.staging_)),
        has_a_(std::exchange(other.has_a_, false)),
        has_b_(std::exchange(other.has_b_, false)),
        has_staging_(std::exchange(other.has_staging_, false)) {}

  /// Packed A panel of at least `elems` floats (≤ kGemmMc·kGemmKc; sized to
  /// the operands so small multiplies charge small buffers against a
  /// governed budget). Grows on demand, never shrinks.
  Result<Scalar*> PanelA(int64_t elems);
  /// Packed B panel of at least `elems` floats (≤ kGemmKc·kGemmNc).
  Result<Scalar*> PanelB(int64_t elems);
  /// Transpose staging for mixed dense/sparse flagged multiplies: a dense
  /// rows x cols buffer. Contents are overwritten by the caller; reacquired
  /// when the requested shape grows.
  Result<DenseBlock*> Staging(int64_t rows, int64_t cols);

 private:
  Result<DenseBlock> AcquireBlock(int64_t rows, int64_t cols);
  void ReleaseBlock(DenseBlock block);

  AcquireFn acquire_;
  ReleaseFn release_;
  DenseBlock panel_a_;
  DenseBlock panel_b_;
  DenseBlock staging_;
  bool has_a_ = false;
  bool has_b_ = false;
  bool has_staging_ = false;
};

// ---- multiply kernels ----------------------------------------------------
// All kernels accumulate op(A)·op(B) into a dense accumulator whose shape
// must match the *effective* (post-transpose) operand shapes; dimension
// checking lives in block_ops.cc. `scratch` may be null (a local heap
// scratch is used); `stats` may be null (no accounting). The only failure
// mode is scratch acquisition (kResourceExhausted under a governed memory
// budget).

/// acc += op(A)·op(B) over dense blocks: packed panels + micro-kernel. The
/// packing stage absorbs the transposes, so all four flag combinations run
/// the same micro-kernel and produce bit-identical results. Entirely-zero
/// packed micro-panels are skipped (the column-skip prefilter for
/// dense-but-sparse-ish operands); zero terms never change a finite sum.
///
/// When `par` is enabled and the multiply is at least
/// kGemmParallelMinFlops, each Kc slice's tile tasks fan out over
/// `par->pool` — bit-identical to the serial path (see GemmParallel). A
/// fired `par->abandon` flag returns kCancelled, possibly mid-product.
[[nodiscard]] Status GemmDense(const DenseBlock& a, const DenseBlock& b, bool trans_a,
                 bool trans_b, DenseBlock* acc, GemmScratch* scratch,
                 GemmStats* stats, const GemmParallel* par = nullptr);

/// acc += op(A_csc)·op(B_dense). TransA reinterprets the CSC arrays as CSR
/// of the logical A (a per-output-element gather dot product); TransB
/// stages Bᵀ once through the scratch.
[[nodiscard]] Status GemmSparseDense(const CscBlock& a, const DenseBlock& b, bool trans_a,
                       bool trans_b, DenseBlock* acc, GemmScratch* scratch,
                       GemmStats* stats);

/// acc += op(A_dense)·op(B_csc). TransB walks B's stored columns as the
/// logical B's rows (contiguous axpy per stored entry); TransA stages Aᵀ
/// through the scratch when B carries enough non-zeros to amortize the
/// transpose (then runs the contiguous axpy kernel), falling back to a
/// per-element gather dot for very sparse B.
[[nodiscard]] Status GemmDenseSparse(const DenseBlock& a, const CscBlock& b, bool trans_a,
                       bool trans_b, DenseBlock* acc, GemmScratch* scratch,
                       GemmStats* stats);

/// acc += op(A_csc)·op(B_csc) with a dense accumulator. The transposed
/// cases run Gustavson row-major SpGEMM over CSR views (matrix/spgemm.h):
/// a CSC block under TransA *is* a CSR view for free, and the TransA-only
/// case needs CSR of B — pass a precomputed `b_csr` (the structural
/// transpose of `b`, e.g. from a FormatCache) to skip the one-time CSC→CSR
/// conversion this kernel otherwise performs inline (the conversion is
/// counted as pack time). `b_csr` is ignored by the other flag cases.
[[nodiscard]] Status GemmSparseSparse(const CscBlock& a, const CscBlock& b, bool trans_a,
                        bool trans_b, DenseBlock* acc, GemmScratch* scratch,
                        GemmStats* stats, const CscBlock* b_csr = nullptr);

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
