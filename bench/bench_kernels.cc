// Kernel benchmark: GFLOP/s and bytes/s for every multiply kernel over
// (representation, transpose-flags, block-size), plus the vectorized
// reduction/elementwise primitives, plus the seed's
// pre-packing dense GEMM loop as the speedup baseline
// (tests/matrix/kernel_reference.h keeps the same loop as the
// differential-test reference).
//
// Emits BENCH_kernels.json (override with --out=PATH) with one entry per
// measured configuration and one summary at the default block size:
// `dense_gemm_speedup_vs_seed` (packed vs seed loop, the packed-layer
// acceptance number). Every kernel runs on the calling thread, so each
// entry records `"threads": 1` (the field CalibrationTable matches on).
// `--quick` or DMAC_BENCH_SCALE>1 trims the size sweep for CI smoke runs.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/logging.h"
#include "common/timer.h"
#include "matrix/block.h"
#include "matrix/block_ops.h"
#include "matrix/kernels.h"
#include "matrix/unary_fn.h"

namespace dmac {
namespace bench {
namespace {

/// The block side the summary speedup is quoted at: the mid-point of the
/// sweep and the side ChooseProgramBlockSize lands on for the paper-scale
/// inputs once governed budgets are in play.
constexpr int64_t kDefaultBs = 256;

constexpr double kSparsity = 0.02;

struct Entry {
  std::string kind;            // "gemm" | "gemm_seed_reference" | "vec"
  std::string representation;  // e.g. "dense_dense", "sum_squares"
  std::string trans;           // "nn" | "tn" | "nt" | "tt" | "" for vec
  int64_t block_size = 0;
  double seconds = 0;          // per call
  double gflops = 0;
  double bytes_per_second = 0;
};

double GflopsOrZero(double flops, double seconds) {
  return seconds > 0 ? flops / seconds / 1e9 : 0;
}

/// Times `fn` (one kernel call) adaptively: repeat until the total wall
/// time crosses a floor so fast configs are not quantization noise, and
/// report the mean per-call seconds.
template <typename Fn>
double TimeCall(Fn&& fn, double min_seconds) {
  // Warm-up call: faults the operands in and grows the packing scratch so
  // the measured calls see a steady state.
  fn();
  int calls = 0;
  Timer timer;
  do {
    fn();
    ++calls;
  } while (timer.ElapsedSeconds() < min_seconds && calls < 1000);
  return timer.ElapsedSeconds() / calls;
}

int64_t BlockBytes(const Block& b) {
  if (b.IsDense()) return b.rows() * b.cols() * sizeof(Scalar);
  return b.sparse().nnz() * (sizeof(Scalar) + sizeof(int32_t)) +
         (b.cols() + 1) * sizeof(int32_t);
}

/// A stored operand for op(X) of effective shape rows×cols: stored
/// transposed when the flag is set so every flag combination multiplies
/// the same effective matrices.
Block MakeOperand(int64_t rows, int64_t cols, bool trans, bool sparse,
                  uint64_t seed) {
  const int64_t r = trans ? cols : rows;
  const int64_t c = trans ? rows : cols;
  return sparse ? RandomSparseBlock(r, c, kSparsity, seed)
                : RandomDenseBlock(r, c, seed);
}

Entry BenchGemm(bool a_sparse, bool b_sparse, bool ta, bool tb, int64_t bs,
                double min_seconds) {
  Block a = MakeOperand(bs, bs, ta, a_sparse, 1);
  Block b = MakeOperand(bs, bs, tb, b_sparse, 2);
  DenseBlock acc(bs, bs);
  GemmScratch scratch;  // reused across calls, as the engine reuses its pool

  GemmStats stats;
  Status st = MultiplyAccumulate(a, b, ta, tb, &acc, &scratch, &stats);
  DMAC_CHECK(st.ok()) << st.ToString();
  const double flops_per_call = static_cast<double>(stats.flops);

  const double seconds = TimeCall(
      [&] {
        GemmStats s;
        Status call = MultiplyAccumulate(a, b, ta, tb, &acc, &scratch, &s);
        DMAC_CHECK(call.ok()) << call.ToString();
      },
      min_seconds);

  Entry e;
  e.kind = "gemm";
  e.representation = std::string(a_sparse ? "sparse" : "dense") + "_" +
                     (b_sparse ? "sparse" : "dense");
  e.trans = std::string(ta ? "t" : "n") + (tb ? "t" : "n");
  e.block_size = bs;
  e.seconds = seconds;
  e.gflops = GflopsOrZero(flops_per_call, seconds);
  const double bytes =
      BlockBytes(a) + BlockBytes(b) + 2.0 * bs * bs * sizeof(Scalar);
  e.bytes_per_second = bytes / seconds;
  return e;
}

/// The seed's dense GEMM loop, verbatim (tests/matrix/kernel_reference.h):
/// column-major jli ordering, contiguous axpy over A's column, per-element
/// zero test on B. This is the baseline the packed kernel is measured
/// against.
void SeedGemmDenseDense(const DenseBlock& a, const DenseBlock& b,
                        DenseBlock* acc) {
  const int64_t m = a.rows();
  const int64_t k = a.cols();
  const int64_t n = b.cols();
  for (int64_t j = 0; j < n; ++j) {
    Scalar* c_col = acc->col(j);
    const Scalar* b_col = b.col(j);
    for (int64_t l = 0; l < k; ++l) {
      const Scalar t = b_col[l];
      if (t == Scalar{0}) continue;
      const Scalar* a_col = a.col(l);
      for (int64_t i = 0; i < m; ++i) c_col[i] += a_col[i] * t;
    }
  }
}

Entry BenchSeedGemm(int64_t bs, double min_seconds) {
  Block a = RandomDenseBlock(bs, bs, 1);
  Block b = RandomDenseBlock(bs, bs, 2);
  DenseBlock acc(bs, bs);
  const double seconds = TimeCall(
      [&] { SeedGemmDenseDense(a.dense(), b.dense(), &acc); }, min_seconds);
  Entry e;
  e.kind = "gemm_seed_reference";
  e.representation = "dense_dense";
  e.trans = "nn";
  e.block_size = bs;
  e.seconds = seconds;
  e.gflops = GflopsOrZero(2.0 * bs * bs * bs, seconds);
  e.bytes_per_second = 4.0 * bs * bs * sizeof(Scalar) / seconds;
  return e;
}

std::vector<Entry> BenchVecPrimitives(int64_t bs, double min_seconds) {
  Block dense = RandomDenseBlock(bs, bs, 3);
  DenseBlock acc(bs, bs);
  const double block_bytes = static_cast<double>(bs) * bs * sizeof(Scalar);

  struct VecCase {
    const char* name;
    double bytes;   // streamed per call
    double flops;   // per call
    std::function<void()> run;
  };
  const VecCase cases[] = {
      {"add_accumulate", 3 * block_bytes, 1.0 * bs * bs,
       [&] { DMAC_CHECK(AddAccumulate(dense, &acc).ok()); }},
      {"cell_unary_abs", 2 * block_bytes, 1.0 * bs * bs,
       [&] {
         auto r = Cellwise({.kind = CellOp::kUnary, .fn = UnaryFnKind::kAbs},
                           dense);
         DMAC_CHECK(r.ok() && r->rows() == bs);
       }},
      {"sum", block_bytes, 1.0 * bs * bs,
       [&] { volatile double s = Sum(dense); (void)s; }},
      {"sum_squares", block_bytes, 2.0 * bs * bs,
       [&] { volatile double s = SumSquares(dense); (void)s; }},
      {"row_sums", block_bytes, 1.0 * bs * bs,
       [&] {
         DenseBlock r = RowSums(dense);
         DMAC_CHECK(r.rows() == bs);
       }},
      {"col_sums", block_bytes, 1.0 * bs * bs,
       [&] {
         DenseBlock r = ColSums(dense);
         DMAC_CHECK(r.cols() == bs);
       }},
  };

  std::vector<Entry> out;
  for (const VecCase& c : cases) {
    const double seconds = TimeCall(c.run, min_seconds);
    Entry e;
    e.kind = "vec";
    e.representation = c.name;
    e.block_size = bs;
    e.seconds = seconds;
    e.gflops = GflopsOrZero(c.flops, seconds);
    e.bytes_per_second = c.bytes / seconds;
    out.push_back(e);
  }
  return out;
}

void AppendJson(std::string* out, const Entry& e) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "    {\"kind\": \"%s\", \"representation\": \"%s\", "
                "\"trans\": \"%s\", \"block_size\": %lld, \"threads\": 1, "
                "\"seconds_per_call\": %.9f, \"gflops\": %.3f, "
                "\"bytes_per_second\": %.3e}",
                e.kind.c_str(), e.representation.c_str(), e.trans.c_str(),
                static_cast<long long>(e.block_size), e.seconds, e.gflops,
                e.bytes_per_second);
  *out += buf;
}

int Main(int argc, char** argv) {
  std::string out_path = "BENCH_kernels.json";
  bool quick = ScaleFactor(1.0) > 1.0;  // CI smoke sets DMAC_BENCH_SCALE=8
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--out=PATH]\n", argv[0]);
      return 2;
    }
  }

  const double min_seconds = quick ? 0.01 : 0.1;
  std::vector<int64_t> sizes = {64, kDefaultBs, 1024};
  if (quick) sizes = {64, kDefaultBs};

  PrintHeader("Kernel benchmark (docs/kernels.md)");
  std::printf("%-20s %-14s %-6s %6s | %10s %12s\n", "kind",
              "representation", "trans", "bs", "GFLOP/s", "GB/s");

  std::vector<Entry> entries;
  auto emit = [&](const Entry& e) {
    entries.push_back(e);
    std::printf("%-20s %-14s %-6s %6lld | %10.2f %12.2f\n", e.kind.c_str(),
                e.representation.c_str(), e.trans.c_str(),
                static_cast<long long>(e.block_size), e.gflops,
                e.bytes_per_second / 1e9);
  };

  for (int64_t bs : sizes) {
    emit(BenchSeedGemm(bs, min_seconds));
    for (bool a_sparse : {false, true}) {
      for (bool b_sparse : {false, true}) {
        for (bool ta : {false, true}) {
          for (bool tb : {false, true}) {
            emit(BenchGemm(a_sparse, b_sparse, ta, tb, bs, min_seconds));
          }
        }
      }
    }
    for (const Entry& e : BenchVecPrimitives(bs, min_seconds)) emit(e);
  }

  // Acceptance summary: packed dense GEMM vs the seed loop at the default
  // block size.
  double seed_gflops = 0, packed_gflops = 0;
  for (const Entry& e : entries) {
    if (e.block_size != kDefaultBs || e.representation != "dense_dense" ||
        e.trans != "nn") {
      continue;
    }
    if (e.kind == "gemm_seed_reference") seed_gflops = e.gflops;
    if (e.kind == "gemm") packed_gflops = e.gflops;
  }
  const double speedup = seed_gflops > 0 ? packed_gflops / seed_gflops : 0;
  std::printf("\ndense GEMM @ bs=%lld: packed %.2f GFLOP/s vs seed %.2f "
              "GFLOP/s -> %.2fx\n",
              static_cast<long long>(kDefaultBs), packed_gflops, seed_gflops,
              speedup);

  std::string json = "{\n";
  json += "  \"schema\": \"dmac-kernel-bench-v2\",\n";
  json += "  \"default_block_size\": " + std::to_string(kDefaultBs) + ",\n";
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "  \"dense_gemm_speedup_vs_seed\": %.3f,\n", speedup);
  json += buf;
  json += "  \"entries\": [\n";
  for (size_t i = 0; i < entries.size(); ++i) {
    AppendJson(&json, entries[i]);
    json += (i + 1 < entries.size()) ? ",\n" : "\n";
  }
  json += "  ]\n}\n";

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("wrote %s (%zu entries)\n", out_path.c_str(), entries.size());
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace dmac

int main(int argc, char** argv) { return dmac::bench::Main(argc, argv); }
