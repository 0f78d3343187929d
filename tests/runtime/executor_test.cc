// End-to-end executor tests: distributed execution must agree with the
// single-machine interpreter on every program, across worker counts, block
// sizes, planner modes, and local execution modes.
#include "runtime/executor.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>

#include "../fault/fault_test_util.h"
#include "apps/local_interpreter.h"
#include "apps/runner.h"
#include "data/synthetic.h"
#include "fault/checksum.h"
#include "governor/memory_budget.h"
#include "lang/program.h"
#include "matrix/mem_tracker.h"
#include "obs/trace.h"

namespace dmac {
namespace {

constexpr int64_t kBs = 16;

/// The five binary operators of the DSL.
enum class BinOp { kMultiply, kAdd, kSubtract, kCellMultiply, kCellDivide };

Program SingleOpProgram(BinOp op, Shape a_shape, Shape b_shape,
                        double a_sparsity, double b_sparsity) {
  ProgramBuilder pb;
  Mat a = pb.Load("A", a_shape, a_sparsity);
  Mat b = pb.Load("B", b_shape, b_sparsity);
  Mat c = pb.Var("C");
  switch (op) {
    case BinOp::kMultiply:
      pb.Assign(c, a.mm(b));
      break;
    case BinOp::kAdd:
      pb.Assign(c, a + b);
      break;
    case BinOp::kSubtract:
      pb.Assign(c, a - b);
      break;
    case BinOp::kCellMultiply:
      pb.Assign(c, a * b);
      break;
    case BinOp::kCellDivide:
      pb.Assign(c, a / b);
      break;
  }
  pb.Output(c);
  return pb.Build();
}

/// Runs distributed and local, returns max |difference| proxy via
/// ApproxEqual.
void ExpectDistributedMatchesLocal(const Program& p, const Bindings& bindings,
                                   const RunConfig& config,
                                   double tol = 5e-2) {
  auto outcome = RunProgram(p, bindings, config);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  auto local = InterpretLocally(p, bindings, kBs, config.seed);
  ASSERT_TRUE(local.ok()) << local.status();
  ASSERT_EQ(outcome->result.matrices.size(), local->matrices.size());
  for (auto& [name, dist_m] : outcome->result.matrices) {
    ASSERT_TRUE(local->matrices.count(name)) << name;
    EXPECT_TRUE(dist_m.ApproxEqual(local->matrices.at(name), tol))
        << "matrix " << name << " differs";
  }
  for (auto& [name, value] : outcome->result.scalars) {
    ASSERT_TRUE(local->scalars.count(name)) << name;
    const double expected = local->scalars.at(name);
    EXPECT_NEAR(value, expected, std::abs(expected) * 1e-3 + 1e-3) << name;
  }
}

// ---- every binary operator, every planner mode ---------------------------

class OperatorExecutionTest
    : public ::testing::TestWithParam<std::tuple<BinOp, bool>> {};

TEST_P(OperatorExecutionTest, DistributedMatchesLocal) {
  const auto [op, exploit] = GetParam();
  const Shape a_shape = op == BinOp::kMultiply ? Shape{50, 40}
                                                   : Shape{50, 40};
  const Shape b_shape = op == BinOp::kMultiply ? Shape{40, 30}
                                                   : Shape{50, 40};
  LocalMatrix a = SyntheticSparse(a_shape.rows, a_shape.cols, 0.3, kBs, 11);
  // Dense, strictly-positive B avoids division blowups.
  LocalMatrix b =
      SyntheticDense(b_shape.rows, b_shape.cols, kBs, 12).ScalarAdd(0.5f);
  Bindings bindings{{"A", &a}, {"B", &b}};

  RunConfig config;
  config.num_workers = 3;
  config.block_size = kBs;
  config.exploit_dependencies = exploit;
  ExpectDistributedMatchesLocal(
      SingleOpProgram(op, a_shape, b_shape, 0.3, 1.0), bindings, config);
}

std::string OperatorCaseName(
    const ::testing::TestParamInfo<std::tuple<BinOp, bool>>& info) {
  std::string name;
  switch (std::get<0>(info.param)) {
    case BinOp::kMultiply:
      name = "Multiply";
      break;
    case BinOp::kAdd:
      name = "Add";
      break;
    case BinOp::kSubtract:
      name = "Subtract";
      break;
    case BinOp::kCellMultiply:
      name = "CellMultiply";
      break;
    case BinOp::kCellDivide:
      name = "CellDivide";
      break;
  }
  return name + (std::get<1>(info.param) ? "Dmac" : "SystemMl");
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, OperatorExecutionTest,
    ::testing::Combine(
        ::testing::Values(BinOp::kMultiply, BinOp::kAdd,
                          BinOp::kSubtract, BinOp::kCellMultiply,
                          BinOp::kCellDivide),
        ::testing::Bool()),
    OperatorCaseName);

// ---- every multiplication strategy ----------------------------------------

TEST(ExecutorTest, TransposedOperandsMultiply) {
  // C = A^T * A exercises transpose dependencies end to end.
  ProgramBuilder pb;
  Mat a = pb.Load("A", {60, 20}, 0.4);
  Mat c = pb.Var("C");
  pb.Assign(c, a.t().mm(a));
  pb.Output(c);
  LocalMatrix adata = SyntheticSparse(60, 20, 0.4, kBs, 3);
  Bindings bindings{{"A", &adata}};
  RunConfig config;
  config.num_workers = 4;
  config.block_size = kBs;
  ExpectDistributedMatchesLocal(pb.Build(), bindings, config);
}

TEST(ExecutorTest, ChainedProgramWithScalars) {
  ProgramBuilder pb;
  Mat a = pb.Load("A", {40, 40}, 0.5);
  Scl total = pb.ScalarVar("total", 0.0);
  pb.Assign(total, a.Sum());
  Mat c = pb.Var("C");
  pb.Assign(c, (a.mm(a) + a) * 0.5);
  Scl norm = pb.ScalarVar("norm", 0.0);
  pb.Assign(norm, (c * c).Sum().Sqrt());
  pb.Output(c);
  pb.OutputScalar(total);
  pb.OutputScalar(norm);
  LocalMatrix adata = SyntheticSparse(40, 40, 0.5, kBs, 5);
  Bindings bindings{{"A", &adata}};
  RunConfig config;
  config.num_workers = 2;
  config.block_size = kBs;
  ExpectDistributedMatchesLocal(pb.Build(), bindings, config);
}

// ---- worker-count / block-size sweep --------------------------------------

class ExecutionSweepTest
    : public ::testing::TestWithParam<std::tuple<int, int64_t>> {};

TEST_P(ExecutionSweepTest, IterativeProgramMatchesLocal) {
  const auto [workers, block_size] = GetParam();
  ProgramBuilder pb;
  Mat v = pb.Load("V", {48, 36}, 0.2);
  Mat w = pb.Random("W", {48, 6});
  Mat h = pb.Random("H", {6, 36});
  for (int i = 0; i < 2; ++i) {
    pb.Assign(h, h * (w.t().mm(v)) / (w.t().mm(w).mm(h)));
    pb.Assign(w, w * (v.mm(h.t())) / (w.mm(h).mm(h.t())));
  }
  pb.Output(w);
  pb.Output(h);
  Program p = pb.Build();

  LocalMatrix vdata = SyntheticSparse(48, 36, 0.2, block_size, 17);
  Bindings bindings{{"V", &vdata}};
  RunConfig config;
  config.num_workers = workers;
  config.block_size = block_size;

  auto outcome = RunProgram(p, bindings, config);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  auto local = InterpretLocally(p, bindings, block_size, config.seed);
  ASSERT_TRUE(local.ok()) << local.status();
  EXPECT_TRUE(outcome->result.matrices.at("W").ApproxEqual(
      local->matrices.at("W"), 0.05));
  EXPECT_TRUE(outcome->result.matrices.at("H").ApproxEqual(
      local->matrices.at("H"), 0.05));
}

INSTANTIATE_TEST_SUITE_P(
    WorkersAndBlocks, ExecutionSweepTest,
    ::testing::Combine(::testing::Values(1, 2, 4, 7),
                       ::testing::Values<int64_t>(8, 16, 48)),
    [](const auto& info) {
      return "W" + std::to_string(std::get<0>(info.param)) + "B" +
             std::to_string(std::get<1>(info.param));
    });

// ---- local execution modes --------------------------------------------------

TEST(ExecutorTest, BufferModeProducesSameResults) {
  ProgramBuilder pb;
  Mat a = pb.Load("A", {40, 40}, 0.3);
  Mat c = pb.Var("C");
  pb.Assign(c, a.mm(a));
  pb.Output(c);
  Program p = pb.Build();
  LocalMatrix adata = SyntheticSparse(40, 40, 0.3, kBs, 9);
  Bindings bindings{{"A", &adata}};

  RunConfig inplace;
  inplace.block_size = kBs;
  RunConfig buffered = inplace;
  buffered.local_mode = LocalMode::kBuffer;

  auto r1 = RunProgram(p, bindings, inplace);
  auto r2 = RunProgram(p, bindings, buffered);
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_TRUE(r1->result.matrices.at("C").ApproxEqual(
      r2->result.matrices.at("C"), 1e-3));
}

// ---- accounting invariants ---------------------------------------------------

TEST(ExecutorTest, SingleWorkerMovesNoShuffleBytes) {
  // With one worker everything is local: partition/broadcast move nothing
  // (loads still count as the initial read).
  ProgramBuilder pb;
  Mat a = pb.Load("A", {32, 32}, 0.5);
  Mat c = pb.Var("C");
  pb.Assign(c, a.mm(a));
  pb.Output(c);
  LocalMatrix adata = SyntheticSparse(32, 32, 0.5, kBs, 2);
  Bindings bindings{{"A", &adata}};
  RunConfig config;
  config.num_workers = 1;
  config.block_size = kBs;
  auto outcome = RunProgram(pb.Build(), bindings, config);
  ASSERT_TRUE(outcome.ok());
  const ExecStats& stats = outcome->result.stats;
  // Only the load's initial distribution counts.
  double load_bytes = 0;
  for (const PlanStep& s : outcome->plan.steps) {
    if (s.kind == StepKind::kLoad) load_bytes += s.comm_bytes;
  }
  EXPECT_LE(stats.comm_bytes(), load_bytes + 64);
}

TEST(ExecutorTest, DmacMovesFewerBytesThanSystemMl) {
  ProgramBuilder pb;
  Mat v = pb.Load("V", {64, 48}, 0.2);
  Mat w = pb.Random("W", {64, 4});
  Mat h = pb.Random("H", {4, 48});
  for (int i = 0; i < 3; ++i) {
    pb.Assign(h, h * (w.t().mm(v)) / (w.t().mm(w).mm(h)));
    pb.Assign(w, w * (v.mm(h.t())) / (w.mm(h).mm(h.t())));
  }
  pb.Output(w);
  Program p = pb.Build();
  LocalMatrix vdata = SyntheticSparse(64, 48, 0.2, kBs, 23);
  Bindings bindings{{"V", &vdata}};

  RunConfig dmac_cfg;
  dmac_cfg.block_size = kBs;
  RunConfig sysml_cfg = dmac_cfg;
  sysml_cfg.exploit_dependencies = false;

  auto dmac_run = RunProgram(p, bindings, dmac_cfg);
  auto sysml_run = RunProgram(p, bindings, sysml_cfg);
  ASSERT_TRUE(dmac_run.ok() && sysml_run.ok());
  EXPECT_LT(dmac_run->result.stats.comm_bytes(),
            sysml_run->result.stats.comm_bytes());
  EXPECT_LT(dmac_run->result.stats.comm_events(),
            sysml_run->result.stats.comm_events());
}

TEST(ExecutorTest, StatsTrackPerStageWorkerTime) {
  ProgramBuilder pb;
  Mat a = pb.Load("A", {64, 64}, 1.0);
  Mat c = pb.Var("C");
  pb.Assign(c, a.mm(a));
  pb.Output(c);
  LocalMatrix adata = SyntheticDense(64, 64, kBs, 2);
  Bindings bindings{{"A", &adata}};
  RunConfig config;
  config.num_workers = 2;
  config.block_size = kBs;
  auto outcome = RunProgram(pb.Build(), bindings, config);
  ASSERT_TRUE(outcome.ok());
  EXPECT_FALSE(outcome->result.stats.stage_worker_seconds.empty());
  EXPECT_GT(outcome->result.stats.ComputeWallSeconds(), 0);
  EXPECT_GT(outcome->result.stats.peak_memory_bytes, 0);
}

TEST(ExecutorTest, MissingBindingReported) {
  ProgramBuilder pb;
  Mat a = pb.Load("A", {8, 8}, 1.0);
  Mat c = pb.Var("C");
  pb.Assign(c, a.mm(a));
  pb.Output(c);
  RunConfig config;
  config.block_size = 8;
  Bindings empty;
  auto outcome = RunProgram(pb.Build(), empty, config);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kNotFound);
}

TEST(ExecutorTest, BindingShapeMismatchReported) {
  ProgramBuilder pb;
  Mat a = pb.Load("A", {8, 8}, 1.0);
  Mat c = pb.Var("C");
  pb.Assign(c, a.mm(a));
  pb.Output(c);
  LocalMatrix wrong = SyntheticDense(9, 9, 8, 1);
  Bindings bindings{{"A", &wrong}};
  RunConfig config;
  config.block_size = 8;
  auto outcome = RunProgram(pb.Build(), bindings, config);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kDimensionMismatch);
}

TEST(ExecutorTest, MismatchedBindingBlockSizeReported) {
  ProgramBuilder pb;
  Mat a = pb.Load("A", {8, 8}, 1.0);
  Mat b = pb.Load("B", {8, 8}, 1.0);
  Mat c = pb.Var("C");
  pb.Assign(c, a.mm(b));
  pb.Output(c);
  LocalMatrix adata = SyntheticDense(8, 8, 8, 1);
  LocalMatrix bdata = SyntheticDense(8, 8, 4, 2);  // different block size
  Bindings bindings{{"A", &adata}, {"B", &bdata}};
  RunConfig config;
  auto outcome = RunProgram(pb.Build(), bindings, config);
  EXPECT_FALSE(outcome.ok());
}

TEST(ExecutorTest, InvalidClusterOptionsAreRejectedBeforeAnyWork) {
  ProgramBuilder pb;
  Mat a = pb.Load("A", {8, 8}, 1.0);
  Mat c = pb.Var("C");
  pb.Assign(c, a.mm(a));
  pb.Output(c);
  RunConfig config;
  config.block_size = 8;
  auto plan = PlanProgram(pb.Build(), config);
  ASSERT_TRUE(plan.ok()) << plan.status();
  LocalMatrix adata = SyntheticDense(8, 8, 8, 1);
  Bindings bindings{{"A", &adata}};
  for (auto [workers, threads, block] :
       {std::tuple{0, 2, int64_t{8}}, std::tuple{-2, 2, int64_t{8}},
        std::tuple{4, 0, int64_t{8}}, std::tuple{4, -1, int64_t{8}},
        std::tuple{4, 2, int64_t{-5}}}) {
    ExecutorOptions opts;
    opts.num_workers = workers;
    opts.threads_per_worker = threads;
    opts.block_size = block;
    auto result = Executor(opts).Execute(*plan, bindings);
    ASSERT_FALSE(result.ok()) << workers << " " << threads << " " << block;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
        << result.status();
  }
}

// ---- block lifetime ------------------------------------------------------

/// Expects `got` to hold exactly the bits of `want`, block for block.
void ExpectSameBits(const LocalMatrix& want, const LocalMatrix& got,
                    const std::string& name) {
  ASSERT_EQ(want.rows(), got.rows()) << name;
  ASSERT_EQ(want.cols(), got.cols()) << name;
  ASSERT_EQ(want.block_size(), got.block_size()) << name;
  for (int64_t bi = 0; bi < want.grid().block_rows(); ++bi) {
    for (int64_t bj = 0; bj < want.grid().block_cols(); ++bj) {
      EXPECT_EQ(BlockChecksum(want.BlockAt(bi, bj)),
                BlockChecksum(got.BlockAt(bi, bj)))
          << name << " block (" << bi << "," << bj << ")";
    }
  }
}

constexpr int kChainProducts = 5;
constexpr int64_t kChainSide = 64;
/// Bytes of one dense kChainSide x kChainSide product.
constexpr int64_t kChainMatrixBytes =
    kChainSide * kChainSide * static_cast<int64_t>(sizeof(Scalar));

/// B1 = A·A, then B(i+1) = B(i)·A: dense products, each but the last an
/// intermediate whose only consumer is the next multiply.
Program MultiplyChainProgram() {
  ProgramBuilder pb;
  Mat a = pb.Load("A", {kChainSide, kChainSide}, 1.0);
  Mat prev = a;
  for (int i = 1; i <= kChainProducts; ++i) {
    Mat b = pb.Var("B" + std::to_string(i));
    pb.Assign(b, prev.mm(a));
    prev = b;
  }
  pb.Output(prev);
  return pb.Build();
}

RunConfig ChainConfig() {
  RunConfig config;
  config.num_workers = 2;
  config.block_size = kBs;
  return config;
}

TEST(ExecutorTest, CleanRunFreesEachIntermediateAfterItsLastConsumer) {
  const Program p = MultiplyChainProgram();
  LocalMatrix adata = SyntheticDense(kChainSide, kChainSide, kBs, 7);
  Bindings bindings{{"A", &adata}};
  const int64_t intermediates = (kChainProducts - 1) * kChainMatrixBytes;

  int64_t baseline = MemTracker::Global().current_bytes();
  auto clean = RunProgram(p, bindings, ChainConfig());
  ASSERT_TRUE(clean.ok()) << clean.status();
  EXPECT_LT(clean->result.stats.peak_memory_bytes - baseline, intermediates);

  // Fault tolerance keeps every intermediate for lineage recovery; with no
  // fault drawn the outputs are the same bits.
  RunConfig retained = ChainConfig();
  retained.fault.enabled = true;
  baseline = MemTracker::Global().current_bytes();
  auto kept = RunProgram(p, bindings, retained);
  ASSERT_TRUE(kept.ok()) << kept.status();
  EXPECT_GE(kept->result.stats.peak_memory_bytes - baseline, intermediates);
  const std::string out = "B" + std::to_string(kChainProducts);
  ExpectSameBits(kept->result.matrices.at(out),
                 clean->result.matrices.at(out), out);
}

TEST(ExecutorTest, LoadedInputOutputIsCopiedAndBindingUntouched) {
  // A is both a plan output and a multiply operand; its load step aliases
  // the caller's binding, so the gather must copy, never move.
  ProgramBuilder pb;
  Mat a = pb.Load("A", {48, 32}, 0.4);
  Mat c = pb.Var("C");
  pb.Assign(c, a.t().mm(a));
  pb.Output(a);
  pb.Output(c);
  LocalMatrix adata = SyntheticSparse(48, 32, 0.4, kBs, 19);
  const LocalMatrix before = adata;
  Bindings bindings{{"A", &adata}};
  RunConfig config;
  config.num_workers = 3;
  config.block_size = kBs;
  auto outcome = RunProgram(pb.Build(), bindings, config);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  ExpectSameBits(before, adata, "binding");
  ExpectSameBits(before, outcome->result.matrices.at("A"), "A");
}

TEST(ExecutorTest, SharedTransposedAndBroadcastOutputsGather) {
  // P feeds two outputs (P and its transpose T); S is rebound to its
  // Broadcast-scheme node, whose replicas all share one block pointer.
  ProgramBuilder pb;
  Mat a = pb.Load("A", {96, 40}, 0.5);
  Mat w = pb.Load("W", {40, 24}, 1.0);
  Mat s = pb.Var("S");
  pb.Assign(s, w * 2.0);
  Mat pm = pb.Var("P");
  pb.Assign(pm, a.mm(s));
  Mat t = pb.Var("T");
  pb.Assign(t, pm.t());
  pb.Output(pm);
  pb.Output(t);
  pb.Output(s);
  const Program program = pb.Build();
  LocalMatrix adata = SyntheticSparse(96, 40, 0.5, kBs, 29);
  LocalMatrix wdata = SyntheticDense(40, 24, kBs, 31);
  Bindings bindings{{"A", &adata}, {"W", &wdata}};
  RunConfig config;
  config.num_workers = 3;
  config.block_size = kBs;

  auto plan = PlanProgram(program, config);
  ASSERT_TRUE(plan.ok()) << plan.status();
  bool rebound = false;
  for (PlanOutput& out : plan->outputs) {
    if (out.variable != "S") continue;
    const std::string& matrix = plan->nodes[out.node].matrix;
    for (const PlanNode& node : plan->nodes) {
      if (node.matrix == matrix && !node.transposed &&
          node.scheme() == Scheme::kBroadcast) {
        out.node = node.id;
        rebound = true;
      }
    }
  }
  ASSERT_TRUE(rebound) << plan->ToString();

  auto clean = Executor(config).Execute(*plan, bindings);
  ASSERT_TRUE(clean.ok()) << clean.status();
  RunConfig retained = config;
  retained.fault.enabled = true;  // gathers by copy
  auto copied = Executor(retained).Execute(*plan, bindings);
  ASSERT_TRUE(copied.ok()) << copied.status();
  for (const char* name : {"P", "T", "S"}) {
    ExpectSameBits(copied->matrices.at(name), clean->matrices.at(name), name);
  }
  ExpectSameBits(clean->matrices.at("P").Transposed(), clean->matrices.at("T"),
                 "T");
  auto local = InterpretLocally(program, bindings, kBs, config.seed);
  ASSERT_TRUE(local.ok()) << local.status();
  for (const char* name : {"P", "T", "S"}) {
    EXPECT_TRUE(
        clean->matrices.at(name).ApproxEqual(local->matrices.at(name), 1e-3))
        << name;
  }
}

TEST(ExecutorTest, FreedNodesReturnTheirBudgetCharge) {
  const Program p = MultiplyChainProgram();
  LocalMatrix adata = SyntheticDense(kChainSide, kChainSide, kBs, 7);
  Bindings bindings{{"A", &adata}};

  // An unlimited budget only observes: the clean run's governed peak.
  RunConfig probe = ChainConfig();
  probe.governor.budget = std::make_shared<MemoryBudget>();
  ASSERT_TRUE(RunProgram(p, bindings, probe).ok());
  const int64_t live_peak = probe.governor.budget->peak_bytes();
  ASSERT_GT(live_peak, 0);
  EXPECT_EQ(probe.governor.budget->used_bytes(), 0);

  // With no spill store, a budget of exactly that peak holds the clean run
  // only because each dead node's charge is released before the next step.
  RunConfig tight = ChainConfig();
  tight.governor.budget = std::make_shared<MemoryBudget>(live_peak);
  auto fits = RunProgram(p, bindings, tight);
  EXPECT_TRUE(fits.ok()) << fits.status();

  // Retaining every intermediate (fault tolerance on) overruns it.
  RunConfig retained = tight;
  retained.fault.enabled = true;
  retained.governor.budget = std::make_shared<MemoryBudget>(live_peak);
  auto overruns = RunProgram(p, bindings, retained);
  ASSERT_FALSE(overruns.ok());
  EXPECT_EQ(overruns.status().code(), StatusCode::kResourceExhausted)
      << overruns.status();
}

TEST(ExecutorTest, NetworkModelTimeIsMonotoneInBytes) {
  ExecStats fast, slow;
  fast.shuffle_bytes = 1e6;
  slow.shuffle_bytes = 1e9;
  fast.shuffle_events = slow.shuffle_events = 1;
  NetworkModel net;
  EXPECT_LT(fast.SimulatedSeconds(net), slow.SimulatedSeconds(net));
}

TEST(ExecutorTest, WorkersOfOneStepRunTogether) {
  // A step's workers launch as one gang: in a traced run, worker spans of
  // two different hosts overlap in time. Steps are barriers, so overlapping
  // worker spans belong to one step. The launch threads are not the capped
  // compute pool's, so this holds on a one-CPU machine too.
  const FaultAppCase app = MakeSmallGnmf();
  const Bindings bindings = app.MakeBindings();
  RunConfig config;
  config.num_workers = 4;
  config.block_size = kFaultBs;
  TraceRecorder::Global().Clear();
  TraceRecorder::Global().SetEnabled(true);
  auto outcome = RunProgram(app.program, bindings, config);
  TraceRecorder::Global().SetEnabled(false);
  ASSERT_TRUE(outcome.ok()) << outcome.status();

  std::vector<TraceEvent> spans;
  for (TraceEvent& e : TraceRecorder::Global().Snapshot()) {
    if (std::string(e.category) == kTraceWorker && e.worker >= 0) {
      spans.push_back(std::move(e));
    }
  }
  TraceRecorder::Global().Clear();
  bool overlap = false;
  for (size_t i = 0; i < spans.size() && !overlap; ++i) {
    for (size_t j = i + 1; j < spans.size() && !overlap; ++j) {
      const TraceEvent& a = spans[i];
      const TraceEvent& b = spans[j];
      overlap = a.worker != b.worker &&
                a.start_ns < b.start_ns + b.dur_ns &&
                b.start_ns < a.start_ns + a.dur_ns;
    }
  }
  EXPECT_TRUE(overlap) << spans.size() << " worker spans, none overlapping";
}

}  // namespace
}  // namespace dmac
