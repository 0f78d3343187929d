// In-place element-wise steps (paper §5.2, Fig. 7): on a clean run, a map
// whose first input dies at that step writes into the input's blocks. These
// tests pin what must never be written into (caller bindings, a node that
// is also the other operand, Broadcast inputs, plan outputs), that the copy
// path the fault layer takes gives the same bits, and the memory saving.
#include <gtest/gtest.h>

#include <string>

#include "apps/collab_filter.h"
#include "apps/local_interpreter.h"
#include "apps/runner.h"
#include "data/synthetic.h"
#include "fault/checksum.h"
#include "lang/program.h"
#include "matrix/mem_tracker.h"
#include "runtime/executor.h"

namespace dmac {
namespace {

constexpr int64_t kBs = 16;

/// Expects `got` to hold exactly the bits of `want`, block for block.
void ExpectSameBits(const LocalMatrix& want, const LocalMatrix& got,
                    const std::string& name) {
  ASSERT_EQ(want.rows(), got.rows()) << name;
  ASSERT_EQ(want.cols(), got.cols()) << name;
  for (int64_t bi = 0; bi < want.grid().block_rows(); ++bi) {
    for (int64_t bj = 0; bj < want.grid().block_cols(); ++bj) {
      EXPECT_EQ(want.BlockAt(bi, bj).kind(), got.BlockAt(bi, bj).kind())
          << name << " block (" << bi << "," << bj << ")";
      EXPECT_EQ(BlockChecksum(want.BlockAt(bi, bj)),
                BlockChecksum(got.BlockAt(bi, bj)))
          << name << " block (" << bi << "," << bj << ")";
    }
  }
}

RunConfig Config(int workers) {
  RunConfig config;
  config.num_workers = workers;
  config.block_size = kBs;
  return config;
}

/// The same config with the fault layer on and no fault drawn: every node
/// is kept for lineage, so every map takes the copy path.
RunConfig CopyPath(RunConfig config) {
  config.fault.enabled = true;
  return config;
}

/// Runs `p` clean and on the copy path, and expects every output of the
/// two runs to match bit for bit and to approximate the local interpreter.
void ExpectInPlaceMatchesCopyPath(const Program& p, const Bindings& bindings,
                                  const RunConfig& config) {
  auto clean = RunProgram(p, bindings, config);
  ASSERT_TRUE(clean.ok()) << clean.status();
  auto copied = RunProgram(p, bindings, CopyPath(config));
  ASSERT_TRUE(copied.ok()) << copied.status();
  auto local = InterpretLocally(p, bindings, kBs, config.seed);
  ASSERT_TRUE(local.ok()) << local.status();
  ASSERT_EQ(clean->result.matrices.size(), copied->result.matrices.size());
  for (const auto& [name, m] : clean->result.matrices) {
    ExpectSameBits(copied->result.matrices.at(name), m, name);
    EXPECT_TRUE(m.ApproxEqual(local->matrices.at(name), 1e-3)) << name;
  }
}

TEST(InPlaceMapTest, BoundInputIsNeverWrittenInto) {
  // The first step maps the loaded A, whose blocks alias the caller's
  // binding and die there: they are lent, never moved.
  for (double density : {1.0, 0.3}) {
    ProgramBuilder pb;
    Mat a = pb.Load("A", {48, 40}, density);
    Mat c = pb.Var("C");
    pb.Assign(c, (a * 2.0).Abs());
    pb.Output(c);
    const Program p = pb.Build();
    LocalMatrix adata =
        density == 1.0 ? SyntheticDense(48, 40, kBs, 3)
                       : SyntheticSparse(48, 40, density, kBs, 3);
    const LocalMatrix before = adata;
    Bindings bindings{{"A", &adata}};
    ExpectInPlaceMatchesCopyPath(p, bindings, Config(3));
    ExpectSameBits(before, adata, "binding A");
  }
}

TEST(InPlaceMapTest, NodeOnBothSidesOfAMapIsRead) {
  // C = B + B: B dies at the add but is also its other operand.
  ProgramBuilder pb;
  Mat a = pb.Load("A", {40, 40}, 1.0);
  Mat b = pb.Var("B");
  pb.Assign(b, a.mm(a));
  Mat c = pb.Var("C");
  pb.Assign(c, b + b);
  pb.Output(c);
  const Program p = pb.Build();
  LocalMatrix adata = SyntheticDense(40, 40, kBs, 5);
  Bindings bindings{{"A", &adata}};

  auto plan = PlanProgram(p, Config(3));
  ASSERT_TRUE(plan.ok()) << plan.status();
  bool self_add = false;
  for (const PlanStep& s : plan->steps) {
    self_add = self_add || (s.op_kind == OpKind::kCellwise &&
                            s.cell.kind == CellOp::kAdd &&
                            s.inputs.size() == 2 && s.inputs[0] == s.inputs[1]);
  }
  ASSERT_TRUE(self_add) << plan->ToString();
  ExpectInPlaceMatchesCopyPath(p, bindings, Config(3));
}

TEST(InPlaceMapTest, BroadcastInputIsNotWrittenInto) {
  // S(b) is a broadcast of the output S(r): its replicas share S's blocks.
  // The plan is rewired so that T = S * 3 reads S(b), which dies there.
  ProgramBuilder pb;
  Mat a = pb.Load("A", {96, 40}, 0.5);
  Mat w = pb.Load("W", {40, 24}, 1.0);
  Mat s = pb.Var("S");
  pb.Assign(s, w * 2.0);
  Mat pm = pb.Var("P");
  pb.Assign(pm, a.mm(s));
  Mat t = pb.Var("T");
  pb.Assign(t, s * 3.0);
  pb.Output(pm);
  pb.Output(t);
  pb.Output(s);
  const Program program = pb.Build();
  LocalMatrix adata = SyntheticSparse(96, 40, 0.5, kBs, 29);
  LocalMatrix wdata = SyntheticDense(40, 24, kBs, 31);
  Bindings bindings{{"A", &adata}, {"W", &wdata}};
  const RunConfig config = Config(3);

  auto plan = PlanProgram(program, config);
  ASSERT_TRUE(plan.ok()) << plan.status();
  int s_broadcast = -1;
  for (const PlanNode& node : plan->nodes) {
    if (node.matrix == plan->nodes[plan->steps.back().inputs[0]].matrix &&
        node.scheme() == Scheme::kBroadcast) {
      s_broadcast = node.id;
    }
  }
  PlanStep& scale = plan->steps.back();
  ASSERT_EQ(scale.op_kind, OpKind::kCellwise) << plan->ToString();
  ASSERT_EQ(scale.cell.kind, CellOp::kScale) << plan->ToString();
  ASSERT_GE(s_broadcast, 0) << plan->ToString();
  scale.inputs[0] = s_broadcast;
  plan->nodes[static_cast<size_t>(scale.output)].schemes =
      SchemeBit(Scheme::kBroadcast);

  auto clean = Executor(config).Execute(*plan, bindings);
  ASSERT_TRUE(clean.ok()) << clean.status();
  auto copied = Executor(CopyPath(config)).Execute(*plan, bindings);
  ASSERT_TRUE(copied.ok()) << copied.status();
  for (const char* name : {"P", "T", "S"}) {
    ExpectSameBits(copied->matrices.at(name), clean->matrices.at(name), name);
  }
  auto local = InterpretLocally(program, bindings, kBs, config.seed);
  ASSERT_TRUE(local.ok()) << local.status();
  for (const char* name : {"P", "T", "S"}) {
    EXPECT_TRUE(
        clean->matrices.at(name).ApproxEqual(local->matrices.at(name), 1e-3))
        << name;
  }
}

TEST(InPlaceMapTest, OutputNodeIsNotWrittenInto) {
  // B is both a plan output and the scalar multiply's input: the gather
  // must see B, not 2·B.
  ProgramBuilder pb;
  Mat a = pb.Load("A", {40, 40}, 1.0);
  Mat b = pb.Var("B");
  pb.Assign(b, a.mm(a));
  Mat c = pb.Var("C");
  pb.Assign(c, b * 2.0);
  pb.Output(b);
  pb.Output(c);
  const Program p = pb.Build();
  LocalMatrix adata = SyntheticDense(40, 40, kBs, 7);
  Bindings bindings{{"A", &adata}};
  ExpectInPlaceMatchesCopyPath(p, bindings, Config(3));

  auto clean = RunProgram(p, bindings, Config(3));
  ASSERT_TRUE(clean.ok()) << clean.status();
  // x * 2 is exact, so C's bits are B's doubled.
  ExpectSameBits(clean->result.matrices.at("B").ScalarMultiply(2.0f),
                 clean->result.matrices.at("C"), "C");
}

TEST(InPlaceMapTest, FaultLayerCopyPathIsBitIdentical) {
  // Every element-wise kind, on dense and sparse inputs that die at it.
  ProgramBuilder pb;
  Mat a = pb.Load("A", {48, 40}, 0.3);
  Mat d = pb.Load("D", {48, 40}, 1.0);
  Mat s1 = pb.Var("S1");
  pb.Assign(s1, (((a * 3.0).Abs().Square() * d) + a) - d);
  Mat g = pb.Var("G");
  pb.Assign(g, a.mm(a.t()).mm(a));
  Mat e = pb.Var("E");
  pb.Assign(e, (((g * 0.5 + 1.0).Sigmoid() / (d + 2.0)).Exp() + 1.0).Log());
  pb.Output(s1);
  pb.Output(e);
  const Program p = pb.Build();
  LocalMatrix adata = SyntheticSparse(48, 40, 0.3, kBs, 11);
  LocalMatrix ddata = SyntheticDense(48, 40, kBs, 12);
  Bindings bindings{{"A", &adata}, {"D", &ddata}};
  for (int workers : {1, 3}) {
    SCOPED_TRACE(workers);
    ExpectInPlaceMatchesCopyPath(p, bindings, Config(workers));
  }
}

TEST(InPlaceMapTest, CfPeakStaysBelowOneAndAHalfOutputs) {
  // predict = (R·Rᵀ·R) * (1/items): the dense product dies at the scale, so
  // the scale writes into it instead of allocating a second copy.
  constexpr int64_t kItems = 32;
  constexpr int64_t kUsers = 2048;
  const Program p = BuildCollabFilterProgram({kItems, kUsers, 0.1});
  LocalMatrix r = SyntheticSparse(kItems, kUsers, 0.1, 32, 13);
  Bindings bindings{{"R", &r}};
  RunConfig config = Config(4);
  config.block_size = 32;

  const int64_t baseline = MemTracker::Global().current_bytes();
  auto outcome = RunProgram(p, bindings, config);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  const int64_t output_bytes =
      DenseBlock::MemoryBytesFor(kItems, kUsers);
  const LocalMatrix& predict = outcome->result.matrices.at("predict");
  ASSERT_EQ(predict.MemoryBytes(), output_bytes);  // the output is dense
  EXPECT_LT(outcome->result.stats.peak_memory_bytes - baseline,
            output_bytes * 3 / 2);
}

}  // namespace
}  // namespace dmac
