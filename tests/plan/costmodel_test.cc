// Calibrated cost model: table parsing and fallback, rate lookup, and the
// plan estimate's structural invariants (step sum = plan total, comm bytes
// match the planner's Equation-1 accounting, byte-cost mode reproduces the
// paper's ordering with zero compute terms).
#include "plan/costmodel.h"

#include <gtest/gtest.h>

#include "lang/decompose.h"
#include "lang/program.h"
#include "plan/planner.h"

namespace dmac {
namespace {

Plan MustPlan(const Program& p, PlannerOptions opts = {}) {
  auto ops = Decompose(p);
  EXPECT_TRUE(ops.ok()) << ops.status();
  auto plan = GeneratePlan(*ops, opts);
  EXPECT_TRUE(plan.ok()) << plan.status();
  return *plan;
}

Program SmallChain() {
  ProgramBuilder pb;
  Mat a = pb.Load("A", {4000, 2000}, 0.01);
  Mat b = pb.Load("B", {2000, 64}, 1.0);
  Mat c = pb.Var("C");
  pb.Assign(c, a.mm(b));
  pb.Output(c);
  return pb.Build();
}

TEST(CalibrationTableTest, BuiltinHasGemmAndVecRates) {
  CalibrationTable t = CalibrationTable::Builtin();
  EXPECT_FALSE(t.byte_cost_only());
  EXPECT_EQ(t.source(), "builtin");
  EXPECT_GT(t.num_entries(), 0u);
  EXPECT_GT(t.Lookup("gemm", "dense_dense", "nn", 256).gflops, 0.0);
  EXPECT_GT(t.Lookup("gemm", "sparse_dense", "nn", 256).gflops, 0.0);
  EXPECT_GT(t.Lookup("vec", "sum", "", 256).bytes_per_second, 0.0);
}

TEST(CalibrationTableTest, LookupPrefersExactRepresentationAndTrans) {
  CalibrationTable t;
  t.Add("gemm", "dense_dense", "nn", 256, 1, {8.0, 0.0});
  t.Add("gemm", "dense_dense", "nt", 256, 1, {16.0, 0.0});
  t.Add("gemm", "sparse_dense", "nn", 256, 1, {1.0, 0.0});
  EXPECT_DOUBLE_EQ(t.Lookup("gemm", "dense_dense", "nt", 256).gflops, 16.0);
  EXPECT_DOUBLE_EQ(t.Lookup("gemm", "sparse_dense", "nn", 256).gflops, 1.0);
  // Unknown representation falls back to some rate of the kind, not zero.
  EXPECT_GT(t.Lookup("gemm", "sparse_sparse", "nn", 256).gflops, 0.0);
  // Unknown kind is a zero rate (caller treats as "no estimate").
  EXPECT_DOUBLE_EQ(t.Lookup("fft", "dense_dense", "nn", 256).gflops, 0.0);
}

TEST(CalibrationTableTest, LookupPicksNearestBlockSize) {
  CalibrationTable t;
  t.Add("gemm", "dense_dense", "nn", 64, 1, {4.0, 0.0});
  t.Add("gemm", "dense_dense", "nn", 512, 1, {32.0, 0.0});
  EXPECT_DOUBLE_EQ(t.Lookup("gemm", "dense_dense", "nn", 64).gflops, 4.0);
  EXPECT_DOUBLE_EQ(t.Lookup("gemm", "dense_dense", "nn", 1024).gflops, 32.0);
}

TEST(CalibrationTableTest, ParsesCalibrationV1Document) {
  const char* doc = R"({
    "schema": "dmac-calibration-v1",
    "default_block_size": 256,
    "entries": [
      {"kind": "gemm", "representation": "dense_dense", "trans": "nn",
       "block_size": 256, "threads": 1,
       "gflops": 12.5, "bytes_per_second": 0.0},
      {"kind": "vec", "representation": "sum", "trans": "",
       "block_size": 256, "threads": 1,
       "gflops": 0.0, "bytes_per_second": 9.0e9}
    ]})";
  auto t = CalibrationTable::Parse(doc, "test");
  ASSERT_TRUE(t.ok()) << t.status();
  EXPECT_EQ(t->num_entries(), 2u);
  EXPECT_DOUBLE_EQ(t->Lookup("gemm", "dense_dense", "nn", 256).gflops, 12.5);
  EXPECT_DOUBLE_EQ(t->Lookup("vec", "sum", "", 256).bytes_per_second, 9.0e9);
}

TEST(CalibrationTableTest, ParsesKernelBenchV2AndSkipsSeedReference) {
  const char* doc = R"({
    "schema": "dmac-kernel-bench-v2",
    "entries": [
      {"kind": "gemm_seed_reference", "representation": "dense_dense",
       "trans": "nn", "block_size": 256, "threads": 1,
       "gflops": 2.9, "bytes_per_second": 0.0},
      {"kind": "gemm", "representation": "dense_dense", "trans": "nn",
       "block_size": 256, "threads": 1,
       "gflops": 15.0, "bytes_per_second": 0.0}
    ]})";
  auto t = CalibrationTable::Parse(doc, "bench");
  ASSERT_TRUE(t.ok()) << t.status();
  // The seed-reference row documents speedup; it must not become a rate.
  EXPECT_EQ(t->num_entries(), 1u);
  EXPECT_DOUBLE_EQ(t->Lookup("gemm", "dense_dense", "nn", 256).gflops, 15.0);
}

TEST(CalibrationTableTest, RejectsUnknownSchemaAndEmptyEntries) {
  EXPECT_FALSE(CalibrationTable::Parse(R"({"schema":"v9","entries":[{}]})",
                                       "x")
                   .ok());
  EXPECT_FALSE(
      CalibrationTable::Parse(
          R"({"schema":"dmac-calibration-v1","entries":[]})", "x")
          .ok());
  EXPECT_FALSE(CalibrationTable::Parse("not json", "x").ok());
}

TEST(CalibrationTableTest, RejectsMalformedJson) {
  // Each document is well formed apart from one token; the calibration
  // reader used to accept all of these.
  const std::string head =
      R"({"schema":"dmac-calibration-v1","entries":[{"kind":"gemm",)";
  const std::string bad_fields[] = {
      R"("gflops":1-2)",     R"("gflops":+1)",    R"("gflops":.5)",
      R"("gflops":1.2.3)",   R"("trans":"\uZZZZ")",
      "\"trans\":\"n\tn\"",  "\"trans\":\"n\x01n\"",
  };
  ASSERT_TRUE(CalibrationTable::Parse(head + R"("gflops":1}]})", "x").ok());
  for (const std::string& field : bad_fields) {
    EXPECT_FALSE(CalibrationTable::Parse(head + field + "}]}", "x").ok())
        << "accepted " << field;
  }
  // Nesting past the reader's bound is an error, not a stack overflow.
  EXPECT_FALSE(CalibrationTable::Parse(std::string(1000000, '['), "x").ok());
}

TEST(CalibrationTableTest, DuplicateKeysTakeTheLastValue) {
  auto t = CalibrationTable::Parse(
      R"({"schema":"dmac-calibration-v1","entries":[
          {"kind":"gemm","representation":"dense_dense","trans":"nn",
           "block_size":256,"threads":1,"gflops":1.0,"gflops":7.0}]})",
      "x");
  ASSERT_TRUE(t.ok()) << t.status();
  EXPECT_DOUBLE_EQ(t->Lookup("gemm", "dense_dense", "nn", 256).gflops, 7.0);
}

TEST(CalibrationTableTest, UnreadablePathFallsBackToByteCost) {
  auto t = CalibrationTable::Load("/nonexistent/calibration.json");
  ASSERT_TRUE(t.ok()) << t.status();
  EXPECT_TRUE(t->byte_cost_only());
  EXPECT_EQ(t->source(), "byte-cost");
}

TEST(CostModelTest, PlanEstimateSumsItsSteps) {
  Plan plan = MustPlan(SmallChain());
  CostModel model(CalibrationTable::Builtin(), CostModelOptions{});
  PlanCost cost = model.EstimatePlan(plan);
  ASSERT_EQ(cost.steps.size(), plan.steps.size());
  double compute = 0, comm_s = 0, comm_b = 0;
  for (const StepCost& s : cost.steps) {
    compute += s.compute_seconds;
    comm_s += s.comm_seconds;
    comm_b += s.comm_bytes;
  }
  EXPECT_NEAR(cost.compute_seconds, compute, 1e-12);
  EXPECT_NEAR(cost.comm_seconds, comm_s, 1e-9);
  EXPECT_NEAR(cost.comm_bytes, comm_b, 1e-6);
  EXPECT_GT(cost.seconds(), 0.0);
}

TEST(CostModelTest, CommBytesMatchThePlannersAccounting) {
  // The model prices the §4.1 bytes the planner already attached to each
  // step — it must not re-derive (and diverge from) Equation 1.
  Plan plan = MustPlan(SmallChain());
  CostModel model(CalibrationTable::Builtin(), CostModelOptions{});
  EXPECT_NEAR(model.EstimatePlan(plan).comm_bytes, plan.total_comm_bytes,
              1e-6);
}

TEST(CostModelTest, ByteCostModeHasZeroComputeTerms) {
  CalibrationTable byte_cost = *CalibrationTable::Load("/nonexistent.json");
  CostModel model(std::move(byte_cost), CostModelOptions{});
  PlanCost cost = model.EstimatePlan(MustPlan(SmallChain()));
  EXPECT_DOUBLE_EQ(cost.compute_seconds, 0.0);
  EXPECT_GT(cost.comm_seconds, 0.0);
}

TEST(CostModelTest, MoreWorkersReduceComputeSeconds) {
  Plan plan = MustPlan(SmallChain());
  CostModelOptions few;
  few.num_workers = 1;
  few.threads_per_worker = 1;
  CostModelOptions many;
  many.num_workers = 8;
  many.threads_per_worker = 2;
  const double t_few =
      CostModel(CalibrationTable::Builtin(), few).EstimatePlan(plan)
          .compute_seconds;
  const double t_many =
      CostModel(CalibrationTable::Builtin(), many).EstimatePlan(plan)
          .compute_seconds;
  EXPECT_GT(t_few, 0.0);
  EXPECT_LT(t_many, t_few);
}

}  // namespace
}  // namespace dmac
