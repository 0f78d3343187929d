#include "apps/logistic_regression.h"

#include <gtest/gtest.h>

#include <cmath>

#include "apps/local_interpreter.h"
#include "apps/runner.h"
#include "data/synthetic.h"
#include "data/triplets.h"
#include "lang/parser.h"

namespace dmac {
namespace {

constexpr int64_t kBs = 16;

Block CellUnary(const Block& a, UnaryFnKind fn) {
  return *Cellwise({.kind = CellOp::kUnary, .fn = fn}, a);
}

TEST(CellUnaryKernelTest, AppliesFunctions) {
  Block a = RandomDenseBlock(6, 5, 3);
  Block e = CellUnary(a, UnaryFnKind::kExp);
  Block s = CellUnary(a, UnaryFnKind::kSigmoid);
  Block q = CellUnary(a, UnaryFnKind::kSquare);
  for (int64_t r = 0; r < 6; ++r) {
    for (int64_t c = 0; c < 5; ++c) {
      EXPECT_NEAR(e.At(r, c), std::exp(a.At(r, c)), 1e-4);
      EXPECT_NEAR(s.At(r, c), 1.0 / (1.0 + std::exp(-a.At(r, c))), 1e-5);
      EXPECT_NEAR(q.At(r, c), a.At(r, c) * a.At(r, c), 1e-5);
    }
  }
}

TEST(CellUnaryKernelTest, ZeroPreservingKeepsSparse) {
  Block a = RandomSparseBlock(20, 20, 0.1, 5);
  EXPECT_TRUE(CellUnary(a, UnaryFnKind::kAbs).IsSparse());
  EXPECT_TRUE(CellUnary(a, UnaryFnKind::kSquare).IsSparse());
  // Densifying functions produce dense output (sigmoid(0) = 0.5 != 0).
  Block s = CellUnary(a, UnaryFnKind::kSigmoid);
  EXPECT_TRUE(s.IsDense());
  EXPECT_NEAR(s.At(0, 0), a.At(0, 0) == 0 ? 0.5 : s.At(0, 0), 1e-5);
}

TEST(LogRegTest, DistributedMatchesLocal) {
  LogRegConfig config{60, 20, 0.4, 4, 1.0};
  Program p = BuildLogisticRegressionProgram(config);
  LocalMatrix v = SyntheticSparse(60, 20, 0.4, kBs, 11);
  LocalMatrix y = ConstantMatrix({60, 1}, kBs, 0.0f);
  for (int64_t r = 0; r < 60; r += 2) {
    y.BlockAt(r / kBs, 0).dense().Set(r % kBs, 0, 1.0f);
  }
  Bindings bindings{{"V", &v}, {"y", &y}};
  RunConfig run;
  run.block_size = kBs;
  auto dist = RunProgram(p, bindings, run);
  ASSERT_TRUE(dist.ok()) << dist.status();
  auto local = InterpretLocally(p, bindings, kBs, run.seed);
  ASSERT_TRUE(local.ok()) << local.status();
  EXPECT_TRUE(dist->result.matrices.at("w_model").ApproxEqual(
      local->matrices.at("w_model"), 0.02));
  EXPECT_NEAR(dist->result.scalars.at("train_loss"),
              local->scalars.at("train_loss"),
              local->scalars.at("train_loss") * 1e-3 + 1e-4);
}

TEST(LogRegTest, LossDecreasesWithTraining) {
  // Separable-ish data: label 1 iff the example has any feature mass in the
  // first half of the feature space.
  const int64_t n = 120, d = 24;
  LocalMatrix v = SyntheticSparse(n, d, 0.3, kBs, 21);
  LocalMatrix y = LocalMatrix::Zeros({n, 1}, kBs);
  for (int64_t r = 0; r < n; ++r) {
    double first_half = 0;
    for (int64_t c = 0; c < d / 2; ++c) first_half += v.At(r, c);
    if (first_half > 0.5) {
      y.BlockAt(r / kBs, 0).dense().Set(r % kBs, 0, 1.0f);
    }
  }
  Bindings bindings{{"V", &v}, {"y", &y}};
  RunConfig run;
  run.block_size = kBs;

  auto loss_after = [&](int iterations) {
    LogRegConfig config{n, d, 0.3, iterations, 2.0};
    auto dist = RunProgram(BuildLogisticRegressionProgram(config), bindings,
                           run);
    EXPECT_TRUE(dist.ok()) << dist.status();
    return dist->result.scalars.at("train_loss");
  };
  const double l1 = loss_after(1);
  const double l20 = loss_after(20);
  EXPECT_LT(l20, l1);
}

TEST(LogRegTest, DmacCommunicatesLessThanSystemMl) {
  LogRegConfig config{300, 80, 0.1, 5, 1.0};
  Program p = BuildLogisticRegressionProgram(config);
  LocalMatrix v = SyntheticSparse(300, 80, 0.1, kBs, 31);
  LocalMatrix y = ConstantMatrix({300, 1}, kBs, 1.0f);
  Bindings bindings{{"V", &v}, {"y", &y}};
  RunConfig dmac_cfg;
  dmac_cfg.block_size = kBs;
  RunConfig sysml_cfg = dmac_cfg;
  sysml_cfg.exploit_dependencies = false;
  auto r1 = RunProgram(p, bindings, dmac_cfg);
  auto r2 = RunProgram(p, bindings, sysml_cfg);
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_LT(r1->plan.total_comm_bytes, r2->plan.total_comm_bytes);
  EXPECT_LT(r1->result.stats.comm_bytes(), r2->result.stats.comm_bytes());
}

TEST(LogRegTest, ScriptFrontEndVersion) {
  // The same algorithm written in the script language.
  const std::string src =
      "V = load(\"V\", 40, 12, 0.5)\n"
      "y = load(\"y\", 40, 1, 1)\n"
      "w = random(12, 1)\n"
      "w = w * 0.01\n"
      "for i in 0:3 {\n"
      "  p = sigmoid(V %*% w)\n"
      "  w = w - t(V) %*% (p - y) * 0.025\n"
      "}\n"
      "output(w)\n";
  auto p = ParseProgram(src);
  ASSERT_TRUE(p.ok()) << p.status();
  LocalMatrix v = SyntheticSparse(40, 12, 0.5, kBs, 41);
  LocalMatrix y = ConstantMatrix({40, 1}, kBs, 1.0f);
  Bindings bindings{{"V", &v}, {"y", &y}};
  RunConfig run;
  run.block_size = kBs;
  auto dist = RunProgram(*p, bindings, run);
  ASSERT_TRUE(dist.ok()) << dist.status();
  auto local = InterpretLocally(*p, bindings, kBs, run.seed);
  ASSERT_TRUE(local.ok());
  EXPECT_TRUE(dist->result.matrices.at("w").ApproxEqual(
      local->matrices.at("w"), 0.02));
}

}  // namespace
}  // namespace dmac
