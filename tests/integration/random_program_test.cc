// Program fuzzing: random well-shaped matrix programs must compute the same
// results under the DMac planner, the SystemML-S planner, and the
// single-machine interpreter, for every seed.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "apps/local_interpreter.h"
#include "apps/runner.h"
#include "common/rng.h"
#include "data/synthetic.h"
#include "lang/decompose.h"

namespace dmac {
namespace {

constexpr int64_t kBs = 8;

/// A matrix variable tracked by the generator.
struct Var {
  Mat handle;
  Shape shape;
};

/// Generates a random program of `num_ops` well-shaped statements over a
/// small set of dimensions (so operands frequently align), keeping value
/// magnitudes near 1 to avoid float blow-up.
Program GenerateProgram(uint64_t seed, int num_ops) {
  Rng rng(seed);
  ProgramBuilder pb;
  const int64_t dims[] = {12, 20, 28};
  auto dim = [&] { return dims[rng.NextBounded(3)]; };

  std::vector<Var> pool;
  for (int i = 0; i < 3; ++i) {
    const Shape shape{dim(), dim()};
    const std::string name = "in" + std::to_string(i);
    const double sparsity = 0.2 + 0.2 * rng.NextDouble();
    pool.push_back({pb.Load(name, shape, sparsity), shape});
  }

  auto pick = [&]() -> Var& {
    return pool[rng.NextBounded(pool.size())];
  };
  auto pick_with_shape = [&](Shape shape) -> Var* {
    std::vector<Var*> matches;
    for (Var& v : pool) {
      if (v.shape == shape) matches.push_back(&v);
    }
    if (matches.empty()) return nullptr;
    return matches[rng.NextBounded(matches.size())];
  };

  int produced = 0;
  for (int i = 0; i < num_ops; ++i) {
    const uint64_t choice = rng.NextBounded(10);
    Mat expr;
    Shape out_shape;
    switch (choice) {
      case 0: {  // multiply: find b with b.rows == a.cols (maybe transposed)
        Var& a = pick();
        Var* b = pick_with_shape({a.shape.cols, dim()});
        if (b != nullptr) {
          // Normalize by the inner dimension to keep magnitudes ~1.
          expr = a.handle.mm(b->handle) * (1.0 / a.shape.cols);
          out_shape = {a.shape.rows, b->shape.cols};
        } else {
          // Fall back to the always-available Gram product Aᵀ·A.
          expr = a.handle.t().mm(a.handle) * (1.0 / a.shape.rows);
          out_shape = {a.shape.cols, a.shape.cols};
        }
        break;
      }
      case 1: {  // element-wise with a same-shaped partner
        Var& a = pick();
        Var* b = pick_with_shape(a.shape);
        Var& rhs = b != nullptr ? *b : a;
        const uint64_t kind = rng.NextBounded(3);
        expr = kind == 0   ? a.handle + rhs.handle
               : kind == 1 ? a.handle - rhs.handle
                           : a.handle * rhs.handle;
        out_shape = a.shape;
        break;
      }
      case 2: {  // safe cell division: denominator bounded away from zero
        Var& a = pick();
        Var* b = pick_with_shape(a.shape);
        Var& rhs = b != nullptr ? *b : a;
        expr = a.handle / (rhs.handle * rhs.handle + 0.5);
        out_shape = a.shape;
        break;
      }
      case 3: {  // transpose combined with addition
        Var& a = pick();
        expr = a.handle.t() + a.handle.t();
        out_shape = a.shape.Transposed();
        break;
      }
      case 4: {  // scalar scale
        Var& a = pick();
        expr = a.handle * (0.25 + rng.NextDouble());
        out_shape = a.shape;
        break;
      }
      case 5: {  // row aggregation
        Var& a = pick();
        expr = a.handle.RowSums() * (1.0 / a.shape.cols);
        out_shape = {a.shape.rows, 1};
        break;
      }
      case 6: {  // column aggregation
        Var& a = pick();
        expr = a.handle.ColSums() * (1.0 / a.shape.rows);
        out_shape = {1, a.shape.cols};
        break;
      }
      case 7: {  // scalar shift
        Var& a = pick();
        expr = a.handle + (rng.NextDouble() - 0.5);
        out_shape = a.shape;
        break;
      }
      case 8: {  // unary function, on values kept finite and near 1
        Var& a = pick();
        const uint64_t fn = rng.NextBounded(5);
        expr = fn == 0   ? a.handle.Abs()
               : fn == 1 ? a.handle.Square()
               : fn == 2 ? a.handle.Sigmoid()
               : fn == 3 ? a.handle.Sigmoid().Exp()
                         : (a.handle.Abs() + 0.5).Log();
        out_shape = a.shape;
        break;
      }
      default: {  // scalar round trip: scale a matrix by a reduction
        Var& a = pick();
        Scl s = pb.ScalarVar("s" + std::to_string(i), 0.0);
        pb.Assign(s, a.handle.Sum() * (1.0 / a.shape.NumElements()) + 0.1);
        expr = s * a.handle;
        out_shape = a.shape;
        break;
      }
    }
    Mat var = pb.Var("v" + std::to_string(produced++));
    pb.Assign(var, expr);
    pool.push_back({var, out_shape});
  }

  // Output the last few produced variables.
  const size_t outputs = std::min<size_t>(3, pool.size());
  for (size_t i = pool.size() - outputs; i < pool.size(); ++i) {
    pb.Output(pool[i].handle);
  }
  return pb.Build();
}

class RandomProgramTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomProgramTest, AllThreeEnginesAgree) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  Program program = GenerateProgram(seed, 8);

  // Bind the three inputs.
  Rng rng(seed);
  std::vector<std::pair<std::string, LocalMatrix>> data;
  for (const Statement& st : program.statements) {
    if (st.kind == Statement::Kind::kAssignMatrix &&
        st.matrix->kind == MatrixExpr::Kind::kLoad) {
      data.emplace_back(st.matrix->name,
                        SyntheticSparse(st.matrix->shape.rows,
                                        st.matrix->shape.cols,
                                        st.matrix->sparsity, kBs,
                                        seed * 100 + data.size()));
    }
  }
  Bindings bindings;
  for (auto& [name, m] : data) bindings.emplace(name, &m);

  RunConfig dmac_cfg;
  dmac_cfg.block_size = kBs;
  dmac_cfg.num_workers = 3;
  RunConfig sysml_cfg = dmac_cfg;
  sysml_cfg.exploit_dependencies = false;

  auto local = InterpretLocally(program, bindings, kBs, dmac_cfg.seed);
  ASSERT_TRUE(local.ok()) << "seed " << seed << ": " << local.status();
  auto dmac_run = RunProgram(program, bindings, dmac_cfg);
  ASSERT_TRUE(dmac_run.ok()) << "seed " << seed << ": " << dmac_run.status();
  auto sysml_run = RunProgram(program, bindings, sysml_cfg);
  ASSERT_TRUE(sysml_run.ok()) << "seed " << seed << ": "
                              << sysml_run.status();

  for (auto& [name, expected] : local->matrices) {
    EXPECT_TRUE(dmac_run->result.matrices.at(name).ApproxEqual(expected,
                                                               5e-2))
        << "seed " << seed << " matrix " << name << " (DMac)";
    EXPECT_TRUE(sysml_run->result.matrices.at(name).ApproxEqual(expected,
                                                                5e-2))
        << "seed " << seed << " matrix " << name << " (SystemML-S)";
  }
}

TEST_P(RandomProgramTest, DmacPlanNeverCostsMore) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  Program program = GenerateProgram(seed, 8);
  RunConfig dmac_cfg;
  RunConfig sysml_cfg;
  sysml_cfg.exploit_dependencies = false;
  auto dmac_plan = PlanProgram(program, dmac_cfg);
  auto sysml_plan = PlanProgram(program, sysml_cfg);
  ASSERT_TRUE(dmac_plan.ok() && sysml_plan.ok()) << "seed " << seed;
  EXPECT_LE(dmac_plan->total_comm_bytes, sysml_plan->total_comm_bytes)
      << "seed " << seed;
  EXPECT_LE(dmac_plan->num_stages, sysml_plan->num_stages)
      << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(TwentySeeds, RandomProgramTest,
                         ::testing::Range(1, 21));

TEST(RandomProgramCoverageTest, TwentySeedsRunEveryElementwiseFunction) {
  std::set<std::string> seen;
  for (int seed = 1; seed <= 20; ++seed) {
    auto ops = Decompose(GenerateProgram(static_cast<uint64_t>(seed), 8));
    ASSERT_TRUE(ops.ok()) << ops.status();
    for (const Operator& op : ops->ops) {
      if (op.kind != OpKind::kCellwise) continue;
      seen.insert(op.cell.kind == CellOp::kUnary ? UnaryFnName(op.cell.fn)
                                                 : op.cell.name());
    }
  }
  EXPECT_EQ(seen, (std::set<std::string>{"add", "subtract", "cell-multiply",
                                         "cell-divide", "scalar-multiply",
                                         "scalar-add", "abs", "square",
                                         "sigmoid", "exp", "log"}));
}

}  // namespace
}  // namespace dmac
