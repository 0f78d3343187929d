// End-to-end plan search: every searched plan must execute to bit-identical
// results against the greedy Algorithm-1 plan — the search only reorders
// communication, never arithmetic — plus the estimate-drift accounting the
// worst-case §5.1 size estimator makes necessary.
#include <gtest/gtest.h>

#include <cmath>

#include "apps/gnmf.h"
#include "apps/pagerank.h"
#include "apps/runner.h"
#include "data/synthetic.h"

namespace dmac {
namespace {

constexpr int64_t kBs = 16;

void ExpectBitIdentical(const LocalMatrix& a, const LocalMatrix& b,
                        const char* what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  for (int64_t r = 0; r < a.rows(); ++r) {
    for (int64_t c = 0; c < a.cols(); ++c) {
      ASSERT_EQ(a.At(r, c), b.At(r, c))
          << what << " at (" << r << ", " << c << ")";
    }
  }
}

/// Near-equality for runs whose plans use *different multiply algorithms*:
/// RMM vs CPMM aggregate the k-dimension partial sums in a different order,
/// which legitimately flips low-order float bits. Anything beyond that is
/// a real divergence.
void ExpectUlpClose(const LocalMatrix& a, const LocalMatrix& b,
                    const char* what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  for (int64_t r = 0; r < a.rows(); ++r) {
    for (int64_t c = 0; c < a.cols(); ++c) {
      ASSERT_NEAR(a.At(r, c), b.At(r, c),
                  1e-5 * (1.0 + std::abs(a.At(r, c))))
          << what << " at (" << r << ", " << c << ")";
    }
  }
}

TEST(PlanSearchE2eTest, GnmfSearchedMatchesGreedyBitwise) {
  GnmfConfig config{64, 48, 0.2, 6, 3};
  Program p = BuildGnmfProgram(config);
  LocalMatrix v = SyntheticSparse(64, 48, 0.2, kBs, 31);
  Bindings bindings{{"V", &v}};

  RunConfig greedy_cfg;
  greedy_cfg.block_size = kBs;
  RunConfig search_cfg = greedy_cfg;
  search_cfg.plan_search = PlanSearchMode::kBeam;

  auto greedy = RunProgram(p, bindings, greedy_cfg);
  auto searched = RunProgram(p, bindings, search_cfg);
  ASSERT_TRUE(greedy.ok()) << greedy.status();
  ASSERT_TRUE(searched.ok()) << searched.status();

  EXPECT_TRUE(searched->search.ran);
  EXPECT_GT(searched->search.candidates, 0);
  // The greedy plan is in the candidate pool, so the winner never
  // estimates worse. (Ranking is by estimated seconds; the comm-bytes
  // comparison at benchmark scale lives in bench_plansearch.)
  EXPECT_LE(searched->search.best_seconds,
            searched->search.greedy_seconds + 1e-12);

  for (const char* name : {"W", "H"}) {
    ExpectBitIdentical(searched->result.matrices.at(name),
                       greedy->result.matrices.at(name), name);
  }
}

TEST(PlanSearchE2eTest, PageRankSearchedMatchesGreedyBitwise) {
  PageRankConfig config{96, 0.08, 4, 0.85};
  Program p = BuildPageRankProgram(config);
  LocalMatrix link = SyntheticSparse(96, 96, 0.08, kBs, 11);
  LocalMatrix d = SyntheticDense(1, 96, kBs, 13);
  Bindings bindings{{"link", &link}, {"D", &d}};

  RunConfig greedy_cfg;
  greedy_cfg.block_size = kBs;
  RunConfig search_cfg = greedy_cfg;
  search_cfg.plan_search = PlanSearchMode::kBeam;

  auto greedy = RunProgram(p, bindings, greedy_cfg);
  auto searched = RunProgram(p, bindings, search_cfg);
  ASSERT_TRUE(greedy.ok()) << greedy.status();
  ASSERT_TRUE(searched.ok()) << searched.status();
  EXPECT_TRUE(searched->search.ran);
  EXPECT_LE(searched->search.best_seconds,
            searched->search.greedy_seconds + 1e-12);
  // The searched PageRank plan swaps the multiply algorithm (RMM vs CPMM),
  // so partial sums aggregate in a different order.
  ExpectUlpClose(searched->result.matrices.at("rank"),
                 greedy->result.matrices.at("rank"), "rank");
}

TEST(PlanSearchE2eTest, GnmfRecordsEstimateDrift) {
  // Every run records measured nnz and the estimated-vs-measured comm
  // ratio; GNMF's plans communicate, so both sides are nonzero and the
  // ratio is well defined (>= 1).
  GnmfConfig config{64, 48, 0.2, 6, 3};
  LocalMatrix v = SyntheticSparse(64, 48, 0.2, kBs, 31);
  Bindings bindings{{"V", &v}};
  RunConfig run;
  run.block_size = kBs;
  auto out = RunProgram(BuildGnmfProgram(config), bindings, run);
  ASSERT_TRUE(out.ok()) << out.status();
  const ExecStats& stats = out->result.stats;
  EXPECT_GT(stats.estimated_comm_bytes, 0.0);
  EXPECT_GE(stats.estimate_drift, 1.0);
  EXPECT_FALSE(stats.matrix_nnz.empty());
}

TEST(PlanSearchE2eTest, WorstCaseSparsityDriftIsFlagged) {
  // Regression for the §5.1 pessimism: after A·B the estimator assumes a
  // dense product (s_C = 1), so a chain of very sparse multiplies carries a
  // communication estimate far above what executes. The drift ratio must
  // expose that (> 4x fires the planner.estimate.drift.events counter).
  ProgramBuilder pb;
  Mat a = pb.Load("A", {8192, 512}, 0.0005);
  Mat g = pb.Var("G");
  pb.Assign(g, a.t().mm(a));  // Gram product: tiny actual nnz, dense estimate
  Mat h = pb.Var("H2");
  pb.Assign(h, g.mm(g));  // and the "dense" G estimate propagates
  pb.Output(h);

  LocalMatrix am = SyntheticSparse(8192, 512, 0.0005, 128, 3);
  Bindings bindings{{"A", &am}};
  RunConfig run;
  run.block_size = 128;
  auto out = RunProgram(pb.Build(), bindings, run);
  ASSERT_TRUE(out.ok()) << out.status();
  const ExecStats& stats = out->result.stats;
  ASSERT_GT(stats.comm_bytes(), 0.0);
  EXPECT_GT(stats.estimate_drift, 4.0)
      << "estimated " << stats.estimated_comm_bytes << " vs measured "
      << stats.comm_bytes();
}

}  // namespace
}  // namespace dmac
