// Figure 7 — In-Place vs Buffer memory usage (paper §6.3).
//
// Blocked multiplication A·A on the four Table-3 graph stand-ins, driving
// the worker-local block engine exactly as a stage execution would: one
// task per result block, results handed to the output sink (the paper's
// workers write stage output to local disk, §5.2, so finished blocks do
// not count against engine memory).
//
// In-Place folds all contributing products into one accumulator per task;
// Buffer materializes every partial block product first and aggregates at
// the end — its peak grows with the total size of the partials, which is
// why the paper's gap narrows on the sparser graphs.
#include <cstdio>

#include "bench_util.h"
#include "common/thread_pool.h"
#include "data/graph_gen.h"
#include "matrix/mem_tracker.h"
#include "runtime/block_size.h"
#include "runtime/local_engine.h"

using namespace dmac;
using namespace dmac::bench;

namespace {

/// Runs the full A·A block multiplication through the local engine (all
/// workers' tasks), discarding finished blocks, and returns peak engine
/// bytes above the input.
double EnginePeak(const LocalMatrix& adj, LocalMode mode, int threads) {
  ThreadPool pool(static_cast<size_t>(threads));
  LocalEngine engine(&pool, mode);

  const BlockGrid& grid = adj.grid();
  const BlockGrid out_grid{{adj.rows(), adj.cols()}, adj.block_size()};
  std::vector<MultiplyTask> tasks;
  for (int64_t bi = 0; bi < out_grid.block_rows(); ++bi) {
    for (int64_t bj = 0; bj < out_grid.block_cols(); ++bj) {
      tasks.push_back({bi, bj, 0, grid.block_cols()});
    }
  }
  auto source = [&adj](int64_t bi, int64_t bj) {
    return std::shared_ptr<const Block>(std::shared_ptr<void>(),
                                        &adj.BlockAt(bi, bj));
  };

  MemTracker::Global().ResetPeak();
  const int64_t before = MemTracker::Global().current_bytes();
  Status st = engine.MultiplyBlocks(out_grid, tasks, source, source,
                                    [](int64_t, int64_t, Block) {
                                      // "written to local disk"
                                    });
  if (!st.ok()) {
    std::fprintf(stderr, "engine: %s\n", st.ToString().c_str());
    return -1;
  }
  return static_cast<double>(MemTracker::Global().peak_bytes() - before);
}

}  // namespace

int main() {
  ObsSession obs;
  const double scale = ScaleFactor(150);
  const int threads = 2;

  struct Row {
    const char* name;
    GraphSpec spec;
  };
  const Row rows[] = {
      {"soc-pokec", SocPokec().Scaled(scale)},
      {"cit-Patents", CitPatents().Scaled(scale)},
      {"LiveJournal", LiveJournal().Scaled(scale * 1.2)},
      {"Wikipedia", Wikipedia().Scaled(scale * 12)},
  };

  PrintHeader("Figure 7: In-Place vs Buffer local engine memory (A %*% A)");
  std::printf("%-12s | %12s | %12s | %12s | %7s\n", "graph", "nodes/edges",
              "In-Place", "Buffer", "ratio");
  std::printf("-------------+--------------+--------------+--------------+--------\n");

  for (const Row& row : rows) {
    // The engine sees one worker's share of a K-worker cluster: K·L tasks
    // per worker by Eq. 3, i.e. blocks at 1/sqrt(K) of the single-node
    // bound for a 4-worker cluster.
    const int64_t bs =
        ChooseBlockSize({row.spec.nodes, row.spec.nodes}, 4 * 4, threads);
    LocalMatrix adj = AdjacencyMatrix(row.spec, bs, 7);
    const double inplace = EnginePeak(adj, LocalMode::kInPlace, threads);
    const double buffer = EnginePeak(adj, LocalMode::kBuffer, threads);
    if (inplace < 0 || buffer < 0) return 1;
    char dims[48];
    std::snprintf(dims, sizeof(dims), "%lldk/%lldk",
                  static_cast<long long>(row.spec.nodes / 1000),
                  static_cast<long long>(row.spec.edges / 1000));
    std::printf("%-12s | %12s | %12s | %12s | %6.2fx\n", row.name, dims,
                HumanBytes(inplace).c_str(), HumanBytes(buffer).c_str(),
                buffer / inplace);
  }
  std::printf("\nPaper shape: Buffer >> In-Place on the denser graphs; the\n"
              "gap narrows on the sparser ones (soc-pokec, cit-Patents).\n");
  return 0;
}
