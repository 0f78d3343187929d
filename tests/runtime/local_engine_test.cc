#include "runtime/local_engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <thread>

#include "common/sync.h"
#include "common/thread_pool.h"
#include "governor/cancel_token.h"
#include "matrix/local_matrix.h"
#include "matrix/mem_tracker.h"

namespace dmac {
namespace {

/// Test fixture providing a worker environment (thread pool) and a block
/// source built from a LocalMatrix.
class LocalEngineTest : public ::testing::TestWithParam<LocalMode> {
 protected:
  LocalEngineTest() : pool_(2) {}

  LocalEngine MakeEngine(LocalMode mode) { return LocalEngine(&pool_, mode); }

  /// One task per block of `grid`, each summing over k in [0, k_blocks).
  static std::vector<MultiplyTask> EveryBlock(const BlockGrid& grid,
                                              int64_t k_blocks) {
    std::vector<MultiplyTask> tasks;
    for (int64_t bi = 0; bi < grid.block_rows(); ++bi) {
      for (int64_t bj = 0; bj < grid.block_cols(); ++bj) {
        tasks.push_back({bi, bj, 0, k_blocks});
      }
    }
    return tasks;
  }

  static LocalEngine::BlockFn Source(const LocalMatrix& m) {
    return [&m](int64_t bi, int64_t bj) {
      return std::shared_ptr<const Block>(std::shared_ptr<void>(),
                                          &m.BlockAt(bi, bj));
    };
  }

  ThreadPool pool_;
};

TEST_P(LocalEngineTest, BlockedMultiplyMatchesOracle) {
  // Every operand pairing under every transpose flag: C = op(A)·op(B) with
  // op(A) 40×36 and op(B) 36×24. A flagged operand is stored transposed and
  // fetched at its stored indices, as the executor does; the unflagged
  // sparse×sparse case takes the In-Place engine's Gustavson chain.
  const Shape a_shape{40, 36};
  const Shape b_shape{36, 24};
  const BlockGrid out_grid{{40, 24}, 8};
  const std::vector<MultiplyTask> tasks =
      EveryBlock(out_grid, BlockGrid{b_shape, 8}.block_rows());
  auto make = [](Shape shape, bool sparse, uint64_t seed) {
    return sparse ? LocalMatrix::RandomSparse(shape, 8, 0.2, seed)
                  : LocalMatrix::RandomDense(shape, 8, seed);
  };
  auto flagged_source = [](const LocalMatrix& m, bool trans) {
    return [&m, trans](int64_t i, int64_t j) {
      return std::shared_ptr<const Block>(
          std::shared_ptr<void>(), trans ? &m.BlockAt(j, i) : &m.BlockAt(i, j));
    };
  };
  LocalEngine engine = MakeEngine(GetParam());
  for (const bool trans_a : {false, true}) {
    for (const bool trans_b : {false, true}) {
      for (const bool a_sparse : {false, true}) {
        for (const bool b_sparse : {false, true}) {
          SCOPED_TRACE(::testing::Message()
                       << "trans_a=" << trans_a << " trans_b=" << trans_b
                       << " a_sparse=" << a_sparse
                       << " b_sparse=" << b_sparse);
          const LocalMatrix a = make(
              trans_a ? a_shape.Transposed() : a_shape, a_sparse, 1);
          const LocalMatrix b = make(
              trans_b ? b_shape.Transposed() : b_shape, b_sparse, 2);
          auto expected = (trans_a ? a.Transposed() : a)
                              .Multiply(trans_b ? b.Transposed() : b);
          ASSERT_TRUE(expected.ok());

          Mutex mu;
          std::map<std::pair<int64_t, int64_t>, Block> results;
          Status st = engine.MultiplyBlocks(
              out_grid, tasks, flagged_source(a, trans_a),
              flagged_source(b, trans_b),
              [&](int64_t bi, int64_t bj, Block blk) {
                MutexLock lock(&mu);
                results.emplace(std::make_pair(bi, bj), std::move(blk));
              },
              trans_a, trans_b);
          ASSERT_TRUE(st.ok()) << st;
          ASSERT_EQ(results.size(),
                    static_cast<size_t>(out_grid.num_blocks()));
          for (auto& [key, blk] : results) {
            EXPECT_TRUE(ApproxEqual(
                blk, expected->BlockAt(key.first, key.second), 1e-3))
                << key.first << "," << key.second;
          }
        }
      }
    }
  }
}

TEST_P(LocalEngineTest, PartialKRangeMultiply) {
  // CPMM-style task: only k in [1,3).
  const LocalMatrix a = LocalMatrix::RandomDense({8, 24}, 8, 3);
  const LocalMatrix b = LocalMatrix::RandomDense({24, 8}, 8, 4);
  LocalEngine engine = MakeEngine(GetParam());
  const BlockGrid out_grid{{8, 8}, 8};

  Mutex mu;
  Block result;
  Status st = engine.MultiplyBlocks(
      out_grid, {{0, 0, 1, 3}}, Source(a), Source(b),
      [&](int64_t, int64_t, Block blk) {
        MutexLock lock(&mu);
        result = std::move(blk);
      });
  ASSERT_TRUE(st.ok());

  DenseBlock expected(8, 8);
  for (int64_t k = 1; k < 3; ++k) {
    ASSERT_TRUE(
        MultiplyAccumulate(a.BlockAt(0, k), b.BlockAt(k, 0), &expected).ok());
  }
  EXPECT_TRUE(ApproxEqual(result, Block(expected), 1e-3));
}

TEST_P(LocalEngineTest, MissingBlockReportsError) {
  LocalEngine engine = MakeEngine(GetParam());
  const BlockGrid out_grid{{8, 8}, 8};
  auto null_source = [](int64_t, int64_t) {
    return std::shared_ptr<const Block>();
  };
  Status st = engine.MultiplyBlocks(out_grid, {{0, 0, 0, 1}}, null_source,
                                    null_source,
                                    [](int64_t, int64_t, Block) {});
  EXPECT_FALSE(st.ok());
}

TEST_P(LocalEngineTest, RunTasksPropagatesFirstError) {
  LocalEngine engine = MakeEngine(GetParam());
  std::vector<std::function<Status()>> tasks;
  tasks.push_back([] { return Status::Ok(); });
  tasks.push_back([] { return Status::Invalid("boom"); });
  tasks.push_back([] { return Status::Ok(); });
  Status st = engine.RunTasks(tasks);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

// Cancellation happens only at block-task boundaries: the pool abandons
// every task still queued once the token fires, and each engine call
// reports the token's status after its batch drains.

TEST_P(LocalEngineTest, PreFiredCancelTokenRunsNoTask) {
  const LocalMatrix a = LocalMatrix::RandomDense({32, 32}, 8, 5);
  const LocalMatrix b = LocalMatrix::RandomDense({32, 32}, 8, 6);
  const BlockGrid out_grid{{32, 32}, 8};
  const std::vector<MultiplyTask> tasks = EveryBlock(out_grid, 4);
  CancelToken token = CancelToken::Cancellable();
  token.Cancel();
  LocalEngine engine = MakeEngine(GetParam());
  engine.SetCancelToken(&token);

  std::atomic<int> sunk{0};
  Status st = engine.MultiplyBlocks(out_grid, tasks, Source(a), Source(b),
                                    [&](int64_t, int64_t, Block) { ++sunk; });
  EXPECT_EQ(st.code(), StatusCode::kCancelled) << st;
  EXPECT_EQ(sunk.load(), 0);

  std::atomic<int> ran{0};
  std::vector<std::function<Status()>> work(8, [&] {
    ++ran;
    return Status::Ok();
  });
  st = engine.RunTasks(work);
  EXPECT_EQ(st.code(), StatusCode::kCancelled) << st;
  EXPECT_EQ(ran.load(), 0);
}

TEST_P(LocalEngineTest, CancelFiredInsideFirstTaskReturnsCancelled) {
  const LocalMatrix a = LocalMatrix::RandomDense({64, 64}, 8, 7);
  const LocalMatrix b = LocalMatrix::RandomDense({64, 64}, 8, 8);
  const BlockGrid out_grid{{64, 64}, 8};
  const std::vector<MultiplyTask> tasks = EveryBlock(out_grid, 8);
  CancelToken token = CancelToken::Cancellable();
  LocalEngine engine = MakeEngine(GetParam());
  engine.SetCancelToken(&token);

  // Every operand fetch fires the token, so once a task has begun no
  // queued task starts: only the tasks already picked up by then (at most
  // one per pool thread) run to completion.
  const LocalEngine::BlockFn source_a = Source(a);
  const LocalEngine::BlockFn firing_a = [&](int64_t bi, int64_t k) {
    token.Cancel();
    return source_a(bi, k);
  };
  std::atomic<int> sunk{0};
  Status st = engine.MultiplyBlocks(out_grid, tasks, firing_a, Source(b),
                                    [&](int64_t, int64_t, Block) { ++sunk; });
  EXPECT_EQ(st.code(), StatusCode::kCancelled) << st;
  EXPECT_LE(sunk.load(), static_cast<int>(pool_.num_threads()));

  // The same for plain tasks, with a fresh token the first task fires.
  token = CancelToken::Cancellable();
  std::atomic<int> ran{0};
  std::vector<std::function<Status()>> work(64, [&] {
    token.Cancel();
    ++ran;
    return Status::Ok();
  });
  st = engine.RunTasks(work);
  EXPECT_EQ(st.code(), StatusCode::kCancelled) << st;
  EXPECT_LE(ran.load(), static_cast<int>(pool_.num_threads()));
}

INSTANTIATE_TEST_SUITE_P(BothModes, LocalEngineTest,
                         ::testing::Values(LocalMode::kInPlace,
                                           LocalMode::kBuffer),
                         [](const auto& info) {
                           return info.param == LocalMode::kInPlace
                                      ? "InPlace"
                                      : "Buffer";
                         });

TEST(LocalEngineMemoryTest, BufferModeUsesMoreMemoryThanInPlace) {
  // Dense multiply with a long k-chain: Buffer materializes k partials per
  // output block, In-Place folds them into one accumulator (Fig. 7).
  const LocalMatrix a = LocalMatrix::RandomDense({32, 256}, 32, 7);
  const LocalMatrix b = LocalMatrix::RandomDense({256, 32}, 32, 8);
  const BlockGrid out_grid{{32, 32}, 32};

  auto run = [&](LocalMode mode) {
    ThreadPool pool(2);
    LocalEngine engine(&pool, mode);
    auto source = [](const LocalMatrix& m) {
      return [&m](int64_t bi, int64_t bj) {
        return std::shared_ptr<const Block>(std::shared_ptr<void>(),
                                            &m.BlockAt(bi, bj));
      };
    };
    MemTracker::Global().ResetPeak();
    const int64_t before = MemTracker::Global().peak_bytes();
    Mutex mu;
    std::vector<Block> results;
    Status st = engine.MultiplyBlocks(
        out_grid, {{0, 0, 0, 8}}, source(a), source(b),
        [&](int64_t, int64_t, Block blk) {
          MutexLock lock(&mu);
          results.push_back(std::move(blk));
        });
    EXPECT_TRUE(st.ok());
    return MemTracker::Global().peak_bytes() - before;
  };

  const int64_t inplace_peak = run(LocalMode::kInPlace);
  const int64_t buffer_peak = run(LocalMode::kBuffer);
  EXPECT_GT(buffer_peak, inplace_peak);
}

TEST(LocalEngineMemoryTest, DenseResultIsItsAccumulatorNotACopy) {
  // One 512x512 dense output block from a thin k = 4 product: the operands
  // and GEMM scratch are small, so the peak is the accumulator itself. The
  // result keeps the accumulator's storage; a copy would put two output
  // blocks in memory at once. Once the task ends, the result is the only
  // block it left alive.
  const int64_t n = 512;
  const LocalMatrix a = LocalMatrix::RandomDense({n, 4}, n, 7);
  const LocalMatrix b = LocalMatrix::RandomDense({4, n}, n, 8);
  const BlockGrid out_grid{{n, n}, n};
  ThreadPool pool(2);
  LocalEngine engine(&pool, LocalMode::kInPlace);
  auto source = [](const LocalMatrix& m) {
    return [&m](int64_t bi, int64_t bj) {
      return std::shared_ptr<const Block>(std::shared_ptr<void>(),
                                          &m.BlockAt(bi, bj));
    };
  };
  MemTracker::Global().ResetPeak();
  const int64_t before = MemTracker::Global().current_bytes();
  Block result;
  Status st = engine.MultiplyBlocks(
      out_grid, {{0, 0, 0, 1}}, source(a), source(b),
      [&](int64_t, int64_t, Block blk) { result = std::move(blk); });
  ASSERT_TRUE(st.ok()) << st;
  ASSERT_TRUE(result.IsDense());
  const int64_t out_bytes = DenseBlock::MemoryBytesFor(n, n);
  EXPECT_LT(MemTracker::Global().peak_bytes() - before, out_bytes * 3 / 2);
  EXPECT_EQ(MemTracker::Global().current_bytes() - before, out_bytes);
}

TEST(LocalEngineMemoryTest, DenseResultOutlivesItsEngine) {
  // The sink owns what it is given: a dense result stays valid and counted
  // after its engine and thread pool are gone, and its bytes leave the books
  // only when the caller drops it.
  const LocalMatrix a = LocalMatrix::RandomDense({32, 8}, 32, 7);
  const LocalMatrix b = LocalMatrix::RandomDense({8, 32}, 32, 8);
  const auto expected = a.Multiply(b);
  ASSERT_TRUE(expected.ok());
  const int64_t before = MemTracker::Global().current_bytes();
  Block result;
  {
    ThreadPool pool(2);
    LocalEngine engine(&pool, LocalMode::kInPlace);
    ASSERT_TRUE(engine
                    .MultiplyBlocks(
                        BlockGrid{{32, 32}, 32}, {{0, 0, 0, 1}},
                        [&a](int64_t bi, int64_t bj) {
                          return std::shared_ptr<const Block>(
                              std::shared_ptr<void>(), &a.BlockAt(bi, bj));
                        },
                        [&b](int64_t bi, int64_t bj) {
                          return std::shared_ptr<const Block>(
                              std::shared_ptr<void>(), &b.BlockAt(bi, bj));
                        },
                        [&](int64_t, int64_t, Block blk) {
                          result = std::move(blk);
                        })
                    .ok());
  }
  ASSERT_TRUE(result.IsDense());
  EXPECT_EQ(MemTracker::Global().current_bytes() - before,
            result.MemoryBytes());
  EXPECT_TRUE(ApproxEqual(result, expected->BlockAt(0, 0), 1e-3));
  result = Block();
  EXPECT_EQ(MemTracker::Global().current_bytes(), before);
}

TEST(LocalEngineMemoryTest, EachAccumulatorStartsZeroed) {
  // A product of zeros adds nothing to its accumulator (the GEMM skips
  // all-zero panels), so any value left in the storage an earlier task's
  // result gave back would surface in this result.
  const LocalMatrix a = LocalMatrix::RandomDense({64, 64}, 16, 7);
  const LocalMatrix b = LocalMatrix::RandomDense({64, 64}, 16, 8);
  const LocalMatrix zeros = LocalMatrix::Zeros({64, 64}, 16);
  const BlockGrid out_grid{{64, 64}, 16};
  auto source = [](const LocalMatrix& m) {
    return [&m](int64_t bi, int64_t bj) {
      return std::shared_ptr<const Block>(std::shared_ptr<void>(),
                                          &m.BlockAt(bi, bj));
    };
  };
  std::vector<MultiplyTask> tasks;
  for (int64_t bi = 0; bi < 4; ++bi) {
    for (int64_t bj = 0; bj < 4; ++bj) tasks.push_back({bi, bj, 0, 4});
  }
  for (LocalMode mode : {LocalMode::kInPlace, LocalMode::kBuffer}) {
    ThreadPool pool(2);
    LocalEngine engine(&pool, mode);
    for (int round = 0; round < 4; ++round) {
      std::atomic<int> dirty_blocks{0};
      ASSERT_TRUE(engine
                      .MultiplyBlocks(out_grid, tasks, source(a), source(b),
                                      [](int64_t, int64_t, Block) {})
                      .ok());
      ASSERT_TRUE(engine
                      .MultiplyBlocks(out_grid, tasks, source(a),
                                      source(zeros),
                                      [&](int64_t, int64_t, Block blk) {
                                        if (blk.HasNonZero()) ++dirty_blocks;
                                      })
                      .ok());
      EXPECT_EQ(dirty_blocks.load(), 0) << "round " << round;
    }
  }
}

TEST(LocalEngineMemoryTest, ConcurrentTasksLeaveOnlyTheirResultsLive) {
  // Sixteen result blocks on four threads, dense and sparse operands mixed:
  // every accumulator, partial and GEMM panel a task allocates is freed by
  // the time the batch returns, so the live bytes are the results' bytes.
  const LocalMatrix a = LocalMatrix::RandomDense({64, 64}, 16, 7);
  const LocalMatrix b = LocalMatrix::RandomSparse({64, 64}, 16, 0.05, 8);
  const BlockGrid out_grid{{64, 64}, 16};
  auto source = [](const LocalMatrix& m) {
    return [&m](int64_t bi, int64_t bj) {
      return std::shared_ptr<const Block>(std::shared_ptr<void>(),
                                          &m.BlockAt(bi, bj));
    };
  };
  std::vector<MultiplyTask> tasks;
  for (int64_t bi = 0; bi < 4; ++bi) {
    for (int64_t bj = 0; bj < 4; ++bj) tasks.push_back({bi, bj, 0, 4});
  }
  for (LocalMode mode : {LocalMode::kInPlace, LocalMode::kBuffer}) {
    ThreadPool pool(4);
    LocalEngine engine(&pool, mode);
    const int64_t before = MemTracker::Global().current_bytes();
    Mutex mu;
    std::vector<Block> results;
    ASSERT_TRUE(engine
                    .MultiplyBlocks(out_grid, tasks, source(a), source(b),
                                    [&](int64_t, int64_t, Block blk) {
                                      MutexLock lock(&mu);
                                      results.push_back(std::move(blk));
                                    })
                    .ok());
    int64_t result_bytes = 0;
    for (const Block& r : results) result_bytes += r.MemoryBytes();
    EXPECT_EQ(MemTracker::Global().current_bytes() - before, result_bytes);
    results.clear();
    EXPECT_EQ(MemTracker::Global().current_bytes(), before);
  }
}

// --- FIFO replay of a worker's batch (the worker-seconds model) -----------

TEST(FifoMakespanTest, TasksTakeTheEarliestFreeLane) {
  EXPECT_DOUBLE_EQ(FifoMakespan({3, 1, 1, 1}, 2), 3);
  EXPECT_DOUBLE_EQ(FifoMakespan({1, 1, 1, 1}, 2), 2);
  EXPECT_DOUBLE_EQ(FifoMakespan({}, 2), 0);
  EXPECT_DOUBLE_EQ(FifoMakespan({2, 0.5, 1, 3}, 1), 6.5);
}

// --- Per-batch completion: concurrent submitters share one pool -----------

TEST(LocalEngineBatchTest, BatchReturnsWhileAnotherThreadsTaskRuns) {
  ThreadPool pool(2);
  LocalEngine engine(&pool, LocalMode::kInPlace);
  std::atomic<bool> slow_started{false};
  std::atomic<bool> fast_returned{false};
  std::atomic<bool> slow_done{false};

  // The slow batch holds one pool thread until the fast batch returned.
  // The hold is bounded, so an engine whose batches wait for the whole
  // pool fails the expectations below instead of hanging.
  std::thread slow_submitter([&] {
    std::vector<std::function<Status()>> slow{[&] {
      slow_started = true;
      const auto give_up =
          std::chrono::steady_clock::now() + std::chrono::seconds(5);
      while (!fast_returned && std::chrono::steady_clock::now() < give_up) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      slow_done = true;
      return Status::Ok();
    }};
    EXPECT_TRUE(engine.RunTasks(slow).ok());
  });
  while (!slow_started) std::this_thread::yield();

  std::atomic<int> ran{0};
  std::vector<std::function<Status()>> fast(8, [&ran] {
    ++ran;
    return Status::Ok();
  });
  EXPECT_TRUE(engine.RunTasks(fast).ok());
  EXPECT_EQ(ran.load(), 8);
  EXPECT_FALSE(slow_done.load()) << "the fast batch waited for another "
                                    "thread's task";
  fast_returned = true;
  slow_submitter.join();
  EXPECT_TRUE(slow_done.load());
}

TEST(LocalEngineBatchTest, AbandonedTasksStillCompleteTheirBatch) {
  // One pool thread: the first task fires the token, so the batch's other
  // 31 tasks are still queued and are abandoned, never run. The batch must
  // count them as done and return the token's status.
  ThreadPool pool(1);
  LocalEngine engine(&pool, LocalMode::kInPlace);
  CancelToken token = CancelToken::Cancellable();
  engine.SetCancelToken(&token);
  std::atomic<int> ran{0};
  std::vector<std::function<Status()>> work(32, [&] {
    token.Cancel();
    ++ran;
    return Status::Ok();
  });
  WorkerContext ctx;
  ctx.lanes = 2;
  LocalEngine::BindWorker(&ctx);
  const Status st = engine.RunTasks(work);
  LocalEngine::BindWorker(nullptr);
  EXPECT_EQ(st.code(), StatusCode::kCancelled) << st;
  EXPECT_EQ(ran.load(), 1);
  EXPECT_GE(ctx.batch_seconds, 0);
}

TEST(LocalEngineBatchTest, BoundWorkerAccumulatesReplayedSeconds) {
  ThreadPool pool(2);
  LocalEngine engine(&pool, LocalMode::kInPlace);
  // Busy-work tasks (CPU time, not sleeps: the replay reads thread CPU).
  std::atomic<uint64_t> sink{0};
  std::vector<std::function<Status()>> work(4, [&sink] {
    uint64_t x = 1;
    for (int i = 0; i < 2000000; ++i) x = x * 6364136223846793005ULL + 1;
    sink += x;
    return Status::Ok();
  });
  WorkerContext ctx;
  ctx.lanes = 1;
  LocalEngine::BindWorker(&ctx);
  ASSERT_TRUE(engine.RunTasks(work).ok());
  LocalEngine::BindWorker(nullptr);
  EXPECT_GT(ctx.batch_seconds, 0);
  // Unbound batches charge no context.
  const double charged = ctx.batch_seconds;
  ASSERT_TRUE(engine.RunTasks(work).ok());
  EXPECT_EQ(ctx.batch_seconds, charged);
}

}  // namespace
}  // namespace dmac
