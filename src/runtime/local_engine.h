// Worker-local block execution engine (paper §5.3, Fig. 4).
//
// Operations on one worker are packaged into independent tasks — one task
// per result block — and every task enters one shared FIFO that the
// worker's threads drain, so skewed task costs (hub blocks of power-law
// graphs) balance automatically. Two implementations of blocked
// multiplication are provided:
//
//  * kInPlace (DMac's approach): each task allocates one dense accumulator
//    and folds every contributing block product into it in place; no
//    intermediate block is ever materialized. A result dense enough to stay
//    dense is the accumulator itself.
//  * kBuffer (the traditional approach, the Fig. 7 ablation): all partial
//    block products are materialized first and aggregated afterwards, so
//    peak memory grows with the number of partials.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "governor/cancel_token.h"
#include "matrix/block_ops.h"

namespace dmac {

/// Local multiplication mode.
enum class LocalMode { kInPlace, kBuffer };

/// One output block a multiplication must produce: C(bi,bj) accumulated
/// over k in [k_begin, k_end).
struct MultiplyTask {
  int64_t bi;
  int64_t bj;
  int64_t k_begin;
  int64_t k_end;
};

/// What a batch of block tasks computes — the label used for their trace
/// spans and per-kind kernel-time histograms (docs/observability.md).
enum class TaskKind { kMultiply, kTranspose, kElementwise, kAggregate };

const char* TaskKindName(TaskKind kind);

/// The simulated worker on whose behalf a thread submits engine batches.
/// The executor binds one to each worker launch (LocalEngine::BindWorker);
/// the compute pool's threads are shared by every worker, so what a worker
/// owns is its batches, not threads.
struct WorkerContext {
  /// Host the batches' task spans are attributed to (-1: unattributed).
  int host = -1;
  /// L, the threads of one simulated worker (the paper's local parallelism).
  int lanes = 1;
  /// Σ over the batches submitted under this context of the FifoMakespan of
  /// their tasks' thread-CPU seconds on `lanes` lanes: the time the batches
  /// take on an uncontended L-thread Fig. 4 queue.
  double batch_seconds = 0;
};

/// Makespan of tasks taking `seconds` each, dequeued in order by `lanes`
/// threads: every task starts on the earliest-free lane. 0 for no tasks;
/// the sum of `seconds` on one lane.
double FifoMakespan(const std::vector<double>& seconds, int lanes);

/// Executes block tasks on a thread pool shared by every simulated worker;
/// a batch belongs to the worker bound to the thread that submits it, and
/// concurrent batches from several threads complete independently.
class LocalEngine {
 public:
  /// Fetches operand block (index pair) → block pointer (never null for
  /// valid indices).
  using BlockFn =
      std::function<std::shared_ptr<const Block>(int64_t, int64_t)>;
  /// Receives a finished result block. Called from worker threads; must be
  /// thread-safe.
  using SinkFn = std::function<void(int64_t, int64_t, Block)>;

  LocalEngine(ThreadPool* pool, LocalMode mode) : pool_(pool), mode_(mode) {}

  /// Computes C(bi,bj) = Σ_k op(A)(bi,k)·op(B)(k,bj) for every task. Block
  /// shapes come from the output grid. Blocks denser than
  /// kDensityThreshold are emitted dense, sparser ones as CSC.
  ///
  /// trans_a/trans_b apply the transpose-fused operand flags (see
  /// matrix/kernels.h): the BlockFn is still called with *logical* indices
  /// of the effective operand — the caller maps them to stored indices —
  /// and each fetched stored block is consumed through the flagged kernels
  /// without materializing its transpose. Each block task runs its kernels
  /// serially on the pool thread that claimed it: block tasks are the
  /// engine's only unit of parallel work.
  Status MultiplyBlocks(const BlockGrid& out_grid,
                        const std::vector<MultiplyTask>& tasks,
                        const BlockFn& get_a, const BlockFn& get_b,
                        const SinkFn& sink, bool trans_a = false,
                        bool trans_b = false);

  /// Runs arbitrary independent block tasks (cell-wise operators, scalar
  /// ops, transposes) through the task queue. `kind` labels the tasks'
  /// trace spans and kernel-time histogram.
  Status RunTasks(const std::vector<std::function<Status()>>& tasks,
                  TaskKind kind = TaskKind::kElementwise);

  /// Binds `ctx` (null: none) to the calling thread: batches the thread
  /// submits from now on attribute their task spans to `ctx->host` and add
  /// their replayed seconds to `ctx->batch_seconds`. Unbound batches read
  /// no CPU clock.
  static void BindWorker(WorkerContext* ctx);

  /// Attaches the query's cancel token (may be null). Once the token fires,
  /// still-queued tasks are abandoned (never run), running tasks finish,
  /// and each engine call returns the token's status after its batch
  /// drains — the kernel-task poll boundary of docs/governance.md.
  void SetCancelToken(const CancelToken* token) { cancel_ = token; }

 private:
  Status MultiplyInPlace(const BlockGrid& out_grid,
                         const std::vector<MultiplyTask>& tasks,
                         const BlockFn& get_a, const BlockFn& get_b,
                         const SinkFn& sink, bool trans_a, bool trans_b);
  Status MultiplyBuffered(const BlockGrid& out_grid,
                          const std::vector<MultiplyTask>& tasks,
                          const BlockFn& get_a, const BlockFn& get_b,
                          const SinkFn& sink, bool trans_a, bool trans_b);

  /// Submits one closure per task to the shared queue (Fig. 4), then waits
  /// for this batch's tasks — other threads' batches may still run. Under a
  /// bound WorkerContext each task's thread-CPU time is read for the
  /// replay. When tracing or metrics are enabled each task additionally
  /// records a span, its queue wait, and its kernel time under `kind`.
  void Dispatch(size_t num_tasks, const std::function<void(size_t)>& run_task,
                TaskKind kind);

  /// Non-ok once the attached token fired; polled after every batch.
  Status CancelStatus() const;

  ThreadPool* pool_;
  LocalMode mode_;
  const CancelToken* cancel_ = nullptr;
};

}  // namespace dmac
