#include "runtime/local_engine.h"

#include <algorithm>
#include <atomic>
#include <unordered_map>
#include <vector>

#include "common/sync.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dmac {

namespace {

/// The calling thread's bound worker (LocalEngine::BindWorker).
thread_local WorkerContext* bound_worker = nullptr;

/// Kernel-time histogram for one task kind (stable instrument pointers).
Histogram* TaskHistogram(TaskKind kind) {
  static Histogram* multiply =
      MetricRegistry::Global().histogram(kMetricTaskSecondsMultiply);
  static Histogram* transpose =
      MetricRegistry::Global().histogram(kMetricTaskSecondsTranspose);
  static Histogram* elementwise =
      MetricRegistry::Global().histogram(kMetricTaskSecondsElementwise);
  static Histogram* aggregate =
      MetricRegistry::Global().histogram(kMetricTaskSecondsAggregate);
  switch (kind) {
    case TaskKind::kMultiply:
      return multiply;
    case TaskKind::kTranspose:
      return transpose;
    case TaskKind::kElementwise:
      return elementwise;
    case TaskKind::kAggregate:
      return aggregate;
  }
  return elementwise;
}

/// Feeds a task's kernel accounting into engine.gemm_flops and
/// engine.gemm.pack.seconds (stable instrument pointers; call only while
/// the registry is enabled). Thread-safe — instruments are atomics.
void ObserveGemmStats(const GemmStats& stats) {
  static Counter* flops = MetricRegistry::Global().counter(kMetricGemmFlops);
  static Histogram* pack =
      MetricRegistry::Global().histogram(kMetricGemmPackSeconds);
  flops->Add(stats.flops);
  pack->Observe(stats.pack_seconds);
}

/// Collects the first task failure across threads.
class StatusCollector {
 public:
  void Record(Status status) DMAC_EXCLUDES(mu_) {
    if (status.ok()) return;
    MutexLock lock(&mu_);
    if (first_.ok()) first_ = std::move(status);
  }
  Status Take() DMAC_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return first_;
  }

 private:
  Mutex mu_;
  Status first_ DMAC_GUARDED_BY(mu_);
};

}  // namespace

const char* TaskKindName(TaskKind kind) {
  switch (kind) {
    case TaskKind::kMultiply:
      return "multiply";
    case TaskKind::kTranspose:
      return "transpose";
    case TaskKind::kElementwise:
      return "elementwise";
    case TaskKind::kAggregate:
      return "aggregate";
  }
  return "?";
}

double FifoMakespan(const std::vector<double>& seconds, int lanes) {
  std::vector<double> free_at(static_cast<size_t>(std::max(lanes, 1)), 0.0);
  for (double s : seconds) {
    *std::min_element(free_at.begin(), free_at.end()) += s;
  }
  return *std::max_element(free_at.begin(), free_at.end());
}

void LocalEngine::BindWorker(WorkerContext* ctx) { bound_worker = ctx; }

Status LocalEngine::MultiplyBlocks(const BlockGrid& out_grid,
                                   const std::vector<MultiplyTask>& tasks,
                                   const BlockFn& get_a, const BlockFn& get_b,
                                   const SinkFn& sink, bool trans_a,
                                   bool trans_b) {
  return mode_ == LocalMode::kInPlace
             ? MultiplyInPlace(out_grid, tasks, get_a, get_b, sink, trans_a,
                               trans_b)
             : MultiplyBuffered(out_grid, tasks, get_a, get_b, sink, trans_a,
                                trans_b);
}

void LocalEngine::Dispatch(size_t num_tasks,
                           const std::function<void(size_t)>& run_task,
                           TaskKind kind) {
  // Queued tasks of a cancelled query are abandoned by the pool.
  const std::atomic<bool>* abandon =
      cancel_ != nullptr ? cancel_->fired_flag() : nullptr;
  WorkerContext* const ctx = bound_worker;
  const int worker = ctx != nullptr ? ctx->host : -1;

  // Observation is decided once per batch. An observed task records its
  // queue wait (submit -> first instruction), a worker-attributed trace
  // span, and its kernel time; with observation off each task costs one
  // extra well-predicted branch where it is submitted and one where it runs.
  const bool observe = TraceRecorder::Global().enabled() ||
                       MetricRegistry::Global().enabled();
  static Histogram* wait_hist =
      MetricRegistry::Global().histogram(kMetricQueueWaitSeconds);
  static Counter* task_counter =
      MetricRegistry::Global().counter(kMetricEngineTasks);
  Histogram* task_hist = TaskHistogram(kind);
  const char* name = TaskKindName(kind);
  // Per-task submit times, written before Submit hands the task over, and
  // per-task thread-CPU seconds for the worker's replay (an abandoned task
  // keeps 0). Kept out of the task closures so a queued closure stays small
  // enough for std::function's inline storage.
  std::vector<int64_t> submit_ns(observe ? num_tasks : 0);
  std::vector<double> cpu_s(ctx != nullptr ? num_tasks : 0);
  auto observed = [&](size_t i) {
    const int64_t start_ns = TraceRecorder::Global().NowNs();
    wait_hist->Observe(static_cast<double>(start_ns - submit_ns[i]) * 1e-9);
    TraceSpan span(kTraceTask, name, worker);
    Timer timer;
    run_task(i);
    task_hist->Observe(timer.ElapsedSeconds());
    task_counter->Increment();
  };
  auto run = [&](size_t i) {
    const int64_t cpu_start_ns = ctx != nullptr ? ThreadCpuNs() : 0;
    if (observe) {
      observed(i);
    } else {
      run_task(i);
    }
    if (ctx != nullptr) {
      cpu_s[i] = static_cast<double>(ThreadCpuNs() - cpu_start_ns) * 1e-9;
    }
  };

  // Fig. 4: one entry per task in the shared queue; idle threads pull.
  TaskGroup batch;
  for (size_t i = 0; i < num_tasks; ++i) {
    if (observe) submit_ns[i] = TraceRecorder::Global().NowNs();
    pool_->Submit(abandon, [&run, i] { run(i); }, &batch);
  }
  batch.Wait();
  if (ctx != nullptr) ctx->batch_seconds += FifoMakespan(cpu_s, ctx->lanes);
}

Status LocalEngine::CancelStatus() const {
  if (cancel_ == nullptr || !cancel_->active()) return Status::Ok();
  return cancel_->Check();
}

Status LocalEngine::MultiplyInPlace(const BlockGrid& out_grid,
                                    const std::vector<MultiplyTask>& tasks,
                                    const BlockFn& get_a, const BlockFn& get_b,
                                    const SinkFn& sink, bool trans_a,
                                    bool trans_b) {
  StatusCollector errors;
  Dispatch(tasks.size(), [&](size_t task_index) {
    const MultiplyTask& task = tasks[task_index];
    {
      const Shape shape = out_grid.BlockShape(task.bi, task.bj);

      // Collect the task's operand pairs; an all-sparse chain takes the
      // Gustavson path (one column workspace, no dense accumulator), which
      // is what keeps In-Place memory bounded on large sparse blocks. The
      // chain kernel is flag-blind, so flagged multiplies always use the
      // dense accumulator with the transpose-aware kernels.
      std::vector<std::shared_ptr<const Block>> keep_alive;
      std::vector<std::pair<const CscBlock*, const CscBlock*>> sparse_chain;
      bool all_sparse = !trans_a && !trans_b;
      for (int64_t k = task.k_begin; k < task.k_end; ++k) {
        auto a = get_a(task.bi, k);
        auto b = get_b(k, task.bj);
        if (a == nullptr || b == nullptr) {
          errors.Record(Status::Internal("missing operand block in multiply"));
          return;
        }
        all_sparse = all_sparse && a->IsSparse() && b->IsSparse();
        if (all_sparse) {
          sparse_chain.emplace_back(&a->sparse(), &b->sparse());
        }
        keep_alive.push_back(std::move(a));
        keep_alive.push_back(std::move(b));
      }

      if (all_sparse && !sparse_chain.empty()) {
        auto result = MultiplySparseChain(sparse_chain, shape.rows,
                                          shape.cols);
        if (!result.ok()) {
          errors.Record(result.status());
          return;
        }
        sink(task.bi, task.bj,
             Block(std::move(*result)).Compacted(kDensityThreshold));
        return;
      }

      DenseBlock acc(shape.rows, shape.cols);
      const bool observe = MetricRegistry::Global().enabled();
      GemmStats stats;
      {
        GemmScratch scratch;
        for (size_t i = 0; i + 1 < keep_alive.size(); i += 2) {
          Status st = MultiplyAccumulate(*keep_alive[i], *keep_alive[i + 1],
                                         trans_a, trans_b, &acc, &scratch,
                                         observe ? &stats : nullptr);
          if (!st.ok()) {
            errors.Record(std::move(st));
            return;
          }
        }
      }
      if (observe) ObserveGemmStats(stats);
      // Emit in the cheaper representation: a dense result is the
      // accumulator itself, a sparse one is a copy.
      sink(task.bi, task.bj, CompactFromDense(&acc, kDensityThreshold));
    }
  }, TaskKind::kMultiply);
  DMAC_RETURN_NOT_OK(CancelStatus());
  return errors.Take();
}

Status LocalEngine::MultiplyBuffered(const BlockGrid& out_grid,
                                     const std::vector<MultiplyTask>& tasks,
                                     const BlockFn& get_a, const BlockFn& get_b,
                                     const SinkFn& sink, bool trans_a,
                                     bool trans_b) {
  // Phase 1: materialize every partial block product (the traditional
  // buffered implementation the paper compares against in Fig. 7).
  struct Partial {
    int64_t bi;
    int64_t bj;
    Block block;
  };
  Mutex partials_mu;
  std::vector<Partial> partials;  // guarded by partials_mu during phase 1
  StatusCollector errors;

  struct Triple {
    int64_t bi;
    int64_t bj;
    int64_t k;
  };
  std::vector<Triple> triples;
  for (const MultiplyTask& task : tasks) {
    for (int64_t k = task.k_begin; k < task.k_end; ++k) {
      triples.push_back({task.bi, task.bj, k});
    }
  }
  Dispatch(triples.size(), [&](size_t i) {
    const Triple& triple = triples[i];
    auto a = get_a(triple.bi, triple.k);
    auto b = get_b(triple.k, triple.bj);
    if (a == nullptr || b == nullptr) {
      errors.Record(Status::Internal("missing operand block in multiply"));
      return;
    }
    Block partial;
    if (a->IsSparse() && b->IsSparse() && !trans_a && !trans_b) {
      // Sparse partials stay sparse in the buffer, which is why the
      // Fig. 7 gap narrows on very sparse graphs. (The chain kernel is
      // flag-blind; flagged sparse pairs fall through to the
      // transpose-aware kernels below.)
      auto res = MultiplySparseChain({{&a->sparse(), &b->sparse()}},
                                     a->rows(), b->cols());
      if (!res.ok()) {
        errors.Record(res.status());
        return;
      }
      partial = Block(std::move(*res));
    } else {
      const bool observe = MetricRegistry::Global().enabled();
      GemmStats stats;
      GemmScratch scratch;
      auto res = Multiply(*a, *b, trans_a, trans_b, &scratch,
                          observe ? &stats : nullptr);
      if (!res.ok()) {
        errors.Record(res.status());
        return;
      }
      if (observe) ObserveGemmStats(stats);
      partial = std::move(*res);
    }
    MutexLock lock(&partials_mu);
    partials.push_back({triple.bi, triple.bj, std::move(partial)});
  }, TaskKind::kMultiply);
  DMAC_RETURN_NOT_OK(CancelStatus());
  DMAC_RETURN_NOT_OK(errors.Take());

  // Phase 2: aggregate the buffered partials per output block.
  std::unordered_map<int64_t, std::vector<Block>> grouped;
  for (Partial& p : partials) {
    grouped[p.bi * out_grid.block_cols() + p.bj].push_back(
        std::move(p.block));
  }
  partials.clear();

  std::vector<std::pair<int64_t, std::vector<Block>*>> group_list;
  group_list.reserve(grouped.size());
  for (auto& [key, blocks] : grouped) group_list.emplace_back(key, &blocks);
  Dispatch(group_list.size(), [&](size_t i) {
    const int64_t bi = group_list[i].first / out_grid.block_cols();
    const int64_t bj = group_list[i].first % out_grid.block_cols();
    std::vector<const Block*> parts;
    parts.reserve(group_list[i].second->size());
    for (const Block& b : *group_list[i].second) parts.push_back(&b);
    auto result = SumBlocks(parts, kDensityThreshold);
    if (!result.ok()) {
      errors.Record(result.status());
      return;
    }
    sink(bi, bj, std::move(*result));
  }, TaskKind::kAggregate);
  DMAC_RETURN_NOT_OK(CancelStatus());
  return errors.Take();
}

Status LocalEngine::RunTasks(const std::vector<std::function<Status()>>& tasks,
                             TaskKind kind) {
  StatusCollector errors;
  Dispatch(tasks.size(),
           [&](size_t i) { errors.Record(tasks[i]()); }, kind);
  DMAC_RETURN_NOT_OK(CancelStatus());
  return errors.Take();
}

}  // namespace dmac
