#include "runtime/executor.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "common/sync.h"
#include "common/timer.h"
#include "common/thread_pool.h"
#include "matrix/mem_tracker.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/comm.h"
#include "runtime/fault_layer.h"
#include "runtime/governor_layer.h"

namespace dmac {

namespace {

/// The reduce hook of EvalScalar for plan steps: decomposition makes every
/// reduce a step of its own, so a step's scalar expression carries none.
Result<double> NoReduce(const ScalarExpr&) {
  return Status::Internal(
      "unresolved reduce in scalar expression (decompose bug)");
}

/// Thread-safe sink writing result blocks into one worker's store.
class StoreSink {
 public:
  StoreSink(DistMatrix* target, int worker) : target_(target), worker_(worker) {}

  void operator()(int64_t bi, int64_t bj, Block block) DMAC_EXCLUDES(mu_) {
    auto ptr = NewBlockPtr(std::move(block));
    MutexLock lock(&mu_);
    target_->Put(worker_, bi, bj, std::move(ptr));
  }

 private:
  Mutex mu_;
  DistMatrix* DMAC_PT_GUARDED_BY(mu_) target_;
  int worker_;
};

}  // namespace

std::string StepSpanName(const PlanStep& step) {
  std::string name = StepKindLabel(step, /*brief=*/true);
  if (!step.source.empty()) name += " " + step.source;
  return name;
}

class Executor::Impl final : public StepRunner {
 public:
  Impl(const ExecutorOptions& opts, const Plan& plan, const Bindings& bindings)
      : opts_(opts),
        plan_(plan),
        bindings_(bindings),
        pool_(ComputePoolThreads(opts.num_workers, opts.threads_per_worker)),
        launch_pool_(static_cast<size_t>(opts.num_workers)),
        engine_(&pool_, opts.local_mode),
        node_data_(plan.nodes.size()),
        last_consumer_(LastConsumers(plan)),
        comm_(opts.num_workers, &stats_) {
    if (opts_.governor.token.active()) {
      engine_.SetCancelToken(&opts_.governor.token);
    }
  }

  /// Runs the plan, then fills the metric registry from the run's ExecStats
  /// whether it completed or not.
  Result<ExecutionResult> Run() {
    Result<ExecutionResult> result = RunPlan();
    if (fault_) fault_->ExportStats();
    if (gov_) gov_->ExportStats();
    MetricRegistry::Global().Record(stats_, result.ok());
    if (result.ok()) result->stats = std::move(stats_);
    return result;
  }

 private:
  Result<ExecutionResult> RunPlan() {
    DMAC_RETURN_NOT_OK(CheckCancel());  // a 0 ms deadline fails before work
    DMAC_RETURN_NOT_OK(PickBlockSize());
    gov_ = GovernorLayer::Create(opts_.governor, plan_, &node_data_,
                                 block_size_);
    DMAC_ASSIGN_OR_RETURN(
        fault_, FaultLayer::Create(opts_, plan_, this, &node_data_,
                                   &last_consumer_, &scalars_, &stats_));
    comm_.set_fault_layer(fault_.get());
    if (fault_) DMAC_RETURN_NOT_OK(fault_->Resume());
    MemTracker::Global().ResetPeak();
    const int64_t mem_before_peak = MemTracker::Global().peak_bytes();

    // Steps run in dependency order, so stage numbers may interleave; each
    // contiguous run of same-stage steps becomes one stage span (the same
    // grouping Plan::ToString uses for its "=== Stage" headers).
    int current_stage = std::numeric_limits<int>::min();
    std::optional<TraceSpan> stage_span;
    for (const PlanStep& step : plan_.steps) {
      if (fault_) {
        DMAC_ASSIGN_OR_RETURN(const bool covered,
                              fault_->CoveredByResume(step));
        if (covered) continue;
      }
      const bool tracing = TraceRecorder::Global().enabled();
      if (step.stage != current_stage) {
        stage_span.reset();
        current_stage = step.stage;
        if (tracing) {
          stage_span.emplace(kTraceStage,
                             "stage " + std::to_string(current_stage), -1,
                             TraceArg("stage", int64_t{current_stage}));
        }
      }
      TraceSpan step_span =
          tracing ? TraceSpan(kTraceStep, StepSpanName(step), -1,
                              TraceArg("stage", int64_t{step.stage}) + "," +
                                  TraceArg("step", int64_t{step.id}))
                  : TraceSpan();
      DMAC_RETURN_NOT_OK(CheckCancel());
      if (gov_) DMAC_RETURN_NOT_OK(gov_->BeforeStep(step));
      Status step_status = fault_ ? fault_->RunStep(step) : ExecuteStep(step);
      if (!step_status.ok()) {
        // A failed or cancelled step leaves no partial output in the
        // stores. When the engine observed the token mid-kernel, surface
        // the governance status (and its one cancel span), not the
        // kernel's unwind error.
        if (step.output >= 0) {
          node_data_[static_cast<size_t>(step.output)] = nullptr;
        }
        DMAC_RETURN_NOT_OK(CheckCancel());
        return step_status;
      }
      ++stats_.steps_executed;
      if (gov_) gov_->AfterStep();
      // A clean run frees inputs no later step reads (paper §5.2); lineage
      // recovery needs them, so fault-tolerant runs keep them.
      for (int input : step.inputs) {
        if (!fault_ && last_consumer_[static_cast<size_t>(input)] == step.id) {
          node_data_[static_cast<size_t>(input)] = nullptr;
        }
      }
    }
    stage_span.reset();
    stats_.stages = plan_.num_stages;
    if (fault_) DMAC_RETURN_NOT_OK(fault_->Finish());

    ExecutionResult result;
    for (auto out = plan_.outputs.begin(); out != plan_.outputs.end(); ++out) {
      const bool last_gather = std::none_of(
          out + 1, plan_.outputs.end(),
          [&](const PlanOutput& o) { return o.node == out->node; });
      DMAC_ASSIGN_OR_RETURN(LocalMatrix m,
                            Gather(out->node, /*move=*/!fault_ && last_gather));
      if (out->transposed) m = m.Transposed();
      result.matrices.emplace(out->variable, std::move(m));
    }
    for (const auto& [var, ssa] : plan_.scalar_outputs) {
      auto it = scalars_.find(ssa);
      if (it == scalars_.end()) {
        return Status::NotFound("scalar output " + ssa + " never computed");
      }
      result.scalars.emplace(var, it->second);
    }
    stats_.peak_memory_bytes =
        std::max(MemTracker::Global().peak_bytes(), mem_before_peak);
    RecordEstimateDrift();
    return result;
  }

  /// Compares the plan's §4.1 communication estimate against what actually
  /// moved. The §5.1 worst-case sparsity rule (s_C = 1 after every
  /// multiply) can overestimate chained-multiply traffic by orders of
  /// magnitude; the planner.estimate.drift gauge makes that visible, and the
  /// .events counter fires when the divergence exceeds 4x (docs/planner.md).
  void RecordEstimateDrift() {
    stats_.estimated_comm_bytes = plan_.total_comm_bytes;
    const double estimated = plan_.total_comm_bytes;
    const double measured = stats_.comm_bytes();
    if (estimated > 0 && measured > 0) {
      stats_.estimate_drift =
          std::max(estimated, measured) / std::min(estimated, measured);
    } else if (estimated == measured) {
      stats_.estimate_drift = 1;  // both zero: a comm-free plan, no drift
    }
  }

  // ---- setup -------------------------------------------------------------

  Status PickBlockSize() {
    block_size_ = opts_.block_size;
    if (block_size_ == 0) {
      for (const auto& [name, matrix] : bindings_) {
        block_size_ = matrix->block_size();
        break;
      }
    }
    if (block_size_ <= 0) block_size_ = 1024;
    for (const auto& [name, matrix] : bindings_) {
      if (matrix->block_size() != block_size_) {
        return Status::Invalid(
            "binding " + name + " uses block size " +
            std::to_string(matrix->block_size()) + ", executor uses " +
            std::to_string(block_size_));
      }
    }
    return Status::Ok();
  }

  DistMatrix& Data(int node_id) {
    DMAC_CHECK(node_data_[static_cast<size_t>(node_id)] != nullptr)
        << "node " << node_id << " has no materialized data";
    return *node_data_[static_cast<size_t>(node_id)];
  }

  std::shared_ptr<DistMatrix> NewData(int node_id, Shape shape) override {
    const PlanNode& node = plan_.nodes[static_cast<size_t>(node_id)];
    auto dm = std::make_shared<DistMatrix>(BlockGrid{shape, block_size_},
                                           node.scheme(), opts_.num_workers);
    node_data_[static_cast<size_t>(node_id)] = dm;
    return dm;
  }

  /// The one place a step's worker-local work is launched (paper §5, Fig. 4:
  /// a stage is a barrier in which every worker runs its local tasks at the
  /// same time). Runs fn(w) for w in [0, workers) together, as one gang on
  /// the launch pool (a single launch runs on the calling thread), and
  /// returns once all of them finished. Each launch binds a WorkerContext,
  /// so the block tasks the engine runs for it inherit the host id for
  /// their spans.
  ///
  /// Worker w's seconds, charged to (step.stage, host of w) in worker order
  /// after the join, are the CPU time of its launch thread over fn(w), plus
  /// its engine batches replayed on L lanes (WorkerContext), plus its
  /// straggler delay. Neither measured part counts time spent waiting, so a
  /// worker is not charged for the others' work on the shared compute pool,
  /// and the per-stage maximum stays the slowest worker's. The fault layer
  /// moves the seconds of failed attempts and recovery sweeps to
  /// recovery_seconds.
  ///
  /// Each launch is also the fault layer's task-launch injection point,
  /// drawn for every worker in worker order before any runs: a transient
  /// failure ends the step after the workers ahead of it ran, and a
  /// straggler adds a simulated delay (nothing sleeps). The first failure
  /// in worker order is returned.
  ///
  /// Closure invariant: fn(w) writes only through a StoreSink or into its
  /// own per-worker slot (index w of a vector the caller sized). It never
  /// touches stats_, scalars_ or the fault layer; sums across workers
  /// happen after ForEachWorker returns, in worker order. So running the
  /// launches together changes no result bit.
  template <typename Fn>
  Status ForEachWorker(const PlanStep& step, int workers, const Fn& fn) {
    struct Launch {
      WorkerContext ctx;
      double delay = 0;  // simulated straggler seconds
      double cpu_s = 0;  // launch thread's CPU time over fn(w)
      Status status;
    };
    std::vector<Launch> launches;
    launches.reserve(static_cast<size_t>(workers));
    Status launch_status;
    for (int w = 0; w < workers; ++w) {
      Launch launch;
      if (fault_) {
        Result<double> delay = fault_->OnLaunch(step, w);
        if (!delay.ok()) {
          launch_status = delay.status();
          break;
        }
        launch.delay = *delay;
      }
      // Logical slot `w` may be hosted by a survivor after a permanent
      // death; timing and spans attribute to the physical host while the
      // block layout stays keyed by the logical slot (bit identity).
      launch.ctx.host = comm_.HostOf(w);
      launch.ctx.lanes = opts_.threads_per_worker;
      launches.push_back(launch);
    }

    const bool tracing = TraceRecorder::Global().enabled();
    const char* category =
        fault_ && fault_->recovering() ? kTraceRecovery : kTraceWorker;
    auto run = [&](int w) {
      Launch& launch = launches[static_cast<size_t>(w)];
      const int host = launch.ctx.host;
      TraceSpan span =
          !tracing ? TraceSpan()
          : launch.delay > 0
              ? TraceSpan(kTraceRecovery, "straggler " + StepSpanName(step),
                          host, TraceArg("delay_s", launch.delay))
              : TraceSpan(category, StepSpanName(step), host,
                          TraceArg("stage", int64_t{step.stage}));
      LocalEngine::BindWorker(&launch.ctx);
      const int64_t cpu_start_ns = ThreadCpuNs();
      launch.status = fn(w);
      launch.cpu_s = static_cast<double>(ThreadCpuNs() - cpu_start_ns) * 1e-9;
      LocalEngine::BindWorker(nullptr);
    };
    const int launched = static_cast<int>(launches.size());
    if (launched == 1) {
      run(0);
    } else if (launched > 1) {
      // The calling thread's one span over the gang.
      TraceSpan gang = tracing ? TraceSpan(category, StepSpanName(step), -1,
                                           TraceArg("stage",
                                                    int64_t{step.stage}))
                               : TraceSpan();
      TaskGroup gang_done;
      for (int w = 0; w < launched; ++w) {
        launch_pool_.Submit(nullptr, [&run, w] { run(w); }, &gang_done);
      }
      gang_done.Wait();
    }

    Status first;
    for (const Launch& launch : launches) {
      stats_.AddWorkerSeconds(
          step.stage, launch.ctx.host,
          launch.cpu_s + launch.ctx.batch_seconds + launch.delay);
      if (first.ok()) first = launch.status;
    }
    return first.ok() ? launch_status : first;
  }

  /// Workers a step over `src` launches: a Broadcast source is computed
  /// once, on worker 0, and the other replicas share the result.
  int LaunchWorkers(const DistMatrix& src) const {
    return src.scheme() == Scheme::kBroadcast ? 1 : opts_.num_workers;
  }

  // ---- cancellation (docs/governance.md) ----------------------------------

  /// Cooperative cancellation poll. The first failed check emits one
  /// `cancel` trace span recording how the query ended.
  Status CheckCancel() override {
    const CancelToken& token = opts_.governor.token;
    if (!token.active()) return Status::Ok();
    Status st = token.Check();
    if (!st.ok() && !cancel_span_emitted_) {
      cancel_span_emitted_ = true;
      TraceSpan span(kTraceCancel,
                     st.code() == StatusCode::kDeadlineExceeded
                         ? "deadline-exceeded"
                         : "cancelled");
    }
    return st;
  }

  // ---- step dispatch ------------------------------------------------------

  Status ExecuteStep(const PlanStep& step) override {
    DMAC_RETURN_NOT_OK(CheckCancel());
    // Recovery re-runs and retries restore spilled inputs here too.
    if (gov_) DMAC_RETURN_NOT_OK(gov_->Restore(step.inputs));
    switch (step.kind) {
      case StepKind::kLoad:
        return ExecLoad(step);
      case StepKind::kRandom:
        return ExecRandom(step);
      case StepKind::kPartition:
        return ExecPartition(step);
      case StepKind::kBroadcast:
        return ExecBroadcast(step);
      case StepKind::kTranspose:
        return ExecTranspose(step);
      case StepKind::kExtract:
        return ExecExtract(step);
      case StepKind::kCompute:
        return ExecCompute(step);
      case StepKind::kReduce:
        return ExecReduce(step);
      case StepKind::kScalarAssign: {
        DMAC_ASSIGN_OR_RETURN(double v,
                              EvalScalar(*step.scalar, scalars_, NoReduce));
        scalars_[step.scalar_out] = v;
        return Status::Ok();
      }
    }
    return Status::Internal("unknown step kind");
  }

  Status ExecLoad(const PlanStep& step) {
    auto it = bindings_.find(step.source);
    if (it == bindings_.end()) {
      return Status::NotFound("no binding for input matrix " + step.source);
    }
    const LocalMatrix& src = *it->second;
    if (src.shape() != step.decl_shape) {
      return Status::DimensionMismatch(
          "binding " + step.source + " is " + src.shape().ToString() +
          ", declared " + step.decl_shape.ToString());
    }
    auto dm = NewData(step.output, src.shape());
    const bool broadcast = dm->scheme() == Scheme::kBroadcast;
    CommRound round(&comm_, "load",
                    broadcast ? CommKind::kBroadcast : CommKind::kShuffle,
                    step.source);
    for (int64_t bi = 0; bi < dm->grid().block_rows(); ++bi) {
      for (int64_t bj = 0; bj < dm->grid().block_cols(); ++bj) {
        // Non-owning pointer into the binding: the caller keeps inputs
        // alive for the duration of Execute().
        DistMatrix::BlockPtr ptr(std::shared_ptr<void>(),
                                 &src.BlockAt(bi, bj));
        round.ChargeLoad(static_cast<double>(ptr->MemoryBytes()));
        dm->Put(dm->OwnerOf(bi, bj), bi, bj, std::move(ptr));
      }
    }
    if (broadcast) DMAC_RETURN_NOT_OK(comm_.Replicate(dm.get()));
    return round.End();
  }

  Status ExecRandom(const PlanStep& step) {
    auto dm = NewData(step.output, step.decl_shape);
    const BlockGrid& grid = dm->grid();
    // Deterministic per-block seeds make every replica identical, so a
    // Broadcast-scheme random matrix costs no communication.
    DMAC_RETURN_NOT_OK(ForEachWorker(step, LaunchWorkers(*dm), [&](int w) {
      StoreSink sink(dm.get(), w);
      for (int64_t bi = 0; bi < grid.block_rows(); ++bi) {
        for (int64_t bj = 0; bj < grid.block_cols(); ++bj) {
          if (dm->OwnerOf(bi, bj) != w) continue;
          const uint64_t seed =
              RandomBlockSeed(opts_.seed, step.source, bi, bj);
          const Shape s = grid.BlockShape(bi, bj);
          sink(bi, bj, RandomDenseBlock(s.rows, s.cols, seed));
        }
      }
      return Status::Ok();
    }));
    return dm->scheme() == Scheme::kBroadcast ? comm_.Replicate(dm.get())
                                              : Status::Ok();
  }

  Status ExecPartition(const PlanStep& step) {
    const DistMatrix& src = Data(step.inputs[0]);
    auto dst = NewData(step.output, src.grid().matrix);
    DMAC_CHECK(dst->scheme() != Scheme::kBroadcast);
    // A repartition onto the *same* scheme keeps every block in place, but
    // is charged as the hash shuffle a real cluster would run.
    const bool same_scheme = src.scheme() == dst->scheme();
    CommRound round(&comm_, "partition", CommKind::kShuffle);
    for (int64_t bi = 0; bi < src.grid().block_rows(); ++bi) {
      for (int64_t bj = 0; bj < src.grid().block_cols(); ++bj) {
        const int to = dst->OwnerOf(bi, bj);
        // Under a Broadcast source every worker already holds the block.
        const int from = src.scheme() == Scheme::kBroadcast
                             ? to
                             : src.OwnerOf(bi, bj);
        DMAC_ASSIGN_OR_RETURN(
            auto ptr, comm_.ReadBlock(src, from, bi, bj, "partition"));
        const double block_bytes = static_cast<double>(ptr->MemoryBytes());
        if (same_scheme) round.ChargeHashShuffle(block_bytes);
        round.Send(from, to, block_bytes,
                   [d = dst.get(), to, bi, bj, ptr = std::move(ptr)]() mutable {
                     d->Put(to, bi, bj, std::move(ptr));
                   });
      }
    }
    return round.End();
  }

  Status ExecBroadcast(const PlanStep& step) {
    const DistMatrix& src = Data(step.inputs[0]);
    auto dst = NewData(step.output, src.grid().matrix);
    DMAC_CHECK(dst->scheme() == Scheme::kBroadcast);
    CommRound round(&comm_, "broadcast", CommKind::kBroadcast);
    for (int64_t bi = 0; bi < src.grid().block_rows(); ++bi) {
      for (int64_t bj = 0; bj < src.grid().block_cols(); ++bj) {
        const int from = src.OwnerOf(bi, bj);
        DMAC_ASSIGN_OR_RETURN(
            auto ptr, comm_.ReadBlock(src, from, bi, bj, "broadcast"));
        const double block_bytes = static_cast<double>(ptr->MemoryBytes());
        for (int w = 0; w < opts_.num_workers; ++w) {
          round.Send(from, w, block_bytes,
                     [d = dst.get(), w, bi, bj, ptr]() mutable {
                       d->Put(w, bi, bj, std::move(ptr));
                     });
        }
      }
    }
    return round.End();
  }

  Status ExecTranspose(const PlanStep& step) {
    DistMatrix& src = Data(step.inputs[0]);
    auto dst = NewData(step.output, src.grid().matrix.Transposed());
    return MapBlocks(step, src, dst.get(), TaskKind::kTranspose,
                     [](int, int64_t, int64_t, const Block& block) {
                       return Result<Block>(block.Transposed());
                     });
  }

  Status ExecExtract(const PlanStep& step) {
    const DistMatrix& src = Data(step.inputs[0]);
    if (src.scheme() != Scheme::kBroadcast) {
      return Status::Internal("extract requires a Broadcast source");
    }
    auto dst = NewData(step.output, src.grid().matrix);
    // Each worker filters its owned range out of its local replica — a
    // pointer copy per block, no data movement.
    for (int64_t bi = 0; bi < dst->grid().block_rows(); ++bi) {
      for (int64_t bj = 0; bj < dst->grid().block_cols(); ++bj) {
        const int w = dst->OwnerOf(bi, bj);
        DMAC_ASSIGN_OR_RETURN(auto ptr,
                              comm_.ReadBlock(src, w, bi, bj, "extract"));
        dst->Put(w, bi, bj, std::move(ptr));
      }
    }
    return Status::Ok();
  }

  // ---- compute steps ------------------------------------------------------

  Status ExecCompute(const PlanStep& step) {
    switch (step.op_kind) {
      case OpKind::kMultiply:
        return ExecMultiply(step);
      case OpKind::kRowSums:
      case OpKind::kColSums:
        return ExecAggregate(step);
      case OpKind::kCellwise:
        return ExecCellwise(step);
      default:
        return Status::Internal("unexpected compute op kind");
    }
  }

  Status ExecMultiply(const PlanStep& step) {
    const DistMatrix& a = Data(step.inputs[0]);
    const DistMatrix& b = Data(step.inputs[1]);
    // A transpose-fused operand is stored untransposed: its *effective*
    // shape is the stored shape flipped, its stored scheme is the opposite
    // of what the strategy requires of the effective operand, and logical
    // block (i, j) lives at stored (j, i). Block boundaries line up because
    // both grids cut every dimension with the same block side.
    const bool ta = step.trans_a;
    const bool tb = step.trans_b;
    const Shape eff_a =
        ta ? a.grid().matrix.Transposed() : a.grid().matrix;
    const Shape eff_b =
        tb ? b.grid().matrix.Transposed() : b.grid().matrix;
    if (eff_a.cols != eff_b.rows) {
      return Status::DimensionMismatch("distributed multiply " +
                                       eff_a.ToString() + " by " +
                                       eff_b.ToString());
    }
    const Shape out_shape{eff_a.rows, eff_b.cols};
    auto c = NewData(step.output, out_shape);
    const BlockGrid& out_grid = c->grid();
    const int64_t kb = ta ? a.grid().block_rows() : a.grid().block_cols();

    switch (step.mult_algo) {
      case MultAlgo::kRMM1:
      case MultAlgo::kRMM2: {
        // RMM1: A broadcast, B column-partitioned; worker w computes the
        // output block-columns it owns. RMM2 mirrors it over block-rows.
        const bool rmm1 = step.mult_algo == MultAlgo::kRMM1;
        const Scheme a_rows = ta ? Scheme::kCol : Scheme::kRow;
        const Scheme b_cols = tb ? Scheme::kRow : Scheme::kCol;
        DMAC_CHECK(a.scheme() == (rmm1 ? Scheme::kBroadcast : a_rows));
        DMAC_CHECK(b.scheme() == (rmm1 ? b_cols : Scheme::kBroadcast));
        const int64_t owned =
            rmm1 ? out_grid.block_cols() : out_grid.block_rows();
        const int64_t other =
            rmm1 ? out_grid.block_rows() : out_grid.block_cols();
        return ForEachWorker(step, opts_.num_workers, [&](int w) {
          int64_t lo, hi;
          OwnedRange(w, owned, opts_.num_workers, &lo, &hi);
          std::vector<MultiplyTask> tasks;
          for (int64_t o = lo; o < hi; ++o) {
            for (int64_t i = 0; i < other; ++i) {
              tasks.push_back(rmm1 ? MultiplyTask{i, o, 0, kb}
                                   : MultiplyTask{o, i, 0, kb});
            }
          }
          StoreSink sink(c.get(), w);
          return MultiplyOnWorker(step, w, out_grid, tasks, a, b,
                                  [&sink](int64_t bi, int64_t bj, Block blk) {
                                    sink(bi, bj, std::move(blk));
                                  });
        });
      }
      case MultAlgo::kCPMM: {
        // Every worker forms its partial C over its own k-range; the
        // partials are then shuffled to their owners and summed.
        DMAC_CHECK(a.scheme() == (ta ? Scheme::kRow : Scheme::kCol));
        DMAC_CHECK(b.scheme() == (tb ? Scheme::kCol : Scheme::kRow));
        return ShuffleAndSum(
            step, c.get(), "cpmm-shuffle",
            [&](int w, std::vector<Partial>* out) {
              int64_t klo, khi;
              OwnedRange(w, kb, opts_.num_workers, &klo, &khi);
              if (klo >= khi) return Status::Ok();
              std::vector<MultiplyTask> tasks;
              for (int64_t bi = 0; bi < out_grid.block_rows(); ++bi) {
                for (int64_t bj = 0; bj < out_grid.block_cols(); ++bj) {
                  tasks.push_back({bi, bj, klo, khi});
                }
              }
              Mutex mu;  // guards *out while the engine's tasks run
              return MultiplyOnWorker(
                  step, w, out_grid, tasks, a, b,
                  [&](int64_t bi, int64_t bj, Block blk) {
                    if (!blk.HasNonZero()) return;  // nothing to ship
                    auto ptr = NewBlockPtr(std::move(blk));
                    MutexLock lock(&mu);
                    out->push_back({bi, bj, std::move(ptr), w});
                  });
            });
      }
      case MultAlgo::kNone:
        break;
    }
    return Status::Internal("multiply step without an algorithm");
  }

  /// Runs multiply `tasks` on `worker` over its stored operand blocks
  /// (transpose-fused operands are read at their stored indices).
  Status MultiplyOnWorker(const PlanStep& step, int worker,
                          const BlockGrid& out_grid,
                          const std::vector<MultiplyTask>& tasks,
                          const DistMatrix& a, const DistMatrix& b,
                          const LocalEngine::SinkFn& sink) {
    const bool ta = step.trans_a;
    const bool tb = step.trans_b;
    return engine_.MultiplyBlocks(
        out_grid, tasks,
        [&a, worker, ta](int64_t bi, int64_t k) {
          return ta ? a.Get(worker, k, bi) : a.Get(worker, bi, k);
        },
        [&b, worker, tb](int64_t k, int64_t bj) {
          return tb ? b.Get(worker, bj, k) : b.Get(worker, k, bj);
        },
        sink, ta, tb);
  }

  /// Shuffle-and-sum, the cross-product aggregation of CPMM and crossed
  /// row/col sums (cost N·|C|, §4.1). Every worker computes its partial
  /// blocks of `c` with `partials_of(w, &out)`; the comm layer then sends
  /// them, in (worker, block key) order, to the owners of their blocks.
  /// Each owner sums every block's partials in sender order. Output blocks
  /// no worker contributed to are zero blocks.
  template <typename PartialsOf>
  Status ShuffleAndSum(const PlanStep& step, DistMatrix* c, const char* round,
                       const PartialsOf& partials_of) {
    const BlockGrid& grid = c->grid();
    const auto key = [&grid](const Partial& p) {
      return p.bi * grid.block_cols() + p.bj;
    };
    std::vector<std::vector<Partial>> partials(
        static_cast<size_t>(opts_.num_workers));
    DMAC_RETURN_NOT_OK(ForEachWorker(step, opts_.num_workers, [&](int w) {
      return partials_of(w, &partials[static_cast<size_t>(w)]);
    }));
    std::vector<std::vector<Partial>> incoming;
    DMAC_RETURN_NOT_OK(comm_.ShuffleToOwners(
        step, round, *c, &partials, [this] { return CheckCancel(); },
        &incoming));

    DMAC_RETURN_NOT_OK(ForEachWorker(step, opts_.num_workers, [&](int w) {
      std::unordered_map<int64_t, std::vector<Partial>> grouped;
      for (Partial& p : incoming[static_cast<size_t>(w)]) {
        grouped[key(p)].push_back(std::move(p));
      }
      // Sum each output block's partials in sender order, regardless of
      // arrival order: locally-kept and network-delivered partials may
      // interleave differently, and floating-point addition is not
      // associative — the summation order must be canonical for the run to
      // stay bit-identical under reordering faults.
      for (auto& [k, parts] : grouped) {
        std::sort(parts.begin(), parts.end(),
                  [](const Partial& x, const Partial& y) {
                    return x.from < y.from;
                  });
      }
      StoreSink sink(c, w);
      std::vector<std::function<Status()>> tasks;
      tasks.reserve(grouped.size());
      for (const auto& [k, parts] : grouped) {
        tasks.push_back([&sink, &grid, k = k, parts = &parts]() -> Status {
          std::vector<const Block*> blocks;
          blocks.reserve(parts->size());
          for (const Partial& p : *parts) blocks.push_back(p.block.get());
          DMAC_ASSIGN_OR_RETURN(Block sum,
                                SumBlocks(blocks, kDensityThreshold));
          sink(k / grid.block_cols(), k % grid.block_cols(), std::move(sum));
          return Status::Ok();
        });
      }
      return engine_.RunTasks(tasks, TaskKind::kAggregate);
    }));

    for (int64_t bi = 0; bi < grid.block_rows(); ++bi) {
      for (int64_t bj = 0; bj < grid.block_cols(); ++bj) {
        const int w = c->OwnerOf(bi, bj);
        if (c->Get(w, bi, bj) == nullptr) {
          const Shape shape = grid.BlockShape(bi, bj);
          c->Put(w, bi, bj, NewBlockPtr(CscBlock(shape.rows, shape.cols)));
        }
      }
    }
    return Status::Ok();
  }

  /// Block map behind the transpose and element-wise steps:
  /// every worker turns each block (bi, bj) of `src` it holds into block
  /// fn(worker, bi, bj, block) of `dst` (at (bj, bi) for a transpose), one
  /// engine task per block. A Broadcast input is mapped once, on worker 0,
  /// and the other replicas share the result.
  ///
  /// In-place execution (§5.2, Fig. 7): when an element-wise step may write
  /// into `src` (InPlaceInput), the driver takes src's blocks out of their
  /// stores before the gang launches and moves each block nothing else
  /// references into fn as an rvalue, so the result can reuse its storage.
  /// Every other block, load-step aliases of the caller's bindings included
  /// (use_count 0), is lent as a const reference.
  template <typename Fn>
  Status MapBlocks(const PlanStep& step, DistMatrix& src, DistMatrix* dst,
                   TaskKind kind, const Fn& fn) {
    struct Input {
      int64_t bi, bj;
      std::optional<Block> owned;  // moved out of its store, or
      DistMatrix::BlockPtr lent;   // still shared: read only
    };
    const bool transpose = kind == TaskKind::kTranspose;
    // Lineage recovery re-reads inputs: only clean runs write in place.
    const bool in_place =
        !fault_ && InPlaceInput(plan_, step, last_consumer_) >= 0;
    const int workers = LaunchWorkers(src);
    std::vector<std::vector<Input>> inputs(static_cast<size_t>(workers));
    for (int w = 0; w < workers; ++w) {
      for (auto& [bi, bj, ptr] :
           in_place ? src.TakeWorkerBlocks(w) : src.WorkerBlocks(w)) {
        Input& in = inputs[static_cast<size_t>(w)].emplace_back();
        in.bi = bi;
        in.bj = bj;
        if (in_place && ptr.use_count() == 1) {
          // NewBlockPtr allocated the Block non-const: moving from it is safe.
          in.owned = std::move(const_cast<Block&>(*ptr));
        } else {
          in.lent = std::move(ptr);
        }
      }
    }
    DMAC_RETURN_NOT_OK(ForEachWorker(step, workers, [&](int w) {
      StoreSink sink(dst, w);
      std::vector<std::function<Status()>> tasks;
      tasks.reserve(inputs[static_cast<size_t>(w)].size());
      for (Input& in : inputs[static_cast<size_t>(w)]) {
        tasks.push_back([&fn, &sink, w, transpose, &in]() -> Status {
          const int64_t bi = transpose ? in.bj : in.bi;
          const int64_t bj = transpose ? in.bi : in.bj;
          Result<Block> out = in.owned
                                  ? fn(w, in.bi, in.bj, std::move(*in.owned))
                                  : fn(w, in.bi, in.bj, *in.lent);
          in = Input{};  // an input block the result did not reuse dies here
          DMAC_RETURN_NOT_OK(out.status());
          sink(bi, bj, std::move(*out));
          return Status::Ok();
        });
      }
      return engine_.RunTasks(tasks, kind);
    }));
    return src.scheme() == Scheme::kBroadcast ? comm_.Replicate(dst)
                                              : Status::Ok();
  }

  /// Every element-wise step: one CellOp applied block by block, a binary
  /// op pairing each block of the first input with the aligned block of
  /// the second.
  Status ExecCellwise(const PlanStep& step) {
    CellOp op = step.cell;
    if (step.scalar != nullptr) {
      DMAC_ASSIGN_OR_RETURN(double scalar,
                            EvalScalar(*step.scalar, scalars_, NoReduce));
      op.scalar = static_cast<Scalar>(scalar);
    }
    DistMatrix& a = Data(step.inputs[0]);
    const DistMatrix* b = op.binary() ? &Data(step.inputs[1]) : nullptr;
    if (b != nullptr) {
      if (a.grid().matrix != b->grid().matrix) {
        return Status::DimensionMismatch("distributed cell-wise op " +
                                         a.grid().matrix.ToString() + " vs " +
                                         b->grid().matrix.ToString());
      }
      DMAC_CHECK(a.scheme() == b->scheme());
    }
    auto c = NewData(step.output, a.grid().matrix);
    return MapBlocks(
        step, a, c.get(), TaskKind::kElementwise,
        [op, b](int w, int64_t bi, int64_t bj,
                auto&& ablk) -> Result<Block> {
          DistMatrix::BlockPtr bptr;
          if (b != nullptr && (bptr = b->Get(w, bi, bj)) == nullptr) {
            return Status::Internal("cell-wise op: operand block missing");
          }
          return Cellwise(op, std::forward<decltype(ablk)>(ablk),
                          bptr.get());
        });
  }

  /// Row/column sums. Summing along the partitioned axis is worker-local,
  /// and a Broadcast input is summed once on worker 0 and shared; summing
  /// across the partitioned axis leaves per-worker partial vectors that
  /// shuffle-and-sum adds up at their owners (plan cost N·|out|).
  Status ExecAggregate(const PlanStep& step) {
    const DistMatrix& a = Data(step.inputs[0]);
    const bool rows = step.op_kind == OpKind::kRowSums;
    const Shape out_shape =
        rows ? Shape{a.grid().matrix.rows, 1} : Shape{1, a.grid().matrix.cols};
    auto c = NewData(step.output, out_shape);
    const BlockGrid& out_grid = c->grid();

    // Sums worker w's blocks into one partial per output block and hands
    // each to emit(bi, bj, partial).
    auto partial_sums = [&](int w, auto&& emit) {
      std::unordered_map<int64_t, DenseBlock> acc;
      for (auto& [bi, bj, ptr] : a.WorkerBlocks(w)) {
        const int64_t idx = rows ? bi : bj;
        auto it = acc.find(idx);
        if (it == acc.end()) {
          const Shape s = rows ? out_grid.BlockShape(idx, 0)
                               : out_grid.BlockShape(0, idx);
          it = acc.emplace(idx, DenseBlock(s.rows, s.cols)).first;
        }
        Status st = AddAccumulate(Block(rows ? RowSums(*ptr) : ColSums(*ptr)),
                                  &it->second);
        DMAC_CHECK(st.ok()) << st;
      }
      for (auto& [idx, sum] : acc) {
        emit(rows ? idx : 0, rows ? 0 : idx,
             CompactFromDense(&sum, kDensityThreshold));
      }
    };

    const bool broadcast = a.scheme() == Scheme::kBroadcast;
    if (broadcast || a.scheme() == (rows ? Scheme::kRow : Scheme::kCol)) {
      // The worker owning a row (column) range holds every block that
      // contributes to its slice of the result.
      DMAC_RETURN_NOT_OK(ForEachWorker(step, LaunchWorkers(a), [&](int w) {
        StoreSink sink(c.get(), w);
        partial_sums(w, sink);
        return Status::Ok();
      }));
      return broadcast ? comm_.Replicate(c.get()) : Status::Ok();
    }
    return ShuffleAndSum(
        step, c.get(), "aggregate-shuffle",
        [&](int w, std::vector<Partial>* out) {
          partial_sums(w, [out, w](int64_t bi, int64_t bj, Block partial) {
            out->push_back({bi, bj, NewBlockPtr(std::move(partial)), w});
          });
          return Status::Ok();
        });
  }

  Status ExecReduce(const PlanStep& step) {
    const DistMatrix& a = Data(step.inputs[0]);
    const int workers = LaunchWorkers(a);
    std::vector<double> partials(static_cast<size_t>(workers), 0.0);
    DMAC_RETURN_NOT_OK(ForEachWorker(step, workers, [&](int w) {
      double& partial = partials[static_cast<size_t>(w)];
      for (auto& [bi, bj, ptr] : a.WorkerBlocks(w)) {
        partial += step.reduce == ReduceKind::kNorm2 ? SumSquares(*ptr)
                                                     : Sum(*ptr);
      }
      return Status::Ok();
    }));
    double total = 0;
    for (double partial : partials) total += partial;
    if (step.reduce == ReduceKind::kNorm2) total = std::sqrt(total);
    scalars_[step.scalar_out] = total;
    CommRound round(&comm_, "reduce", CommKind::kShuffle);
    round.ChargeReduce();  // the N partials go to the driver
    return round.End();
  }

  // ---- gather -------------------------------------------------------------

  /// Collects output node `node_id` into a LocalMatrix. With `move` the
  /// node is dropped first and every block nothing else references is moved
  /// out; shared blocks and load-step aliases of the caller's bindings
  /// (use_count 0) are copied.
  Result<LocalMatrix> Gather(int node_id, bool move) {
    if (gov_) DMAC_RETURN_NOT_OK(gov_->Restore({node_id}));
    DistMatrix& dm = Data(node_id);
    const BlockGrid grid = dm.grid();
    std::vector<DistMatrix::BlockPtr> ptrs;
    ptrs.reserve(static_cast<size_t>(grid.num_blocks()));
    for (int64_t bi = 0; bi < grid.block_rows(); ++bi) {
      for (int64_t bj = 0; bj < grid.block_cols(); ++bj) {
        auto ptr = dm.GetOwned(bi, bj);
        if (ptr == nullptr) {
          return Status::Internal("gather: missing block (" +
                                  std::to_string(bi) + "," +
                                  std::to_string(bj) + ")");
        }
        ptrs.push_back(std::move(ptr));
      }
    }
    if (move) node_data_[static_cast<size_t>(node_id)] = nullptr;
    std::vector<Block> blocks;
    blocks.reserve(ptrs.size());
    for (DistMatrix::BlockPtr& ptr : ptrs) {
      if (move && ptr.use_count() == 1) {
        // NewBlockPtr allocated the Block non-const: moving from it is safe.
        blocks.push_back(std::move(const_cast<Block&>(*ptr)));
      } else {
        blocks.push_back(*ptr);
      }
      ptr.reset();
    }
    return LocalMatrix::FromBlocks(grid.matrix, grid.block_size,
                                   std::move(blocks));
  }

  ExecutorOptions opts_;
  const Plan& plan_;
  const Bindings& bindings_;
  ThreadPool pool_;         // compute: every worker's block tasks (Fig. 4)
  ThreadPool launch_pool_;  // one thread per worker: the gangs' launches
  LocalEngine engine_;
  int64_t block_size_ = 0;
  std::vector<std::shared_ptr<DistMatrix>> node_data_;
  std::vector<int> last_consumer_;  // LastConsumers(plan_)
  ScalarEnv scalars_;
  ExecStats stats_;
  CommLayer comm_;  // every cross-worker block move (comm.h)

  // Cancellation (docs/governance.md): opts_.governor.token shares state
  // with the caller's copy.
  bool cancel_span_emitted_ = false;

  // Memory governance (governor_layer.h): null unless the options attach a
  // budget or a spill store.
  std::unique_ptr<GovernorLayer> gov_;

  // Fault tolerance (fault_layer.h): null unless the options enable fault
  // injection or checkpoints.
  std::unique_ptr<FaultLayer> fault_;
};

Executor::Executor(ExecutorOptions options) : options_(options) {}

Result<ExecutionResult> Executor::Execute(const Plan& plan,
                                          const Bindings& bindings) {
  if (options_.num_workers < 1 || options_.threads_per_worker < 1 ||
      options_.block_size < 0) {
    return Status::Invalid(
        "invalid cluster options: num_workers " +
        std::to_string(options_.num_workers) + ", threads_per_worker " +
        std::to_string(options_.threads_per_worker) + ", block_size " +
        std::to_string(options_.block_size) +
        " (need workers >= 1, threads >= 1, block size >= 0)");
  }
  Impl impl(options_, plan, bindings);
  return impl.Run();
}

}  // namespace dmac
