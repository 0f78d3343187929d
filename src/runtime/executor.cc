#include "runtime/executor.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "common/sync.h"
#include "common/timer.h"
#include "common/thread_pool.h"
#include "fault/durable_checkpoint.h"
#include "fault/durable_io.h"
#include "fault/injector.h"
#include "fault/lineage.h"
#include "fault/retry_policy.h"
#include "matrix/mem_tracker.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/buffer_pool.h"
#include "runtime/membership.h"
#include "runtime/network.h"

namespace dmac {

namespace {

/// FormatCache capacity when no memory budget bounds the run: large enough
/// for a handful of converted operand grids, small enough that an unbounded
/// workload cannot pin the heap with stale conversions.
constexpr int64_t kFormatCacheDefaultBytes = int64_t{256} << 20;

/// Evaluates a resolved scalar expression against the scalar environment.
Result<double> EvalScalar(const ScalarExprPtr& e,
                          const std::unordered_map<std::string, double>& env) {
  switch (e->kind) {
    case ScalarExpr::Kind::kLiteral:
      return e->literal;
    case ScalarExpr::Kind::kVarRef: {
      auto it = env.find(e->name);
      if (it == env.end()) {
        return Status::NotFound("scalar " + e->name + " not yet computed");
      }
      return it->second;
    }
    case ScalarExpr::Kind::kBinary: {
      DMAC_ASSIGN_OR_RETURN(double l, EvalScalar(e->lhs, env));
      DMAC_ASSIGN_OR_RETURN(double r, EvalScalar(e->rhs, env));
      switch (e->op) {
        case '+':
          return l + r;
        case '-':
          return l - r;
        case '*':
          return l * r;
        case '/':
          return l / r;
      }
      return Status::Invalid(std::string("unknown scalar operator ") + e->op);
    }
    case ScalarExpr::Kind::kSqrt: {
      DMAC_ASSIGN_OR_RETURN(double l, EvalScalar(e->lhs, env));
      return std::sqrt(l);
    }
    case ScalarExpr::Kind::kReduce:
      return Status::Internal(
          "unresolved reduce in scalar expression (decompose bug)");
  }
  return Status::Internal("unreachable ScalarExpr kind");
}

/// Thread-safe sink writing result blocks into one worker's store.
class StoreSink {
 public:
  StoreSink(DistMatrix* target, int worker) : target_(target), worker_(worker) {}

  void operator()(int64_t bi, int64_t bj, Block block) DMAC_EXCLUDES(mu_) {
    auto ptr = std::make_shared<const Block>(std::move(block));
    MutexLock lock(&mu_);
    target_->Put(worker_, bi, bj, std::move(ptr));
  }

 private:
  Mutex mu_;
  DistMatrix* DMAC_PT_GUARDED_BY(mu_) target_;
  int worker_;
};

/// Trace-span name of a step: "compute[multiply:RMM1]", "broadcast", ...
std::string StepSpanName(const PlanStep& step) {
  std::string name = StepKindName(step.kind);
  if (step.kind == StepKind::kCompute) {
    name += "[";
    name += OpKindName(step.op_kind);
    if (step.mult_algo != MultAlgo::kNone) {
      name += ":";
      name += MultAlgoName(step.mult_algo);
    }
    name += "]";
  }
  if (!step.source.empty()) name += " " + step.source;
  return name;
}

/// One catalog metric fed from ExecStats. ExecStats is the executor's only
/// ledger; the registry is filled from it once per run, on every exit path.
/// Counters add the run's totals. Gauges are set only by a completed run,
/// and only when `ran` (if given) says their layer was built.
struct StatMetric {
  const char* name;
  MetricKind kind;
  double (*value)(const ExecStats&);
  bool (*ran)(const ExecStats&) = nullptr;
};

bool MembershipRan(const ExecStats& s) { return s.membership_epoch > 0; }

using S = ExecStats;  // keeps the table rows short
using enum MetricKind;
const StatMetric kStatMetrics[] = {
    {kMetricShuffleBytes, kCounter,
     [](const S& s) -> double { return s.shuffle_bytes; }},
    {kMetricBroadcastBytes, kCounter,
     [](const S& s) -> double { return s.broadcast_bytes; }},
    {kMetricShuffleRounds, kCounter,
     [](const S& s) -> double { return s.shuffle_events; }},
    {kMetricBroadcastRounds, kCounter,
     [](const S& s) -> double { return s.broadcast_events; }},
    {kMetricStepsExecuted, kCounter,
     [](const S& s) -> double { return s.steps_executed; }},
    {kMetricStages, kGauge, [](const S& s) -> double { return s.stages; }},
    {kMetricPeakMemoryBytes, kGauge,
     [](const S& s) -> double { return s.peak_memory_bytes; }},
    {kMetricPlanEstimateDrift, kGauge,
     [](const S& s) -> double { return s.estimate_drift; }},
    {kMetricPlanEstimateDriftEvents, kCounter,
     [](const S& s) -> double { return s.estimate_drift > 4.0 ? 1 : 0; }},
    {kMetricFaultInjected, kCounter,
     [](const S& s) -> double { return s.faults_injected; }},
    {kMetricFaultRetries, kCounter,
     [](const S& s) -> double { return s.retries; }},
    {kMetricFaultRecomputedBlocks, kCounter,
     [](const S& s) -> double { return s.recomputed_blocks; }},
    {kMetricFaultRestoredBlocks, kCounter,
     [](const S& s) -> double { return s.restored_blocks; }},
    {kMetricFaultSpeculatedTasks, kCounter,
     [](const S& s) -> double { return s.speculated_tasks; }},
    {kMetricFaultCheckpointBytes, kCounter,
     [](const S& s) -> double { return s.checkpoint_bytes; }},
    {kMetricFaultRecoverySeconds, kCounter,
     [](const S& s) -> double { return s.TotalRecoverySeconds(); }},
    {kMetricFaultCheckpointDurableBytes, kCounter,
     [](const S& s) -> double { return s.durable_checkpoint_bytes; }},
    {kMetricFaultCheckpointEpochs, kCounter,
     [](const S& s) -> double { return s.durable_epochs; }},
    {kMetricFaultCheckpointFailures, kCounter,
     [](const S& s) -> double { return s.checkpoint_failures; }},
    {kMetricFaultResumeRestoredBlocks, kCounter,
     [](const S& s) -> double { return s.resume_restored_blocks; }},
    {kMetricFaultResumeSeconds, kCounter,
     [](const S& s) -> double { return s.resume_seconds; }},
    {kMetricFaultDiskFaults, kCounter,
     [](const S& s) -> double { return s.disk_faults_injected; }},
    {kMetricNetMessages, kCounter,
     [](const S& s) -> double { return s.net_messages; }},
    {kMetricNetRetransmits, kCounter,
     [](const S& s) -> double { return s.net_retransmits; }},
    {kMetricNetRetransBytes, kCounter,
     [](const S& s) -> double { return s.net_retrans_bytes; }},
    {kMetricNetDuplicates, kCounter,
     [](const S& s) -> double { return s.net_duplicates; }},
    {kMetricNetReordered, kCounter,
     [](const S& s) -> double { return s.net_reordered; }},
    {kMetricNetDelaySeconds, kCounter,
     [](const S& s) -> double { return s.net_delay_seconds; }},
    {kMetricNetPartitions, kCounter,
     [](const S& s) -> double { return s.net_partitions; }},
    {kMetricNetStaleFenced, kCounter,
     [](const S& s) -> double { return s.net_stale_fenced; }},
    {kMetricNetStaleApplied, kCounter,
     [](const S& s) -> double { return s.net_stale_applied; }},
    {kMetricMembershipEpoch, kGauge,
     [](const S& s) -> double { return s.membership_epoch; }, MembershipRan},
    {kMetricMembershipWorkersDead, kGauge,
     [](const S& s) -> double { return s.workers_dead; }, MembershipRan},
    {kMetricMembershipDetectionSeconds, kCounter,
     [](const S& s) -> double { return s.detection_seconds; }},
};

void RecordMetrics(const ExecStats& stats, bool completed) {
  MetricRegistry& registry = MetricRegistry::Global();
  if (!registry.enabled()) return;
  for (const StatMetric& m : kStatMetrics) {
    if (m.kind == kCounter) {
      registry.counter(m.name)->Add(m.value(stats));
    } else if (completed && (m.ran == nullptr || m.ran(stats))) {
      registry.gauge(m.name)->Set(m.value(stats));
    }
  }
}

}  // namespace

class Executor::Impl {
 public:
  Impl(const ExecutorOptions& opts, const Plan& plan, const Bindings& bindings)
      : opts_(opts),
        plan_(plan),
        bindings_(bindings),
        pool_(static_cast<size_t>(opts.threads_per_worker)),
        buffers_(static_cast<size_t>(opts.threads_per_worker) * 2),
        engine_(&pool_, &buffers_, opts.local_mode, kDensityThreshold,
                opts.task_scheduling),
        node_data_(plan.nodes.size()),
        gov_(opts.governor),
        node_last_use_(plan.nodes.size(), -1) {
    if (gov_.token.active()) engine_.SetCancelToken(&gov_.token);
    if (gov_.budget != nullptr) buffers_.SetBudget(gov_.budget);
    // CSC→CSR conversion cache for plan steps marked by MarkOperandReuse
    // (plan/reuse.h). Under a governed budget the cache charges the shared
    // MemoryBudget (Charge never blocks; overshoot is reconciled at step
    // boundaries like every other allocation) and caps itself at a quarter
    // of the limit so evictions kick in before conversions crowd out
    // operand blocks.
    int64_t cache_capacity = kFormatCacheDefaultBytes;
    if (gov_.budget != nullptr && gov_.budget->limit_bytes() > 0) {
      cache_capacity =
          std::min<int64_t>(cache_capacity, gov_.budget->limit_bytes() / 4);
      std::shared_ptr<MemoryBudget> budget = gov_.budget;
      format_cache_ = std::make_unique<FormatCache>(
          cache_capacity,
          [budget](int64_t bytes) {
            budget->Charge(bytes);
            return Status::Ok();
          },
          [budget](int64_t bytes) { budget->Release(bytes); });
    } else {
      format_cache_ = std::make_unique<FormatCache>(cache_capacity);
    }
    engine_.SetFormatCache(format_cache_.get());
  }

  /// Runs the plan, then fills the metric registry from the run's ExecStats
  /// whether it completed or not.
  Result<ExecutionResult> Run() {
    Result<ExecutionResult> result = RunPlan();
    CollectLayerStats();
    RecordMetrics(stats_, result.ok());
    if (result.ok()) result->stats = std::move(stats_);
    return result;
  }

 private:
  Result<ExecutionResult> RunPlan() {
    DMAC_RETURN_NOT_OK(CheckCancel());  // a 0 ms deadline fails before work
    DMAC_RETURN_NOT_OK(PickBlockSize());
    DMAC_RETURN_NOT_OK(SetUpFaultTolerance());
    DMAC_RETURN_NOT_OK(MaybeResume());
    MemTracker::Global().ResetPeak();
    const int64_t mem_before_peak = MemTracker::Global().peak_bytes();

    // Steps run in dependency order, so stage numbers may interleave; each
    // contiguous run of same-stage steps becomes one stage span (the same
    // grouping Plan::ToString uses for its "=== Stage" headers).
    int current_stage = std::numeric_limits<int>::min();
    std::optional<TraceSpan> stage_span;
    for (const PlanStep& step : plan_.steps) {
      if (step.id <= resume_skip_step_) {
        // The restored snapshot covers this step. Bump the LRU clock the
        // way an uninterrupted run would (spill ordering parity), then
        // either skip it or — for the load steps of reload-marked nodes —
        // re-execute it against the caller's bindings.
        ++step_clock_;
        for (int input : step.inputs) {
          node_last_use_[static_cast<size_t>(input)] = step_clock_;
        }
        if (step.output >= 0) {
          node_last_use_[static_cast<size_t>(step.output)] = step_clock_;
        }
        if (reload_step_ids_.count(step.id) != 0) {
          DMAC_RETURN_NOT_OK(ExecuteStep(step));
          // Lineage only: the snapshot's checkpoint counter already
          // includes this step's contribution from the original run.
          RecordLineage(step);
        }
        continue;
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
      DMAC_RETURN_NOT_OK(GovernStep(step));
      Status step_status = ft_ ? RunStepWithRecovery(step) : ExecuteStep(step);
      if (!step_status.ok() && gov_.token.active() && gov_.token.Fired()) {
        // The engine observed the token mid-kernel; surface the governance
        // status (and its one cancel span), not the kernel's unwind error.
        if (step.output >= 0) {
          node_data_[static_cast<size_t>(step.output)] = nullptr;
        }
        DMAC_RETURN_NOT_OK(CheckCancel());
      }
      DMAC_RETURN_NOT_OK(step_status);
      ++stats_.steps_executed;
    }
    stage_span.reset();
    stats_.stages = plan_.num_stages;

    if (injector_ != nullptr) {
      // Boundary faults injected after the last consumer of a node can
      // linger into the gather; one final recovery sweep repairs them.
      DMAC_RETURN_NOT_OK(RecoverAll());
    }

    ExecutionResult result;
    for (const PlanOutput& out : plan_.outputs) {
      DMAC_ASSIGN_OR_RETURN(LocalMatrix m, Gather(out.node));
      if (out.transposed) m = m.Transposed();
      result.matrices.emplace(out.variable, std::move(m));
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

  /// Fills ExecStats::matrix_nnz from the nodes still resident and compares
  /// the plan's §4.1 communication estimate against what actually moved.
  /// The §5.1 worst-case sparsity rule (s_C = 1 after every multiply) can
  /// overestimate chained-multiply traffic by orders of magnitude; the
  /// planner.estimate.drift gauge makes that visible, and the .events
  /// counter fires when the divergence exceeds 4x (docs/planner.md).
  void RecordEstimateDrift() {
    for (size_t i = 0; i < node_data_.size(); ++i) {
      const auto& dm = node_data_[i];
      if (dm == nullptr) continue;
      int64_t nnz = 0;
      bool complete = true;
      for (int64_t bi = 0; complete && bi < dm->grid().block_rows(); ++bi) {
        for (int64_t bj = 0; bj < dm->grid().block_cols(); ++bj) {
          const auto block = dm->GetOwned(bi, bj);
          if (block == nullptr) {  // spilled or dropped; don't guess
            complete = false;
            break;
          }
          nnz += block->nnz();
        }
      }
      if (complete) {
        const PlanNode& node = plan_.nodes[i];
        stats_.matrix_nnz[node.transposed ? node.matrix + "^T"
                                          : node.matrix] = nnz;
      }
    }
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

  const PlanNode& NodeOf(int id) const {
    return plan_.nodes[static_cast<size_t>(id)];
  }

  DistMatrix& Data(int node_id) {
    DMAC_CHECK(node_data_[static_cast<size_t>(node_id)] != nullptr)
        << "node " << node_id << " has no materialized data";
    return *node_data_[static_cast<size_t>(node_id)];
  }

  std::shared_ptr<DistMatrix> NewData(int node_id, Shape shape) {
    const PlanNode& node = NodeOf(node_id);
    auto dm = std::make_shared<DistMatrix>(BlockGrid{shape, block_size_},
                                           node.scheme(), opts_.num_workers);
    if (gov_.budget != nullptr || gov_.spill != nullptr) {
      dm->SetGovernor(gov_.budget, gov_.spill);
    }
    if (!host_map_.empty()) dm->SetRebalanceMap(host_map_);
    node_data_[static_cast<size_t>(node_id)] = dm;
    return dm;
  }

  /// Times `fn` and attributes the elapsed seconds to (step.stage, worker),
  /// both in ExecStats and as a worker-attributed trace span. Block tasks
  /// the engine runs inside `fn` inherit the worker id for their spans.
  ///
  /// This is also the task-launch fault-injection point: with an active
  /// injector (and outside recovery) the launch can fail transiently or
  /// straggle by a simulated delay (nothing sleeps). With speculation the
  /// backup worker's re-execution of a straggler is the useful copy and the
  /// straggling attempt is charged to recovery; without it the stage just
  /// absorbs the delay. `idempotent` marks whether running `fn` twice yields
  /// the same state — true for the sink-writing sites (a second run
  /// overwrites the same store keys with identical blocks), false for the
  /// accumulating closures (CPMM phase 1, reduce) — and gates speculation.
  template <typename Fn>
  Status TimedWorker(const PlanStep& step, int worker, Fn&& fn,
                     bool idempotent = true) {
    double delay = 0;
    // Recovery attempts are not re-injected — except a permanent fault,
    // which by definition fails every attempt until retries exhaust.
    if (injector_ != nullptr &&
        (!recovering_ ||
         step.id == injector_->spec().permanent_fail_step)) {
      if (injector_->DrawTransientFailure(step.id)) {
        return Status::Unavailable("injected transient failure on worker " +
                                   std::to_string(worker) + " in step " +
                                   std::to_string(step.id));
      }
      delay = injector_->DrawStragglerDelay();
    }
    // Logical slot `worker` may be hosted by a survivor after a permanent
    // death; timing and spans attribute to the physical host while the
    // block layout stays keyed by the logical slot (bit identity).
    int host = Host(worker);
    TraceSpan span =
        !TraceRecorder::Global().enabled()
            ? TraceSpan()
        : delay > 0
            ? TraceSpan(kTraceRecovery, "straggler " + StepSpanName(step), host,
                        TraceArg("delay_s", delay))
            : TraceSpan(recovering_ ? kTraceRecovery : kTraceWorker,
                        StepSpanName(step), host,
                        TraceArg("stage", int64_t{step.stage}));
    engine_.SetWorkerContext(host);
    Timer timer;
    Status st = fn();
    double seconds = timer.ElapsedSeconds() + delay;
    if (delay > 0 && st.ok() && opts_.fault.speculate && idempotent &&
        opts_.num_workers > 1) {
      stats_.AddRecoverySeconds(step.stage, seconds);
      ++stats_.speculated_tasks;
      host = Host((worker + 1) % opts_.num_workers);
      engine_.SetWorkerContext(host);
      Timer backup_timer;
      st = fn();
      seconds = backup_timer.ElapsedSeconds();
    }
    if (recovering_) {
      stats_.AddRecoverySeconds(step.stage, seconds);
    } else {
      stats_.AddWorkerSeconds(step.stage, host, seconds);
    }
    return st;
  }

  /// Tail of one communication round (load, partition, broadcast,
  /// shuffle-and-sum, reduce): counts `bytes` moved in `rounds` rounds,
  /// labels the round's comm span, and delivers the sends the round queued
  /// on the network layer. Bytes moved by recovery work are kept out of the
  /// useful-communication totals.
  Status EndCommRound(TraceSpan& span, bool broadcast, double bytes,
                      const char* label, int rounds = 1) {
    if (recovering_) {
      stats_.recovery_bytes += bytes;
      stats_.recovery_events += rounds;
    } else {
      (broadcast ? stats_.broadcast_bytes : stats_.shuffle_bytes) += bytes;
      (broadcast ? stats_.broadcast_events : stats_.shuffle_events) += rounds;
    }
    if (span.active()) {
      span.set_args(TraceArg("bytes", bytes) + "," +
                    TraceArg("kind", broadcast ? "broadcast" : "shuffle"));
    }
    return UseNetwork() ? net_->Flush(label) : Status::Ok();
  }

  /// Reads a block for a cross-worker transfer, verifying integrity in
  /// fault-tolerant runs. Missing blocks are DataLoss (retryable after
  /// recovery) rather than an internal error.
  Result<DistMatrix::BlockPtr> VerifiedGet(const DistMatrix& src, int worker,
                                           int64_t bi, int64_t bj,
                                           const char* what) {
    auto ptr = src.Get(worker, bi, bj);
    if (ptr == nullptr) {
      return Status::DataLoss(std::string(what) + ": block (" +
                              std::to_string(bi) + ", " + std::to_string(bj) +
                              ") missing on worker " + std::to_string(worker));
    }
    if (ft_) DMAC_RETURN_NOT_OK(src.VerifyAt(worker, bi, bj));
    return ptr;
  }

  // ---- governance (docs/governance.md) ------------------------------------

  /// Cooperative cancellation poll. The first failed check emits one
  /// `cancel` trace span recording how the query ended.
  Status CheckCancel() {
    if (!gov_.token.active()) return Status::Ok();
    Status st = gov_.token.Check();
    if (!st.ok() && !cancel_span_emitted_) {
      cancel_span_emitted_ = true;
      TraceSpan span(kTraceCancel,
                     st.code() == StatusCode::kDeadlineExceeded
                         ? "deadline-exceeded"
                         : "cancelled");
    }
    return st;
  }

  /// Pre-step governance: poll the token, bump the LRU clock, and make room
  /// under the budget for the step's working set.
  Status GovernStep(const PlanStep& step) {
    DMAC_RETURN_NOT_OK(CheckCancel());
    ++step_clock_;
    for (int input : step.inputs) {
      node_last_use_[static_cast<size_t>(input)] = step_clock_;
    }
    if (step.output >= 0) {
      node_last_use_[static_cast<size_t>(step.output)] = step_clock_;
    }
    if (!gov_.budgeted()) return Status::Ok();
    return RebalanceBudget(step);
  }

  /// Spills cold nodes (LRU by last-touching step, ids ascending as the
  /// tiebreak) until the budget has room for the step's pinned working set
  /// — its inputs, all of which must be resident at once. Fails with
  /// kResourceExhausted when the pinned set alone exceeds the budget or no
  /// spill candidate remains.
  Status RebalanceBudget(const PlanStep& step) {
    int64_t pinned = 0;
    int64_t spilled_inputs = 0;
    for (int input : step.inputs) {
      const auto& dm = node_data_[static_cast<size_t>(input)];
      if (dm == nullptr) continue;
      pinned += dm->OwnedBytes();
      spilled_inputs += dm->SpilledBytes();
    }
    if (gov_.budget->ExceedsWholeBudget(pinned)) {
      return Status::ResourceExhausted(
          "step " + std::to_string(step.id) + ": working set of " +
          std::to_string(pinned) + " bytes exceeds the memory budget of " +
          std::to_string(gov_.budget->limit_bytes()) +
          " bytes; spilling cannot help");
    }
    // Free the current overage plus what restoring spilled inputs will
    // re-charge, by spilling nodes no later step has touched more recently.
    int64_t need = gov_.budget->OverBudgetBytes() + spilled_inputs;
    if (need <= 0) return Status::Ok();

    std::vector<std::pair<int, int>> candidates;  // (last_use, node id)
    for (size_t id = 0; id < node_data_.size(); ++id) {
      if (node_data_[id] == nullptr) continue;
      const int node = static_cast<int>(id);
      if (node == step.output ||
          std::find(step.inputs.begin(), step.inputs.end(), node) !=
              step.inputs.end()) {
        continue;  // pinned
      }
      candidates.emplace_back(node_last_use_[id], node);
    }
    std::sort(candidates.begin(), candidates.end());

    int64_t freed = 0;
    for (const auto& [last_use, node] : candidates) {
      if (freed >= need) break;
      auto& dm = node_data_[static_cast<size_t>(node)];
      TraceSpan span(kTraceSpill, "spill node " + std::to_string(node), -1,
                     TraceArg("node", int64_t{node}));
      DMAC_ASSIGN_OR_RETURN(int64_t f, dm->SpillColdBlocks(need - freed));
      freed += f;
    }
    if (gov_.budget->OverBudgetBytes() > 0) {
      return Status::ResourceExhausted(
          "memory budget of " + std::to_string(gov_.budget->limit_bytes()) +
          " bytes still exceeded by " +
          std::to_string(gov_.budget->OverBudgetBytes()) +
          " bytes after spilling every cold block");
    }
    return Status::Ok();
  }

  /// Restores any spilled input of `step` (recovery re-runs and retries hit
  /// this too, not just the main loop). No-op without a spill store.
  Status EnsureInputsResident(const PlanStep& step) {
    for (int input : step.inputs) {
      auto& dm = node_data_[static_cast<size_t>(input)];
      if (dm == nullptr || dm->SpilledEntries() == 0) continue;
      TraceSpan span(kTraceSpill, "restore node " + std::to_string(input),
                     -1, TraceArg("node", int64_t{input}));
      DMAC_RETURN_NOT_OK(dm->EnsureResident().status());
    }
    return Status::Ok();
  }

  // ---- fault tolerance (docs/fault_tolerance.md) --------------------------

  Status SetUpFaultTolerance() {
    const bool durable = !opts_.checkpoint_dir.empty();
    // A durable directory implies checkpointing: default the cadence to
    // every producing step so a bare --checkpoint-dir is crash-safe.
    effective_checkpoint_every_ =
        opts_.checkpoint_every > 0 ? opts_.checkpoint_every : (durable ? 1 : 0);
    ft_ = opts_.fault.enabled || effective_checkpoint_every_ > 0;
    min_workers_ = std::min(std::max(opts_.min_workers, 1), opts_.num_workers);
    if (durable) {
      DMAC_RETURN_NOT_OK(opts_.fault.disk.Validate());
      // Salted so the disk schedule is independent of the injector's and
      // the data seed's streams (durable_io.h header comment).
      storage_io_ = std::make_shared<StorageIO>(
          opts_.fault.disk, opts_.fault.seed ^ 0x5d15c0de5d15c0deULL,
          opts_.fault.disk.crash_soft ? StorageIO::CrashMode::kSoft
                                      : StorageIO::CrashMode::kHard);
      DMAC_ASSIGN_OR_RETURN(
          durable_store_,
          DurableCheckpointStore::Open(opts_.checkpoint_dir, storage_io_));
    }
    if (!ft_) return Status::Ok();
    retry_policy_ = RetryPolicy{opts_.fault.max_retries,
                                opts_.fault.backoff_base_seconds};
    if (opts_.fault.enabled) {
      DMAC_RETURN_NOT_OK(opts_.fault.Validate());
      if (opts_.fault.death_step >= 0 &&
          opts_.fault.death_worker >= opts_.num_workers) {
        return Status::Invalid(
            "death_worker " + std::to_string(opts_.fault.death_worker) +
            " is out of range for " + std::to_string(opts_.num_workers) +
            " workers");
      }
      injector_ = std::make_unique<FaultInjector>(opts_.fault);
      const bool death_possible =
          opts_.fault.death_prob > 0 || opts_.fault.death_step >= 0;
      if (death_possible || opts_.fault.net.Any()) {
        membership_ = std::make_unique<ClusterMembership>(opts_.num_workers);
        net_ = std::make_unique<SimNetwork>(injector_.get(), membership_.get(),
                                            retry_policy_);
      }
    }
    plan_has_hints_ = false;
    for (const PlanNode& node : plan_.nodes) {
      plan_has_hints_ = plan_has_hints_ || node.checkpoint_hint;
    }
    return Status::Ok();
  }

  /// Physical host of logical slot `w` (identity until a death rebalances).
  int Host(int w) const {
    return membership_ != nullptr ? membership_->HostOf(w) : w;
  }

  /// Copies the fault layers' own accounting (injector, disk, membership,
  /// network) into ExecStats at the end of a run.
  void CollectLayerStats() {
    if (injector_ != nullptr) {
      stats_.faults_injected = injector_->faults_drawn();
    }
    if (storage_io_ != nullptr) {
      stats_.disk_faults_injected = storage_io_->faults_injected();
    }
    if (membership_ != nullptr) stats_.membership_epoch = membership_->epoch();
    if (net_ == nullptr) return;
    const NetFaultStats& ns = net_->stats();
    stats_.net_messages = ns.messages;
    stats_.net_retransmits = ns.retransmits;
    stats_.net_retrans_bytes = ns.retrans_bytes;
    stats_.net_duplicates = ns.duplicates;
    stats_.net_reordered = ns.reordered;
    stats_.net_delay_seconds = ns.delay_seconds;
    stats_.net_partitions = ns.partitions;
    stats_.net_stale_fenced = ns.stale_fenced;
    stats_.net_stale_applied = ns.stale_applied;
  }

  /// Transfers route through the fault-injecting network layer only on the
  /// useful (first) attempt; retries and lineage recovery use the direct
  /// path so that a bounded retry budget is guaranteed to converge.
  bool UseNetwork() const { return net_ != nullptr && !recovering_; }

  /// Fault-tolerant step execution: inject boundary faults, then attempt
  /// the step up to 1 + max_retries times. A retryable failure (transient
  /// Unavailable, detected DataLoss) triggers exponential backoff and full
  /// lineage recovery before the next attempt; retried attempts run as
  /// recovery work so the useful-compute totals stay clean. On success the
  /// output's lineage is recorded and checkpointing may trigger.
  Status RunStepWithRecovery(const PlanStep& step) {
    if (injector_ != nullptr) InjectBoundaryFaults(step);
    // Below quorum the run fails clean — no retries burned, no recovery
    // attempted, no partial output left behind.
    if (!quorum_status_.ok()) {
      if (step.output >= 0) {
        node_data_[static_cast<size_t>(step.output)] = nullptr;
      }
      return quorum_status_;
    }
    Status st;
    for (int attempt = 0;; ++attempt) {
      st = AttemptStep(step, attempt);
      if (st.ok()) break;
      // An in-flight death during the attempt may have dropped the cluster
      // below quorum; give up before the retry machinery spends anything.
      if (!quorum_status_.ok()) {
        if (step.output >= 0) {
          node_data_[static_cast<size_t>(step.output)] = nullptr;
        }
        return quorum_status_;
      }
      // A fired token preempts the retry path: the query exits promptly —
      // no retry counted, no simulated backoff, no recovery sweep — and no
      // partial output survives.
      if (gov_.token.active()) {
        Status cancelled = gov_.token.Check();
        if (!cancelled.ok()) {
          if (step.output >= 0) {
            node_data_[static_cast<size_t>(step.output)] = nullptr;
          }
          DMAC_RETURN_NOT_OK(CheckCancel());  // emits the cancel span
        }
      }
      const bool retryable = RetryPolicy::Retryable(st);
      if (!retryable || attempt >= retry_policy_.max_retries) {
        // Give up cleanly: no partial output may survive in the stores.
        if (step.output >= 0) {
          node_data_[static_cast<size_t>(step.output)] = nullptr;
        }
        if (retryable) {
          const std::string msg = "step " + std::to_string(step.id) +
                                  " failed after " +
                                  std::to_string(attempt + 1) +
                                  " attempts: " + st.message();
          return st.code() == StatusCode::kUnavailable
                     ? Status::Unavailable(msg)
                     : Status::DataLoss(msg);
        }
        return st;
      }
      TraceSpan span(kTraceRecovery, "retry " + StepSpanName(step), -1,
                     TraceArg("step", int64_t{step.id}) + "," +
                         TraceArg("attempt", int64_t{attempt + 1}));
      stats_.AddRetry(step.stage);
      // Simulated exponential backoff; transient faults clear with time.
      stats_.AddRecoverySeconds(step.stage,
                                retry_policy_.BackoffSeconds(attempt));
      DMAC_RETURN_NOT_OK(RecoverAll());
    }
    DMAC_RETURN_NOT_OK(AfterStepSuccess(step));
    return st;
  }

  Status AttemptStep(const PlanStep& step, int attempt) {
    // The first attempt is the useful one; repeats are recovery work (no
    // further injection, seconds and bytes attributed to recovery).
    recovering_ = attempt > 0;
    // A failed attempt may have left undelivered sends queued (e.g. a
    // missing block detected mid-shuffle); they must never leak into a
    // later flush.
    if (net_ != nullptr) net_->Clear();
    Status st = PreflightStepInputs(step);
    if (st.ok()) st = ExecuteStep(step);
    recovering_ = false;
    return st;
  }

  /// Verifies every input node of `step` against its lineage record:
  /// all recorded blocks present and hashing to their recorded checksums.
  Status PreflightStepInputs(const PlanStep& step) {
    for (int input : step.inputs) {
      const NodeLineage* lin = lineage_.Find(input);
      if (lin == nullptr) continue;  // produced before fault mode engaged
      const auto& dm = node_data_[static_cast<size_t>(input)];
      if (dm == nullptr) {
        return Status::DataLoss("input node " + std::to_string(input) +
                                " has no materialized data");
      }
      const int64_t bcols = dm->grid().block_cols();
      for (const LineageBlockRecord& rec : lin->blocks) {
        DMAC_RETURN_NOT_OK(
            dm->VerifyAt(rec.worker, rec.key / bcols, rec.key % bcols));
      }
    }
    return Status::Ok();
  }

  /// Step-boundary injection: worker crashes, permanent worker deaths, and
  /// per-entry lost/corrupted blocks, applied to every live node in a
  /// deterministic sweep (nodes by id, workers ascending, store keys
  /// ascending) so a seed always yields the same schedule.
  void InjectBoundaryFaults(const PlanStep& step) {
    int victim = -1;
    if (injector_->DrawCrash(opts_.num_workers, &victim)) {
      TraceSpan span(kTraceRecovery, "inject-crash", victim);
      for (auto& dm : node_data_) {
        if (dm != nullptr) dm->ClearWorker(victim);
      }
    }
    if (membership_ != nullptr) {
      // Forced death at a chosen step boundary (death_in_flight instead
      // fires mid-CPMM, at the communication-round boundary).
      if (opts_.fault.death_step == step.id && !opts_.fault.death_in_flight &&
          !forced_death_applied_) {
        forced_death_applied_ = true;
        ApplyDeath(opts_.fault.death_worker, step.stage);
      }
      // Probabilistic deaths are quorum-budgeted: once one more death would
      // drop the cluster below min_workers, no further draw is consumed —
      // the fault schedule of the surviving spec stays deterministic.
      if (opts_.fault.death_prob > 0 &&
          membership_->live_workers() - 1 >= min_workers_ &&
          injector_->DrawWorkerDeath()) {
        const int k = injector_->DrawVictim(membership_->live_workers());
        int seen = 0;
        for (int w = 0; w < opts_.num_workers; ++w) {
          if (membership_->IsDead(w)) continue;
          if (seen++ == k) {
            ApplyDeath(w, step.stage);
            break;
          }
        }
      }
    }
    const bool per_entry = opts_.fault.lost_block_prob > 0 ||
                           opts_.fault.corrupt_prob > 0;
    if (!per_entry) return;
    for (auto& dm : node_data_) {
      if (dm == nullptr) continue;
      const int64_t bcols = dm->grid().block_cols();
      for (int w = 0; w < opts_.num_workers; ++w) {
        for (int64_t key : dm->SortedWorkerKeys(w)) {
          const int64_t bi = key / bcols;
          const int64_t bj = key % bcols;
          if (injector_->DrawLostBlock()) {
            dm->Drop(w, bi, bj);
            continue;
          }
          if (injector_->DrawCorruptBlock()) {
            auto ptr = dm->Get(w, bi, bj);
            if (ptr == nullptr) continue;  // spilled: no payload in memory
            dm->ReplacePayload(w, bi, bj,
                               std::make_shared<const Block>(CorruptedCopy(
                                   *ptr, injector_->DrawSeed())));
          }
        }
      }
    }
  }

  /// Permanently kills logical worker `victim`: the failure detector
  /// declares it dead (bumping the membership epoch, which fences any
  /// in-flight transfer it sent), its blocks vanish from every store, and
  /// its logical slot is rebalanced onto a deterministic survivor. The
  /// lost blocks are re-derived through the ordinary lineage machinery
  /// (checkpoint → replica → recompute) on the next recovery sweep. Below
  /// quorum this arms `quorum_status_` instead of attempting recovery.
  void ApplyDeath(int victim, int stage) {
    if (membership_->IsDead(victim)) return;  // death is permanent
    const double detection = membership_->DeclareDead(victim);
    stats_.detection_seconds += detection;
    stats_.AddRecoverySeconds(stage, detection);
    ++stats_.workers_dead;
    for (auto& dm : node_data_) {
      if (dm != nullptr) dm->ClearWorker(victim);
    }
    host_map_ = membership_->HostMap();
    for (auto& dm : node_data_) {
      if (dm != nullptr) dm->SetRebalanceMap(host_map_);
    }
    TraceSpan span(kTraceMembership, "worker-death", victim,
                   TraceArg("epoch", membership_->epoch()) + "," +
                       TraceArg("live", int64_t{membership_->live_workers()}));
    if (membership_->live_workers() < min_workers_) {
      quorum_status_ = Status::Unavailable(
          "worker " + std::to_string(victim) + " died permanently, leaving " +
          std::to_string(membership_->live_workers()) +
          " live workers below the quorum of " + std::to_string(min_workers_));
    }
  }

  /// Repairs every damaged node, cheapest source first: checkpoint restore,
  /// then a surviving Broadcast replica, then recomputation by re-running
  /// the lineage producer step. Walks nodes in producer-step order, so a
  /// recomputed step always reads already-repaired inputs. All repaired
  /// state is re-verified against the lineage records — recovery is only
  /// allowed to reproduce the run bit-identically.
  [[nodiscard]] Status RecoverAll() {
    TraceSpan span(kTraceRecovery, "recover-all");
    recovering_ = true;
    Status st = RecoverAllImpl();
    recovering_ = false;
    return st;
  }

  [[nodiscard]] Status RecoverAllImpl() {
    for (const PlanStep& step : plan_.steps) {
      if (step.output < 0) continue;
      const NodeLineage* lin = lineage_.Find(step.output);
      if (lin == nullptr) continue;  // not (successfully) produced yet
      DMAC_RETURN_NOT_OK(RecoverNode(step.output, *lin));
    }
    return Status::Ok();
  }

  [[nodiscard]] Status RecoverNode(int node_id, const NodeLineage& lin) {
    auto& dm = node_data_[static_cast<size_t>(node_id)];
    std::vector<LineageBlockRecord> dirty;
    if (dm == nullptr) {
      dirty = lin.blocks;
    } else {
      const int64_t bcols = dm->grid().block_cols();
      for (const LineageBlockRecord& rec : lin.blocks) {
        if (!dm->VerifyAt(rec.worker, rec.key / bcols, rec.key % bcols)
                 .ok()) {
          dirty.push_back(rec);
        }
      }
    }
    if (dirty.empty()) return Status::Ok();

    TraceSpan span =
        TraceRecorder::Global().enabled()
            ? TraceSpan(kTraceRecovery, "recover node " + NodeOf(node_id).ToString(),
                        -1, TraceArg("node", int64_t{node_id}) + "," +
                                TraceArg("dirty",
                                         static_cast<int64_t>(dirty.size())))
            : TraceSpan();
    const size_t damaged = dirty.size();

    // 1. Checkpoint restore: the record's own deep copy, when it has one.
    if (dm != nullptr) {
      std::vector<LineageBlockRecord> remaining;
      const int64_t bcols = dm->grid().block_cols();
      for (LineageBlockRecord& rec : dirty) {
        if (rec.payload != nullptr) {
          dm->Put(rec.worker, rec.key / bcols, rec.key % bcols, rec.payload);
        } else {
          remaining.push_back(std::move(rec));
        }
      }
      dirty = std::move(remaining);
    }

    // 2. Broadcast replica repair: copy a surviving, verifying replica.
    if (dm != nullptr && !dirty.empty() &&
        dm->scheme() == Scheme::kBroadcast) {
      std::vector<LineageBlockRecord> remaining;
      const int64_t bcols = dm->grid().block_cols();
      for (const LineageBlockRecord& rec : dirty) {
        const int64_t bi = rec.key / bcols;
        const int64_t bj = rec.key % bcols;
        bool repaired = false;
        for (int w = 0; w < opts_.num_workers && !repaired; ++w) {
          if (w == rec.worker) continue;
          // The replica must be resident, not just verifiable: VerifyAt
          // passes spilled entries (their file carries the checksum), but
          // Get on one yields null and a null Put would tombstone the slot.
          DistMatrix::BlockPtr replica = dm->Get(w, bi, bj);
          if (replica != nullptr && dm->VerifyAt(w, bi, bj).ok()) {
            dm->Put(rec.worker, bi, bj, std::move(replica));
            repaired = true;
          }
        }
        if (!repaired) remaining.push_back(rec);
      }
      dirty = std::move(remaining);
    }

    stats_.restored_blocks += static_cast<int64_t>(damaged - dirty.size());

    // 3. Recompute from lineage: re-run the producer step (deterministic,
    //    so the rebuilt matrix is bit-identical). Inputs were repaired by
    //    earlier iterations of the producer-order walk.
    if (!dirty.empty()) {
      const PlanStep& producer =
          plan_.steps[static_cast<size_t>(lin.producer_step)];
      DMAC_RETURN_NOT_OK(ExecuteStep(producer));
      stats_.AddRecomputed(producer.stage,
                           static_cast<int64_t>(dirty.size()));
    }

    // Re-stamp and enforce bit-identity with the lineage record.
    auto& repaired = node_data_[static_cast<size_t>(node_id)];
    if (repaired == nullptr) {
      return Status::Internal("recovery left node " +
                              std::to_string(node_id) + " unmaterialized");
    }
    repaired->SetChecksums();
    const int64_t bcols = repaired->grid().block_cols();
    for (const LineageBlockRecord& rec : lin.blocks) {
      if (repaired->ChecksumAt(rec.worker, rec.key / bcols,
                               rec.key % bcols) != rec.checksum) {
        return Status::Internal(
            "recovery of node " + std::to_string(node_id) +
            " diverged from its lineage manifest at block key " +
            std::to_string(rec.key) + " on worker " +
            std::to_string(rec.worker));
      }
    }
    return Status::Ok();
  }

  /// Post-success bookkeeping of a fault-tolerant step: stamp checksums,
  /// record the output's lineage, and checkpoint when due.
  Status AfterStepSuccess(const PlanStep& step) {
    if (step.output < 0) return Status::Ok();
    return MaybeCheckpoint(step, RecordLineage(step));
  }

  /// Stamps the output's checksums and records its lineage (no payloads).
  NodeLineage& RecordLineage(const PlanStep& step) {
    DistMatrix& dm = Data(step.output);
    dm.SetChecksums();
    NodeLineage lin;
    lin.node_id = step.output;
    lin.producer_step = step.id;
    lin.inputs = step.inputs;
    const int64_t bcols = dm.grid().block_cols();
    for (int w = 0; w < opts_.num_workers; ++w) {
      for (int64_t key : dm.SortedWorkerKeys(w)) {
        lin.blocks.push_back(
            {w, key, dm.ChecksumAt(w, key / bcols, key % bcols), nullptr});
      }
    }
    return lineage_.Record(std::move(lin));
  }

  /// Every `effective_checkpoint_every_`-th producing step, deep-copies the
  /// output's blocks into its lineage record `lin`.
  [[nodiscard]] Status MaybeCheckpoint(const PlanStep& step,
                                       NodeLineage& lin) {
    if (effective_checkpoint_every_ <= 0) return Status::Ok();
    const PlanNode& node = NodeOf(step.output);
    if (plan_has_hints_ && !node.checkpoint_hint) return Status::Ok();
    if (++checkpoint_counter_ % effective_checkpoint_every_ != 0) {
      return Status::Ok();
    }
    TraceSpan span(kTraceCheckpoint, "checkpoint " + node.ToString(), -1,
                   TraceArg("node", int64_t{node.id}));
    const DistMatrix& dm = Data(step.output);
    const int64_t bcols = dm.grid().block_cols();
    // Deep copies, deduplicated per payload so Broadcast replicas (shared
    // pointers) are copied — and billed — once.
    std::unordered_map<const Block*, std::shared_ptr<const Block>> copies;
    for (LineageBlockRecord& rec : lin.blocks) {
      auto ptr = dm.Get(rec.worker, rec.key / bcols, rec.key % bcols);
      auto [it, inserted] = copies.try_emplace(ptr.get(), nullptr);
      if (inserted) {
        it->second = std::make_shared<const Block>(*ptr);
        stats_.checkpoint_bytes += it->second->MemoryBytes();
      }
      rec.payload = it->second;
    }
    if (durable_store_ == nullptr) return Status::Ok();
    return CommitDurable(step);
  }

  /// Commits a durable epoch covering everything a restart needs to resume
  /// after `step`: the scalar environment, reload markers for the nodes
  /// produced by kLoad steps (their blocks alias caller-owned bindings and
  /// are re-loaded instead of serialized), and every block of every other
  /// live node — the inputs of later steps plus the plan outputs.
  [[nodiscard]] Status CommitDurable(const PlanStep& step) {
    TraceSpan span(kTraceCheckpoint,
                   "commit epoch after step " + std::to_string(step.id), -1,
                   TraceArg("step", int64_t{step.id}));
    std::set<int> live;  // ordered: the manifest layout is deterministic
    for (const PlanStep& later : plan_.steps) {
      if (later.id <= step.id) continue;
      for (int input : later.inputs) live.insert(input);
    }
    for (const PlanOutput& out : plan_.outputs) live.insert(out.node);

    std::vector<int> reload_nodes;
    std::vector<NodeBlockRecord> pending;
    for (const int node_id : live) {
      auto& dm = node_data_[static_cast<size_t>(node_id)];
      if (dm == nullptr) continue;  // not produced yet
      const PlanNode& node = NodeOf(node_id);
      if (node.producer_step >= 0 &&
          plan_.steps[static_cast<size_t>(node.producer_step)].kind ==
              StepKind::kLoad) {
        reload_nodes.push_back(node_id);
        continue;
      }
      if (dm->SpilledEntries() > 0) {
        DMAC_RETURN_NOT_OK(dm->EnsureResident().status());
      }
      // Snapshot the *recorded* checksums, deliberately not re-stamping:
      // re-hashing here would launder a boundary-injected corruption into
      // the manifest. A payload that disagrees with its recorded checksum
      // fails verification at Open and the epoch falls back — conservative
      // and safe.
      const int64_t bcols = dm->grid().block_cols();
      for (int w = 0; w < opts_.num_workers; ++w) {
        for (int64_t key : dm->SortedWorkerKeys(w)) {
          auto ptr = dm->Get(w, key / bcols, key % bcols);
          if (ptr == nullptr) continue;
          pending.push_back(
              {node_id,
               {w, key, dm->ChecksumAt(w, key / bcols, key % bcols),
                std::move(ptr)}});
        }
      }
    }
    std::vector<std::pair<std::string, double>> scalar_env(scalars_.begin(),
                                                           scalars_.end());
    std::sort(scalar_env.begin(), scalar_env.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });

    const int64_t before = durable_store_->bytes_written();
    const Status st = durable_store_->Commit(step.id, checkpoint_counter_,
                                             scalar_env, reload_nodes,
                                             pending);
    if (!st.ok()) {
      // A simulated process death must propagate (in hard mode the crash
      // never returns; soft mode surfaces kInternal and refuses further
      // I/O). Any other disk fault is absorbed: the run continues, covered
      // by the previous committed epoch.
      if (storage_io_->dead() || st.code() == StatusCode::kInternal) return st;
      ++stats_.checkpoint_failures;
      return Status::Ok();
    }
    const int64_t written = durable_store_->bytes_written() - before;
    stats_.durable_checkpoint_bytes += written;
    ++stats_.durable_epochs;
    return Status::Ok();
  }

  /// Restores the last committed durable snapshot when `--resume` asked for
  /// it: scalars bit-exactly, every snapshotted node's blocks (checksum-
  /// verified), and one lineage record per node whose blocks carry the
  /// restored payloads as their checkpoint (hot in-process recovery never
  /// re-reads disk). Steps the snapshot covers are skipped by the main
  /// loop, except the kLoad steps of reload-marked nodes, which re-execute
  /// against the caller's bindings. A fresh store (no committed epoch)
  /// resumes from nothing — a plain full run.
  Status MaybeResume() {
    if (!opts_.resume || durable_store_ == nullptr) return Status::Ok();
    const DurableSnapshot* snap = durable_store_->committed();
    if (snap == nullptr) return Status::Ok();
    Timer timer;
    TraceSpan span(kTraceCheckpoint,
                   "resume epoch " + std::to_string(snap->epoch), -1,
                   TraceArg("epoch", snap->epoch) + "," +
                       TraceArg("step", int64_t{snap->resume_step}));

    // The snapshot must describe *this* plan; a stale directory from a
    // different program or config must fail loudly, not half-restore.
    const auto bad = [&](const std::string& why) {
      return Status::Invalid("resume: checkpoint dir " +
                             durable_store_->dir() +
                             " does not match this plan (" + why + ")");
    };
    if (snap->resume_step < 0 ||
        static_cast<size_t>(snap->resume_step) >= plan_.steps.size()) {
      return bad("resume step " + std::to_string(snap->resume_step) +
                 " out of range");
    }
    for (const int node_id : snap->reload_nodes) {
      if (node_id < 0 || static_cast<size_t>(node_id) >= plan_.nodes.size()) {
        return bad("reload node " + std::to_string(node_id) + " out of range");
      }
      const int producer = NodeOf(node_id).producer_step;
      if (producer < 0 ||
          plan_.steps[static_cast<size_t>(producer)].kind != StepKind::kLoad) {
        return bad("reload node " + std::to_string(node_id) +
                   " is not load-produced");
      }
      reload_step_ids_.insert(producer);
    }

    for (const auto& [name, bits] : snap->scalars) {
      double value = 0;
      static_assert(sizeof(value) == sizeof(bits));
      std::memcpy(&value, &bits, sizeof(value));
      scalars_[name] = value;
    }
    checkpoint_counter_ = snap->checkpoint_counter;
    resume_skip_step_ = snap->resume_step;

    // Group the snapshot's blocks per node and rebuild each DistMatrix.
    std::map<int, std::vector<const DurableBlock*>> per_node;
    for (const DurableBlock& b : snap->blocks) {
      if (b.node_id < 0 ||
          static_cast<size_t>(b.node_id) >= plan_.nodes.size()) {
        return bad("block node " + std::to_string(b.node_id) +
                   " out of range");
      }
      if (b.worker < 0 || b.worker >= opts_.num_workers) {
        return bad("block worker " + std::to_string(b.worker) +
                   " out of range — was the snapshot taken with a different "
                   "--workers?");
      }
      per_node[b.node_id].push_back(&b);
    }
    for (const auto& [node_id, refs] : per_node) {
      const PlanNode& node = NodeOf(node_id);
      auto dm = NewData(node_id, node.stats.shape);
      const int64_t bcols = dm->grid().block_cols();
      NodeLineage lin;
      lin.node_id = node_id;
      lin.producer_step = node.producer_step;
      if (node.producer_step >= 0) {
        lin.inputs =
            plan_.steps[static_cast<size_t>(node.producer_step)].inputs;
      }
      // One read per distinct file: Broadcast replicas share a payload on
      // disk exactly as they do in memory.
      std::unordered_map<std::string, std::shared_ptr<const Block>> loaded;
      for (const DurableBlock* ref : refs) {
        const int64_t bi = ref->key / bcols;
        const int64_t bj = ref->key % bcols;
        if (bi >= dm->grid().block_rows() || bj >= dm->grid().block_cols()) {
          return bad("block key " + std::to_string(ref->key) +
                     " outside node " + std::to_string(node_id) + "'s grid");
        }
        auto [it, inserted] = loaded.try_emplace(ref->file);
        if (inserted) {
          DMAC_ASSIGN_OR_RETURN(Block block, durable_store_->ReadBlock(*ref));
          it->second = std::make_shared<const Block>(std::move(block));
          ++stats_.resume_restored_blocks;
        }
        dm->Put(ref->worker, bi, bj, it->second);
        lin.blocks.push_back(
            {ref->worker, ref->key, ref->checksum, it->second});
      }
      dm->SetChecksums();
      lineage_.Record(std::move(lin));
    }
    stats_.resumed = true;
    stats_.resume_step = snap->resume_step;
    stats_.resume_seconds = timer.ElapsedSeconds();
    return Status::Ok();
  }

  // ---- step dispatch ------------------------------------------------------

  Status ExecuteStep(const PlanStep& step) {
    DMAC_RETURN_NOT_OK(CheckCancel());
    if (gov_.spill != nullptr) {
      DMAC_RETURN_NOT_OK(EnsureInputsResident(step));
    }
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
        DMAC_ASSIGN_OR_RETURN(double v, EvalScalar(step.scalar, scalars_));
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
    TraceSpan span = TraceRecorder::Global().enabled()
                         ? TraceSpan(kTraceComm, "load " + step.source)
                         : TraceSpan();
    double bytes = 0;
    for (int64_t bi = 0; bi < dm->grid().block_rows(); ++bi) {
      for (int64_t bj = 0; bj < dm->grid().block_cols(); ++bj) {
        // Non-owning pointer into the binding: the caller keeps inputs
        // alive for the duration of Execute().
        DistMatrix::BlockPtr ptr(std::shared_ptr<void>(),
                                 &src.BlockAt(bi, bj));
        bytes += static_cast<double>(ptr->MemoryBytes()) *
                 (broadcast ? opts_.num_workers : 1);
        dm->Put(dm->OwnerOf(bi, bj), bi, bj, std::move(ptr));
      }
    }
    if (broadcast) DMAC_RETURN_NOT_OK(ReplicateFromWorkerZero(dm.get()));
    return EndCommRound(span, broadcast, bytes, "load");
  }

  Status ExecRandom(const PlanStep& step) {
    auto dm = NewData(step.output, step.decl_shape);
    const BlockGrid& grid = dm->grid();
    // Deterministic per-block seeds make every replica identical, so a
    // Broadcast-scheme random matrix costs no communication.
    for (int64_t bi = 0; bi < grid.block_rows(); ++bi) {
      for (int64_t bj = 0; bj < grid.block_cols(); ++bj) {
        const uint64_t seed =
            RandomBlockSeed(opts_.seed, step.source, bi, bj);
        const Shape s = grid.BlockShape(bi, bj);
        const int owner = dm->OwnerOf(bi, bj);
        DMAC_RETURN_NOT_OK(TimedWorker(step, owner, [&] {
          dm->Put(owner, bi, bj,
                  std::make_shared<const Block>(
                      RandomDenseBlock(s.rows, s.cols, seed)));
          return Status::Ok();
        }));
      }
    }
    return dm->scheme() == Scheme::kBroadcast
               ? ReplicateFromWorkerZero(dm.get())
               : Status::Ok();
  }

  Status ExecPartition(const PlanStep& step) {
    const DistMatrix& src = Data(step.inputs[0]);
    auto dst = NewData(step.output, src.grid().matrix);
    DMAC_CHECK(dst->scheme() != Scheme::kBroadcast);
    // A repartition onto the *same* scheme (SystemML-S's hash shuffle of an
    // already-aligned matrix) keeps block placement in our simulator, but on
    // a real cluster the hash shuffle still pushes an expected (N-1)/N of
    // the data across the network; charge that fraction.
    const bool same_scheme = src.scheme() == dst->scheme();
    const double hash_fraction =
        static_cast<double>(opts_.num_workers - 1) / opts_.num_workers;
    TraceSpan span(kTraceComm, "partition");
    double bytes = 0;
    for (int64_t bi = 0; bi < src.grid().block_rows(); ++bi) {
      for (int64_t bj = 0; bj < src.grid().block_cols(); ++bj) {
        const int to = dst->OwnerOf(bi, bj);
        // Under a Broadcast source every worker already holds the block.
        const int from = src.scheme() == Scheme::kBroadcast
                             ? to
                             : src.OwnerOf(bi, bj);
        DMAC_ASSIGN_OR_RETURN(auto ptr,
                              VerifiedGet(src, from, bi, bj, "partition"));
        if (same_scheme) {
          bytes += static_cast<double>(ptr->MemoryBytes()) * hash_fraction;
        } else if (Host(from) != Host(to)) {
          bytes += static_cast<double>(ptr->MemoryBytes());
        }
        if (UseNetwork() && from != to) {
          DistMatrix* d = dst.get();
          net_->Send(from, to, static_cast<double>(ptr->MemoryBytes()),
                     [d, to, bi, bj, ptr] { d->Put(to, bi, bj, ptr); });
        } else {
          dst->Put(to, bi, bj, std::move(ptr));
        }
      }
    }
    return EndCommRound(span, /*broadcast=*/false, bytes, "partition");
  }

  Status ExecBroadcast(const PlanStep& step) {
    const DistMatrix& src = Data(step.inputs[0]);
    auto dst = NewData(step.output, src.grid().matrix);
    DMAC_CHECK(dst->scheme() == Scheme::kBroadcast);
    TraceSpan span(kTraceComm, "broadcast");
    double bytes = 0;
    for (int64_t bi = 0; bi < src.grid().block_rows(); ++bi) {
      for (int64_t bj = 0; bj < src.grid().block_cols(); ++bj) {
        const int from = src.OwnerOf(bi, bj);
        DMAC_ASSIGN_OR_RETURN(auto ptr,
                              VerifiedGet(src, from, bi, bj, "broadcast"));
        for (int w = 0; w < opts_.num_workers; ++w) {
          if (w != from && Host(w) != Host(from)) {
            bytes += static_cast<double>(ptr->MemoryBytes());
          }
          if (UseNetwork() && w != from) {
            DistMatrix* d = dst.get();
            net_->Send(from, w, static_cast<double>(ptr->MemoryBytes()),
                       [d, w, bi, bj, ptr] { d->Put(w, bi, bj, ptr); });
          } else {
            dst->Put(w, bi, bj, ptr);
          }
        }
      }
    }
    return EndCommRound(span, /*broadcast=*/true, bytes, "broadcast");
  }

  Status ExecTranspose(const PlanStep& step) {
    const DistMatrix& src = Data(step.inputs[0]);
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
                              VerifiedGet(src, w, bi, bj, "extract"));
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
      case OpKind::kAdd:
      case OpKind::kSubtract:
      case OpKind::kCellMultiply:
      case OpKind::kCellDivide:
        return ExecCellwise(step);
      case OpKind::kScalarMultiply:
      case OpKind::kScalarAdd:
        return ExecScalarOp(step);
      case OpKind::kRowSums:
      case OpKind::kColSums:
        return ExecAggregate(step);
      case OpKind::kCellUnary:
        return ExecCellUnary(step);
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
        for (int w = 0; w < opts_.num_workers; ++w) {
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
          DMAC_RETURN_NOT_OK(MultiplyOnWorker(
              step, w, out_grid, tasks, a, b,
              [&sink](int64_t bi, int64_t bj, Block blk) {
                sink(bi, bj, std::move(blk));
              }));
        }
        return Status::Ok();
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
                    if (blk.nnz() == 0) return;  // nothing to ship
                    auto ptr = std::make_shared<const Block>(std::move(blk));
                    MutexLock lock(&mu);
                    out->push_back({bi, bj, std::move(ptr), w});
                  },
                  /*idempotent=*/false);  // a rerun would duplicate *out
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
                          const LocalEngine::SinkFn& sink,
                          bool idempotent = true) {
    const bool ta = step.trans_a;
    const bool tb = step.trans_b;
    return TimedWorker(
        step, worker,
        [&] {
          return engine_.MultiplyBlocks(
              out_grid, tasks,
              [&a, worker, ta](int64_t bi, int64_t k) {
                return ta ? a.Get(worker, k, bi) : a.Get(worker, bi, k);
              },
              [&b, worker, tb](int64_t k, int64_t bj) {
                return tb ? b.Get(worker, bj, k) : b.Get(worker, k, bj);
              },
              sink, MultiplyOptions{ta, tb, step.cache_csr_b});
        },
        idempotent);
  }

  /// A partial block of output block (bi, bj), computed by worker `from`.
  struct Partial {
    int64_t bi;
    int64_t bj;
    DistMatrix::BlockPtr block;
    int from;
  };

  /// Shuffle-and-sum, the cross-product aggregation of CPMM and crossed
  /// row/col sums (cost N·|C|, §4.1). Worker by worker, `partials_of(w,
  /// &out)` computes worker w's partial blocks of `c`, timing its own work,
  /// and the partials are sent to the owners of their output blocks. Each
  /// owner then sums every block's partials in sender order. Output blocks
  /// no worker contributed to are zero blocks.
  template <typename PartialsOf>
  Status ShuffleAndSum(const PlanStep& step, DistMatrix* c, const char* round,
                       const PartialsOf& partials_of) {
    const BlockGrid& grid = c->grid();
    const auto key = [&grid](const Partial& p) {
      return p.bi * grid.block_cols() + p.bj;
    };
    std::vector<std::vector<Partial>> incoming(
        static_cast<size_t>(opts_.num_workers));
    double bytes = 0;
    for (int w = 0; w < opts_.num_workers; ++w) {
      std::vector<Partial> local;
      DMAC_RETURN_NOT_OK(partials_of(w, &local));
      // Pool threads complete tasks in nondeterministic order; sort by
      // output block so the send order — and with it the network layer's
      // fault-draw schedule — is a pure function of the plan and seed.
      std::sort(local.begin(), local.end(),
                [&key](const Partial& x, const Partial& y) {
                  return key(x) < key(y);
                });
      for (Partial& p : local) {
        const int dst = c->OwnerOf(p.bi, p.bj);
        const double block_bytes = static_cast<double>(p.block->MemoryBytes());
        if (Host(dst) != Host(p.from)) bytes += block_bytes;
        if (UseNetwork() && dst != p.from) {
          auto carried = std::make_shared<Partial>(std::move(p));
          net_->Send(carried->from, dst, block_bytes,
                     [&incoming, dst, carried] {
                       incoming[static_cast<size_t>(dst)].push_back(
                           std::move(*carried));
                     });
        } else {
          incoming[static_cast<size_t>(dst)].push_back(std::move(p));
        }
      }
    }
    // Comm-round boundary: partials are in flight. A death forced here
    // (death_in_flight) bumps the epoch while the victim's sends sit
    // queued, so the flush fences them — the stale-epoch path the
    // degraded-mode tests audit. It is also the cheapest place to notice a
    // mid-round cancel.
    if (membership_ != nullptr && opts_.fault.death_in_flight &&
        opts_.fault.death_step == step.id && !forced_death_applied_ &&
        !recovering_) {
      forced_death_applied_ = true;
      ApplyDeath(opts_.fault.death_worker, step.stage);
    }
    DMAC_RETURN_NOT_OK(CheckCancel());
    {
      TraceSpan span(kTraceComm, round);
      DMAC_RETURN_NOT_OK(EndCommRound(span, /*broadcast=*/false, bytes, round));
    }

    for (int w = 0; w < opts_.num_workers; ++w) {
      if (incoming[static_cast<size_t>(w)].empty()) continue;
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
      DMAC_RETURN_NOT_OK(TimedWorker(step, w, [&] {
        std::vector<std::function<Status()>> tasks;
        tasks.reserve(grouped.size());
        for (const auto& [k, parts] : grouped) {
          tasks.push_back([&sink, &grid, k = k, parts = &parts]() -> Status {
            std::vector<const Block*> blocks;
            blocks.reserve(parts->size());
            for (const Partial& p : *parts) blocks.push_back(p.block.get());
            DMAC_ASSIGN_OR_RETURN(Block sum,
                                  SumBlocks(blocks, kDensityThreshold));
            sink(k / grid.block_cols(), k % grid.block_cols(),
                 std::move(sum));
            return Status::Ok();
          });
        }
        return engine_.RunTasks(tasks, TaskKind::kAggregate);
      }));
    }

    for (int64_t bi = 0; bi < grid.block_rows(); ++bi) {
      for (int64_t bj = 0; bj < grid.block_cols(); ++bj) {
        const int w = c->OwnerOf(bi, bj);
        if (c->Get(w, bi, bj) == nullptr) {
          const Shape shape = grid.BlockShape(bi, bj);
          c->Put(w, bi, bj,
                 std::make_shared<const Block>(
                     CscBlock(shape.rows, shape.cols)));
        }
      }
    }
    return Status::Ok();
  }

  /// Block map behind the transpose, cell-wise, scalar and unary steps:
  /// every worker turns each block (bi, bj) of `src` it holds into block
  /// fn(worker, bi, bj, block) of `dst` (at (bj, bi) for a transpose), one
  /// engine task per block. A Broadcast input is mapped once, on worker 0,
  /// and the other replicas share the result.
  template <typename Fn>
  Status MapBlocks(const PlanStep& step, const DistMatrix& src,
                   DistMatrix* dst, TaskKind kind, const Fn& fn) {
    const bool broadcast = src.scheme() == Scheme::kBroadcast;
    const bool transpose = kind == TaskKind::kTranspose;
    for (int w = 0; w < (broadcast ? 1 : opts_.num_workers); ++w) {
      auto blocks = src.WorkerBlocks(w);
      StoreSink sink(dst, w);
      DMAC_RETURN_NOT_OK(TimedWorker(step, w, [&] {
        std::vector<std::function<Status()>> tasks;
        tasks.reserve(blocks.size());
        for (const auto& [bi, bj, ptr] : blocks) {
          tasks.push_back([&fn, &sink, w, transpose, bi = bi, bj = bj,
                           block = ptr.get()]() -> Status {
            DMAC_ASSIGN_OR_RETURN(Block out, fn(w, bi, bj, *block));
            if (transpose) {
              sink(bj, bi, std::move(out));
            } else {
              sink(bi, bj, std::move(out));
            }
            return Status::Ok();
          });
        }
        return engine_.RunTasks(tasks, kind);
      }));
    }
    return broadcast ? ReplicateFromWorkerZero(dst) : Status::Ok();
  }

  Status ExecCellwise(const PlanStep& step) {
    const DistMatrix& a = Data(step.inputs[0]);
    const DistMatrix& b = Data(step.inputs[1]);
    if (a.grid().matrix != b.grid().matrix) {
      return Status::DimensionMismatch("distributed cell-wise op " +
                                       a.grid().matrix.ToString() + " vs " +
                                       b.grid().matrix.ToString());
    }
    DMAC_CHECK(a.scheme() == b.scheme());
    auto c = NewData(step.output, a.grid().matrix);
    const OpKind kind = step.op_kind;
    return MapBlocks(
        step, a, c.get(), TaskKind::kElementwise,
        [&b, kind](int w, int64_t bi, int64_t bj,
                   const Block& ablk) -> Result<Block> {
          auto bptr = b.Get(w, bi, bj);
          if (bptr == nullptr) {
            return Status::Internal("cell-wise op: operand block missing");
          }
          switch (kind) {
            case OpKind::kAdd:
              return Add(ablk, *bptr);
            case OpKind::kSubtract:
              return Subtract(ablk, *bptr);
            case OpKind::kCellMultiply:
              return CellMultiply(ablk, *bptr);
            case OpKind::kCellDivide:
              return CellDivide(ablk, *bptr);
            default:
              return Status::Internal("bad cell-wise kind");
          }
        });
  }

  Status ExecScalarOp(const PlanStep& step) {
    const DistMatrix& a = Data(step.inputs[0]);
    DMAC_ASSIGN_OR_RETURN(double scalar, EvalScalar(step.scalar, scalars_));
    auto c = NewData(step.output, a.grid().matrix);
    const bool add = step.op_kind == OpKind::kScalarAdd;
    const Scalar s = static_cast<Scalar>(scalar);
    return MapBlocks(step, a, c.get(), TaskKind::kElementwise,
                     [add, s](int, int64_t, int64_t, const Block& block) {
                       return Result<Block>(add ? ScalarAdd(block, s)
                                                : ScalarMultiply(block, s));
                     });
  }

  Status ExecCellUnary(const PlanStep& step) {
    const DistMatrix& a = Data(step.inputs[0]);
    auto c = NewData(step.output, a.grid().matrix);
    const UnaryFnKind fn = step.unary_fn;
    return MapBlocks(step, a, c.get(), TaskKind::kElementwise,
                     [fn](int, int64_t, int64_t, const Block& block) {
                       return Result<Block>(CellUnary(block, fn));
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

    // Sums worker w's blocks into one partial per output block.
    auto partial_sums = [&](int w) {
      std::unordered_map<int64_t, DenseBlock> acc;
      for (auto& [bi, bj, ptr] : a.WorkerBlocks(w)) {
        const int64_t idx = rows ? bi : bj;
        auto it = acc.find(idx);
        if (it == acc.end()) {
          const Shape s = rows ? out_grid.BlockShape(idx, 0)
                               : out_grid.BlockShape(0, idx);
          it = acc.emplace(idx, DenseBlock(s.rows, s.cols)).first;
        }
        const DenseBlock partial = rows ? RowSums(*ptr) : ColSums(*ptr);
        Status st = AddAccumulate(Block(partial), &it->second);
        DMAC_CHECK(st.ok()) << st;
      }
      std::vector<Partial> out;
      out.reserve(acc.size());
      for (const auto& [idx, sum] : acc) {
        out.push_back({rows ? idx : 0, rows ? 0 : idx,
                       std::make_shared<const Block>(
                           CompactFromDense(sum, kDensityThreshold)),
                       w});
      }
      return out;
    };

    const bool broadcast = a.scheme() == Scheme::kBroadcast;
    if (broadcast || a.scheme() == (rows ? Scheme::kRow : Scheme::kCol)) {
      // The worker owning a row (column) range holds every block that
      // contributes to its slice of the result.
      for (int w = 0; w < (broadcast ? 1 : opts_.num_workers); ++w) {
        DMAC_RETURN_NOT_OK(TimedWorker(step, w, [&] {
          for (Partial& p : partial_sums(w)) {
            c->Put(w, p.bi, p.bj, std::move(p.block));
          }
          return Status::Ok();
        }));
      }
      return broadcast ? ReplicateFromWorkerZero(c.get()) : Status::Ok();
    }
    return ShuffleAndSum(step, c.get(), "aggregate-shuffle",
                         [&](int w, std::vector<Partial>* out) {
                           return TimedWorker(step, w, [&] {
                             *out = partial_sums(w);
                             return Status::Ok();
                           });
                         });
  }

  /// Shares worker 0's blocks with every other replica of a Broadcast
  /// matrix (all replicas are identical by construction).
  Status ReplicateFromWorkerZero(DistMatrix* dm) {
    for (int64_t bi = 0; bi < dm->grid().block_rows(); ++bi) {
      for (int64_t bj = 0; bj < dm->grid().block_cols(); ++bj) {
        auto ptr = dm->Get(0, bi, bj);
        if (ptr == nullptr) {
          return Status::Internal("broadcast result missing block");
        }
        for (int w = 1; w < opts_.num_workers; ++w) dm->Put(w, bi, bj, ptr);
      }
    }
    return Status::Ok();
  }

  Status ExecReduce(const PlanStep& step) {
    const DistMatrix& a = Data(step.inputs[0]);
    const bool broadcast = a.scheme() == Scheme::kBroadcast;
    const int workers = broadcast ? 1 : opts_.num_workers;
    double total = 0;
    for (int w = 0; w < workers; ++w) {
      double partial = 0;
      Status st = TimedWorker(step, w, [&] {
        for (auto& [bi, bj, ptr] : a.WorkerBlocks(w)) {
          partial += step.reduce == ReduceKind::kNorm2 ? SumSquares(*ptr)
                                                       : Sum(*ptr);
        }
        return Status::Ok();
      },
      /*idempotent=*/false);  // a second run would double `partial`
      DMAC_RETURN_NOT_OK(st);
      total += partial;
    }
    if (step.reduce == ReduceKind::kNorm2) total = std::sqrt(total);
    scalars_[step.scalar_out] = total;
    // Driver aggregation: N partial doubles cross the network (bytes only,
    // no extra round — the reduce piggybacks on the stage boundary).
    TraceSpan span(kTraceComm, "reduce");
    return EndCommRound(span, /*broadcast=*/false, 8.0 * opts_.num_workers,
                        "reduce", /*rounds=*/0);
  }

  // ---- gather -------------------------------------------------------------

  Result<LocalMatrix> Gather(int node_id) {
    DistMatrix& dm = Data(node_id);
    if (gov_.spill != nullptr && dm.SpilledEntries() > 0) {
      TraceSpan span(kTraceSpill, "restore node " + std::to_string(node_id),
                     -1, TraceArg("node", int64_t{node_id}));
      DMAC_RETURN_NOT_OK(dm.EnsureResident().status());
    }
    const BlockGrid& grid = dm.grid();
    std::vector<Block> blocks;
    blocks.reserve(static_cast<size_t>(grid.num_blocks()));
    for (int64_t bi = 0; bi < grid.block_rows(); ++bi) {
      for (int64_t bj = 0; bj < grid.block_cols(); ++bj) {
        auto ptr = dm.GetOwned(bi, bj);
        if (ptr == nullptr) {
          return Status::Internal("gather: missing block (" +
                                  std::to_string(bi) + "," +
                                  std::to_string(bj) + ")");
        }
        blocks.push_back(*ptr);
      }
    }
    return LocalMatrix::FromBlocks(grid.matrix, grid.block_size,
                                   std::move(blocks));
  }

  ExecutorOptions opts_;
  const Plan& plan_;
  const Bindings& bindings_;
  ThreadPool pool_;
  BufferPool buffers_;
  LocalEngine engine_;
  int64_t block_size_ = 0;
  std::vector<std::shared_ptr<DistMatrix>> node_data_;
  std::unordered_map<std::string, double> scalars_;
  ExecStats stats_;

  // Governance (docs/governance.md). The token is a value sharing state
  // with the caller's copy; budget and spill store are shared with every
  // node's DistMatrix. `node_last_use_` drives LRU spill ordering.
  GovernorContext gov_;
  std::unique_ptr<FormatCache> format_cache_;  // not movable: holds a Mutex
  std::vector<int> node_last_use_;
  int step_clock_ = 0;
  bool cancel_span_emitted_ = false;

  // Fault tolerance (docs/fault_tolerance.md). `ft_` is the master switch
  // the hot paths branch on; `injector_` is non-null only when injection is
  // configured; `recovering_` marks work that must be attributed to
  // recovery (and must not be re-injected).
  bool ft_ = false;
  bool recovering_ = false;
  bool plan_has_hints_ = false;
  int64_t checkpoint_counter_ = 0;
  std::unique_ptr<FaultInjector> injector_;
  LineageTracker lineage_;

  // Durable checkpoints & crash restart (docs/fault_tolerance.md,
  // "Durability & restart"). Both pointers are null without a
  // --checkpoint-dir; `effective_checkpoint_every_` is checkpoint_every
  // defaulted to 1 when only the directory was given. Steps with
  // id <= resume_skip_step_ are covered by the restored snapshot; the ids
  // in `reload_step_ids_` are the load steps re-executed anyway.
  std::shared_ptr<StorageIO> storage_io_;
  std::unique_ptr<DurableCheckpointStore> durable_store_;
  int effective_checkpoint_every_ = 0;
  int resume_skip_step_ = -1;
  std::set<int> reload_step_ids_;

  // Membership, degraded mode, and the fault-injecting network layer
  // (docs/fault_tolerance.md). Both pointers are null unless the spec can
  // kill workers or perturb messages, so clean runs pay one branch per
  // transfer. `retry_policy_` also drives the step retry loop (it encodes
  // the same exponential backoff the executor always used).
  std::unique_ptr<ClusterMembership> membership_;
  std::unique_ptr<SimNetwork> net_;
  RetryPolicy retry_policy_;
  Status quorum_status_ = Status::Ok();
  std::vector<int> host_map_;  // cached HostMap; applied to new matrices
  bool forced_death_applied_ = false;
  int min_workers_ = 1;
};

Executor::Executor(ExecutorOptions options) : options_(options) {}

Result<ExecutionResult> Executor::Execute(const Plan& plan,
                                          const Bindings& bindings) {
  Result<ExecutionResult> result = [&] {
    Impl impl(options_, plan, bindings);
    return impl.Run();
  }();  // Impl destroyed here: buffers, stores, and spill charges released
  if (options_.governor.budget != nullptr) {
    MetricRegistry::Global()
        .gauge(kMetricGovernorBudgetPeakBytes)
        ->Set(static_cast<double>(options_.governor.budget->peak_bytes()));
  }
  return result;
}

}  // namespace dmac
