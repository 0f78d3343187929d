// Distributed plan execution on the simulated cluster (paper §5).
//
// The executor walks a finalized plan stage by stage. Communication steps
// move shared block pointers between per-worker stores through the comm
// layer (comm.h), which counts every byte crossing a worker boundary;
// everything else runs worker-local through the block engine. Workers are
// simulated: a step's workers run together, one launch thread each, and
// their block tasks share one compute pool (num_workers × L threads capped
// by the CPUs, L being the paper's local parallelism). Each worker's busy
// time is recorded per stage so that cluster wall time can be derived as
// Σ_stage max_worker(compute) + network model.
//
// Every step launches its worker-local work through one seam,
// ForEachWorker, which charges each worker its own CPU time: its launch
// thread's, plus its task batches replayed on L lanes. A worker's closure
// writes only through a store sink or into its own per-worker slot; sums
// across workers happen after the seam returns, in worker order
// (docs/runtime.md).
//
// Fault tolerance is a separate FaultLayer (fault_layer.h) wrapping step
// execution, constructed only when the options turn it on, and memory
// governance is a GovernorLayer (governor_layer.h), constructed only with
// a budget or a spill store. Step functions never name the fault layer:
// its hooks are the run loop, ForEachWorker and the comm layer's routing.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>

#include "common/result.h"
#include "common/thread_pool.h"
#include "fault/fault_spec.h"
#include "governor/context.h"
#include "matrix/local_matrix.h"
#include "plan/plan.h"
#include "runtime/dist_matrix.h"
#include "obs/exec_stats.h"
#include "runtime/local_engine.h"

namespace dmac {

/// Named input matrices for a plan's load steps.
using Bindings = std::unordered_map<std::string, const LocalMatrix*>;

/// Executor configuration.
struct ExecutorOptions {
  /// Number of simulated workers (must match the planner's num_workers for
  /// the cost model to be meaningful).
  int num_workers = 4;
  /// Local parallelism L per worker.
  int threads_per_worker = kDefaultThreadsPerWorker;
  /// Square block side. 0 = adopt the block size of the first binding.
  int64_t block_size = 0;
  /// In-place (DMac) or buffered (ablation) local multiplication.
  LocalMode local_mode = LocalMode::kInPlace;
  /// Seed for `random` leaves.
  uint64_t seed = 42;
  /// Fault injection and recovery (docs/fault_tolerance.md). While
  /// `fault.enabled` is false and no checkpoint is asked for, the executor
  /// constructs no fault layer.
  FaultSpec fault;
  /// Checkpoint designated matrices every K producing steps (0 = never).
  /// When the plan carries checkpoint hints only hinted nodes count toward
  /// K and are snapshotted; without hints every producing step does.
  int checkpoint_every = 0;
  /// Durable checkpoint directory (docs/fault_tolerance.md, "Durability &
  /// restart"). Non-empty = every in-memory checkpoint is also committed to
  /// disk as a crash-consistent epoch; if `checkpoint_every` is 0 it
  /// defaults to 1 (every producing step). `fault.disk` faults inject into
  /// this path.
  std::string checkpoint_dir;
  /// Restore the last committed snapshot from `checkpoint_dir` before
  /// executing, skipping every step the snapshot covers. The resumed run is
  /// bit-identical to an uninterrupted one. A fresh/empty directory resumes
  /// from nothing (a plain full run), which is what a crash-restart loop
  /// needs on its first iteration.
  bool resume = false;
  /// Quorum: the run fails clean with kUnavailable once permanent worker
  /// deaths leave fewer than this many survivors. Clamped to
  /// [1, num_workers]; the default 1 means "degrade all the way down to a
  /// single worker before giving up".
  int min_workers = 1;
  /// Resource governance (docs/governance.md): cancel token / deadline,
  /// memory budget with spill store. Default-constructed = ungoverned, and
  /// the hot paths cost one branch per step.
  GovernorContext governor;
};

/// Result of executing a plan.
struct ExecutionResult {
  std::unordered_map<std::string, LocalMatrix> matrices;
  std::unordered_map<std::string, double> scalars;
  ExecStats stats;
};

/// Trace-span name of a step: "compute[multiply:RMM1]", "broadcast", ...
std::string StepSpanName(const PlanStep& step);

/// Executes finalized plans. Reusable across plans with the same options.
class Executor {
 public:
  explicit Executor(ExecutorOptions options);

  /// Runs `plan` with the given input bindings.
  Result<ExecutionResult> Execute(const Plan& plan, const Bindings& bindings);

 private:
  class Impl;
  ExecutorOptions options_;
};

}  // namespace dmac
