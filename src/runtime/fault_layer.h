// Fault tolerance around plan-step execution (docs/fault_tolerance.md):
// injection, retries, lineage recovery, permanent deaths and quorum, the
// fault-injecting network, durable epochs and resume. A run whose options
// enable none of it never constructs a FaultLayer.
#pragma once

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/result.h"
#include "fault/durable_checkpoint.h"
#include "fault/durable_io.h"
#include "fault/lineage.h"
#include "runtime/executor.h"
#include "runtime/network.h"

namespace dmac {

/// The executor operations the fault layer calls back into.
class StepRunner {
 public:
  virtual ~StepRunner() = default;
  /// Runs one plan step: the useful attempt, a retry, or a recompute.
  virtual Status ExecuteStep(const PlanStep& step) = 0;
  /// Installs a fresh, empty DistMatrix for `node_id` and returns it.
  virtual std::shared_ptr<DistMatrix> NewData(int node_id, Shape shape) = 0;
  /// Cooperative cancellation poll.
  virtual Status CheckCancel() = 0;
};

/// Recovery, degraded mode and durability for one Execute() call.
class FaultLayer {
 public:
  /// Null unless `opts` enables fault injection, sets `checkpoint_every`
  /// above 0 or names a `checkpoint_dir`; kInvalidArgument on an invalid
  /// fault or disk spec or an out-of-range forced death. The layer reads
  /// and repairs the executor's state through the pointers, which must
  /// outlive it; `last_consumer` maps each node to its last reading step.
  static Result<std::unique_ptr<FaultLayer>> Create(
      const ExecutorOptions& opts, const Plan& plan, StepRunner* runner,
      NodeTable* nodes, const std::vector<int>* last_consumer,
      ScalarEnv* scalars, ExecStats* stats);

  /// With `--resume`, restores the last committed durable snapshot; a
  /// fresh store resumes from nothing (a plain full run).
  Status Resume();
  /// True when the restored snapshot covers `step`, so the executor skips
  /// it. The load step of a reload-marked node re-executes here first.
  Result<bool> CoveredByResume(const PlanStep& step);
  /// Runs `step` after boundary injection, up to 1 + max_retries times; a
  /// retryable failure (Unavailable, DataLoss) backs off and runs lineage
  /// recovery first. On success records the output's lineage and
  /// checkpoints when due; on failure the executor drops partial output.
  Status RunStep(const PlanStep& step);
  /// End-of-run sweep: repairs boundary faults injected after a node's
  /// last consumer, before the executor gathers outputs.
  Status Finish() { return injector_ ? RecoverAll() : Status::Ok(); }
  /// Task-launch draw for worker `w`: the straggler delay in simulated
  /// seconds (0 when none), or an injected transient failure.
  Result<double> OnLaunch(const PlanStep& step, int w);
  /// Physical host of logical slot `w` (identity until a death).
  int HostOf(int w) const { return membership_ ? membership_->HostOf(w) : w; }
  /// True while a repeated attempt or a recovery sweep runs: it is not
  /// re-injected, and its sends bypass the network.
  bool recovering() const { return recovering_; }
  /// Where sends route: null unless the spec can perturb messages or kill
  /// workers, and null during recovery so a bounded retry budget converges.
  SimNetwork* network() const { return recovering_ ? nullptr : net_.get(); }
  /// Shuffle comm-round boundary: where a `death_in_flight` death lands.
  void AtShuffleBoundary(const PlanStep& step);
  /// Copies injector, disk, membership and network counts into ExecStats.
  void ExportStats() const;

 private:
  FaultLayer(const ExecutorOptions& opts, const Plan& plan,
             StepRunner* runner, NodeTable* nodes,
             const std::vector<int>* last_consumer, ScalarEnv* scalars,
             ExecStats* stats)
      : opts_(opts),
        plan_(plan),
        runner_(runner),
        nodes_(nodes),
        last_consumer_(last_consumer),
        scalars_(scalars),
        stats_(stats) {}

  Status SetUp();
  /// Restores the useful totals of ExecStats to `before`'s (so they stay
  /// bit-identical to a clean run's) and charges the difference to recovery.
  void MoveToRecovery(const ExecStats& before);
  std::shared_ptr<DistMatrix>& Node(int id) {
    return (*nodes_)[static_cast<size_t>(id)];
  }
  void InjectBoundaryFaults(const PlanStep& step);
  void ApplyDeath(int victim);
  [[nodiscard]] Status RecoverAll();
  [[nodiscard]] Status RecoverNode(int node_id, const NodeLineage& lin);
  NodeLineage& RecordLineage(const PlanStep& step);
  [[nodiscard]] Status MaybeCheckpoint(const PlanStep& step,
                                       NodeLineage& lin);
  [[nodiscard]] Status CommitDurable(const PlanStep& step);

  const ExecutorOptions& opts_;
  const Plan& plan_;
  StepRunner* runner_;
  NodeTable* nodes_;
  const std::vector<int>* last_consumer_;
  ScalarEnv* scalars_;
  ExecStats* stats_;

  std::unique_ptr<FaultInjector> injector_;  // null unless fault.enabled
  LineageTracker lineage_;
  RetryPolicy retry_policy_;
  bool recovering_ = false;  // repeated or recovery work, not re-injected

  // Checkpoints: checkpoint_every, defaulted to 1 by a durable directory.
  int effective_checkpoint_every_ = 0;
  int64_t checkpoint_counter_ = 0;
  bool plan_has_hints_ = false;

  // Durable epochs (null without a checkpoint directory). The snapshot
  // covers steps up to resume_skip_step_; reload_step_ids_ re-execute.
  std::shared_ptr<StorageIO> storage_io_;
  std::unique_ptr<DurableCheckpointStore> durable_store_;
  int resume_skip_step_ = -1;
  std::set<int> reload_step_ids_;

  // Null unless the spec can kill workers or perturb messages.
  std::unique_ptr<ClusterMembership> membership_;
  std::unique_ptr<SimNetwork> net_;
  Status quorum_status_ = Status::Ok();
  bool forced_death_applied_ = false;
  int min_workers_ = 1;
};

}  // namespace dmac
