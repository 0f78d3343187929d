#include "runtime/fault_layer.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <utility>

#include "common/timer.h"
#include "obs/trace.h"

namespace dmac {

namespace {

/// The records of `lin` whose blocks `dm` (null: all of them) no longer
/// holds intact: missing, or not hashing to their recorded checksum.
std::vector<LineageBlockRecord> DamagedBlocks(const DistMatrix* dm,
                                              const NodeLineage& lin) {
  if (dm == nullptr) return lin.blocks;
  std::vector<LineageBlockRecord> damaged;
  const int64_t bcols = dm->grid().block_cols();
  for (const LineageBlockRecord& rec : lin.blocks) {
    if (!dm->VerifyAt(rec.worker, rec.key / bcols, rec.key % bcols).ok()) {
      damaged.push_back(rec);
    }
  }
  return damaged;
}

}  // namespace

Result<std::unique_ptr<FaultLayer>> FaultLayer::Create(
    const ExecutorOptions& opts, const Plan& plan, StepRunner* runner,
    NodeTable* nodes, const std::vector<int>* last_consumer,
    ScalarEnv* scalars, ExecStats* stats) {
  if (!opts.fault.enabled && opts.checkpoint_every <= 0 &&
      opts.checkpoint_dir.empty()) {
    return std::unique_ptr<FaultLayer>();
  }
  std::unique_ptr<FaultLayer> layer(new FaultLayer(
      opts, plan, runner, nodes, last_consumer, scalars, stats));
  const Status st = layer->SetUp();
  if (!st.ok()) layer->ExportStats();  // disk faults drawn opening the store
  DMAC_RETURN_NOT_OK(st);
  return layer;
}

Status FaultLayer::SetUp() {
  const bool durable = !opts_.checkpoint_dir.empty();
  // A durable directory implies checkpointing: default the cadence to
  // every producing step so a bare --checkpoint-dir is crash-safe.
  effective_checkpoint_every_ =
      opts_.checkpoint_every > 0 ? opts_.checkpoint_every : (durable ? 1 : 0);
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
  retry_policy_.max_retries = opts_.fault.max_retries;
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
  plan_has_hints_ =
      std::any_of(plan_.nodes.begin(), plan_.nodes.end(),
                  [](const PlanNode& n) { return n.checkpoint_hint; });
  return Status::Ok();
}

void FaultLayer::ExportStats() const {
  if (injector_) stats_->faults_injected = injector_->faults_drawn();
  if (storage_io_) {
    stats_->disk_faults_injected = storage_io_->faults_injected();
  }
  if (membership_) stats_->membership_epoch = membership_->epoch();
  if (net_) stats_->net = net_->stats();
}

void FaultLayer::MoveToRecovery(const ExecStats& before) {
  stats_->recovery_bytes += stats_->comm_bytes() - before.comm_bytes();
  stats_->recovery_seconds +=
      stats_->TotalComputeSeconds() - before.TotalComputeSeconds();
  stats_->shuffle_bytes = before.shuffle_bytes;
  stats_->broadcast_bytes = before.broadcast_bytes;
  stats_->shuffle_events = before.shuffle_events;
  stats_->broadcast_events = before.broadcast_events;
  stats_->stage_worker_seconds = before.stage_worker_seconds;
}

Result<double> FaultLayer::OnLaunch(const PlanStep& step, int w) {
  // Recovery attempts are not re-injected — except a permanent fault,
  // which by definition fails every attempt until retries exhaust.
  if (injector_ == nullptr ||
      (recovering_ && step.id != opts_.fault.permanent_fail_step)) {
    return 0.0;
  }
  if (injector_->DrawTransientFailure(step.id)) {
    return Status::Unavailable("injected transient failure on worker " +
                               std::to_string(w) + " in step " +
                               std::to_string(step.id));
  }
  return injector_->DrawStragglerDelay();
}

void FaultLayer::AtShuffleBoundary(const PlanStep& step) {
  // The death bumps the epoch while the victim's sends sit queued, so the
  // flush fences them — the stale-epoch path the degraded-mode tests audit.
  if (membership_ != nullptr && opts_.fault.death_in_flight &&
      opts_.fault.death_step == step.id && !forced_death_applied_ &&
      !recovering_) {
    forced_death_applied_ = true;
    ApplyDeath(opts_.fault.death_worker);
  }
}

Status FaultLayer::RunStep(const PlanStep& step) {
  if (injector_ != nullptr) InjectBoundaryFaults(step);
  // Below quorum the run fails clean — no retries burned, no recovery
  // attempted.
  if (!quorum_status_.ok()) return quorum_status_;
  for (int attempt = 0;; ++attempt) {
    // Repeats are not re-injected, and the attempt that succeeds is the
    // useful one. Sends a failed attempt left queued (e.g. a missing block
    // detected mid-shuffle) must never leak into a later flush.
    recovering_ = attempt > 0;
    if (net_ != nullptr) net_->Clear();
    const ExecStats before = *stats_;
    Status st = Status::Ok();
    for (int input : step.inputs) {  // verify inputs against their lineage
      const NodeLineage* lin = lineage_.Find(input);  // null: pre-fault-mode
      if (lin != nullptr && !DamagedBlocks(Node(input).get(), *lin).empty()) {
        st = Status::DataLoss("input node " + std::to_string(input) +
                              " has missing or corrupt blocks");
        break;
      }
    }
    if (st.ok()) st = runner_->ExecuteStep(step);
    recovering_ = false;
    if (st.ok()) break;
    MoveToRecovery(before);
    // An in-flight death during the attempt may have dropped the cluster
    // below quorum; give up before the retry machinery spends anything.
    if (!quorum_status_.ok()) return quorum_status_;
    // A fired token preempts the retry path: the query exits promptly —
    // no retry counted, no simulated backoff, no recovery sweep.
    DMAC_RETURN_NOT_OK(runner_->CheckCancel());
    if (!RetryPolicy::Retryable(st)) return st;
    if (attempt >= retry_policy_.max_retries) {
      const std::string msg = "step " + std::to_string(step.id) +
                              " failed after " + std::to_string(attempt + 1) +
                              " attempts: " + st.message();
      return st.code() == StatusCode::kUnavailable ? Status::Unavailable(msg)
                                                   : Status::DataLoss(msg);
    }
    TraceSpan span(kTraceRecovery, "retry " + StepSpanName(step), -1,
                   TraceArg("step", int64_t{step.id}) + "," +
                       TraceArg("attempt", int64_t{attempt + 1}));
    ++stats_->retries;
    // Simulated exponential backoff; transient faults clear with time.
    stats_->recovery_seconds += retry_policy_.BackoffSeconds(attempt);
    DMAC_RETURN_NOT_OK(RecoverAll());
  }
  if (step.output < 0) return Status::Ok();
  return MaybeCheckpoint(step, RecordLineage(step));
}

/// Step-boundary injection: worker crashes, permanent worker deaths, and
/// per-entry lost/corrupted blocks, applied to every live node in a
/// deterministic sweep (nodes by id, workers ascending, store keys
/// ascending) so a seed always yields the same schedule.
void FaultLayer::InjectBoundaryFaults(const PlanStep& step) {
  int victim = -1;
  if (injector_->DrawCrash(opts_.num_workers, &victim)) {
    TraceSpan span(kTraceRecovery, "inject-crash", victim);
    for (auto& dm : *nodes_) {
      if (dm != nullptr) dm->ClearWorker(victim);
    }
  }
  if (membership_ != nullptr) {
    // Forced death at a chosen step boundary (death_in_flight instead
    // fires mid-CPMM, at the communication-round boundary).
    if (opts_.fault.death_step == step.id && !opts_.fault.death_in_flight &&
        !forced_death_applied_) {
      forced_death_applied_ = true;
      ApplyDeath(opts_.fault.death_worker);
    }
    // Probabilistic deaths are quorum-budgeted: once one more death would
    // drop the cluster below min_workers, no further draw is consumed —
    // the fault schedule of the surviving spec stays deterministic.
    if (opts_.fault.death_prob > 0 &&
        membership_->live_workers() - 1 >= min_workers_ &&
        injector_->DrawWorkerDeath()) {
      // The k-th live worker, counting from worker 0.
      int k = injector_->DrawVictim(membership_->live_workers());
      int w = 0;
      while (membership_->IsDead(w) || k-- > 0) ++w;
      ApplyDeath(w);
    }
  }
  if (opts_.fault.lost_block_prob <= 0 && opts_.fault.corrupt_prob <= 0) return;
  for (auto& dm : *nodes_) {
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
          dm->ReplacePayload(
              w, bi, bj,
              NewBlockPtr(CorruptedCopy(*ptr, injector_->DrawSeed())));
        }
      }
    }
  }
}

/// Permanently kills logical worker `victim`: the detector declares it dead
/// (the epoch bump fences its in-flight sends), its blocks vanish, and a
/// survivor hosts its slot (HostOf). The next recovery sweep re-derives the
/// lost blocks; below quorum this arms `quorum_status_` instead.
void FaultLayer::ApplyDeath(int victim) {
  if (membership_->IsDead(victim)) return;  // death is permanent
  const double detection = membership_->DeclareDead(victim);
  stats_->detection_seconds += detection;
  stats_->recovery_seconds += detection;
  ++stats_->workers_dead;
  for (auto& dm : *nodes_) {
    if (dm != nullptr) dm->ClearWorker(victim);
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

/// Repairs every damaged node, cheapest source first (checkpoint, Broadcast
/// replica, recompute by re-running the producer step), walking nodes in
/// producer-step order so a recompute reads repaired inputs. Repaired state
/// must match the lineage records bit for bit.
Status FaultLayer::RecoverAll() {
  TraceSpan span(kTraceRecovery, "recover-all");
  const ExecStats before = *stats_;
  recovering_ = true;
  Status st = Status::Ok();
  for (const PlanStep& step : plan_.steps) {
    if (step.output < 0) continue;
    const NodeLineage* lin = lineage_.Find(step.output);
    if (lin == nullptr) continue;  // not (successfully) produced yet
    st = RecoverNode(step.output, *lin);
    if (!st.ok()) break;
  }
  recovering_ = false;
  MoveToRecovery(before);
  return st;
}

Status FaultLayer::RecoverNode(int node_id, const NodeLineage& lin) {
  auto& dm = Node(node_id);
  std::vector<LineageBlockRecord> dirty = DamagedBlocks(dm.get(), lin);
  if (dirty.empty()) return Status::Ok();

  TraceSpan span =
      TraceRecorder::Global().enabled()
          ? TraceSpan(kTraceRecovery,
                      "recover node " +
                          plan_.nodes[static_cast<size_t>(node_id)].ToString(),
                      -1,
                      TraceArg("node", int64_t{node_id}) + "," +
                          TraceArg("dirty", static_cast<int64_t>(dirty.size())))
          : TraceSpan();

  // 1. Checkpoint restore from the record's own deep copy (a checkpoint
  //    gives every block of a record one), else 2. copy a surviving,
  //    verifying Broadcast replica.
  if (dm != nullptr) {
    std::vector<LineageBlockRecord> remaining;
    const int64_t bcols = dm->grid().block_cols();
    const bool replicated = dm->scheme() == Scheme::kBroadcast;
    for (LineageBlockRecord& rec : dirty) {
      const int64_t bi = rec.key / bcols;
      const int64_t bj = rec.key % bcols;
      bool repaired = rec.payload != nullptr;
      if (repaired) dm->Put(rec.worker, bi, bj, rec.payload);
      for (int w = 0; replicated && w < opts_.num_workers && !repaired; ++w) {
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
      if (repaired) {
        ++stats_->restored_blocks;
      } else {
        remaining.push_back(std::move(rec));
      }
    }
    dirty = std::move(remaining);
  }

  // 3. Recompute from lineage: re-run the producer step (deterministic, so
  //    the rebuilt matrix is bit-identical). Inputs were repaired by
  //    earlier iterations of the producer-order walk.
  if (!dirty.empty()) {
    const PlanStep& producer =
        plan_.steps[static_cast<size_t>(lin.producer_step)];
    DMAC_RETURN_NOT_OK(runner_->ExecuteStep(producer));
    stats_->recomputed_blocks += static_cast<int64_t>(dirty.size());
  }

  // Re-stamp and enforce bit-identity with the lineage record.
  if (dm == nullptr) {
    return Status::Internal("recovery left node " + std::to_string(node_id) +
                            " unmaterialized");
  }
  dm->SetChecksums();
  const int64_t bcols = dm->grid().block_cols();
  for (const LineageBlockRecord& rec : lin.blocks) {
    if (dm->ChecksumAt(rec.worker, rec.key / bcols, rec.key % bcols) !=
        rec.checksum) {
      return Status::Internal(
          "recovery of node " + std::to_string(node_id) +
          " diverged from its lineage manifest at block key " +
          std::to_string(rec.key) + " on worker " +
          std::to_string(rec.worker));
    }
  }
  return Status::Ok();
}

/// Stamps the output's checksums and records its lineage (no payloads).
NodeLineage& FaultLayer::RecordLineage(const PlanStep& step) {
  DMAC_CHECK(Node(step.output) != nullptr) << "node " << step.output;
  DistMatrix& dm = *Node(step.output);
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
Status FaultLayer::MaybeCheckpoint(const PlanStep& step, NodeLineage& lin) {
  if (effective_checkpoint_every_ <= 0) return Status::Ok();
  const PlanNode& node = plan_.nodes[static_cast<size_t>(step.output)];
  if (plan_has_hints_ && !node.checkpoint_hint) return Status::Ok();
  if (++checkpoint_counter_ % effective_checkpoint_every_ != 0) {
    return Status::Ok();
  }
  TraceSpan span(kTraceCheckpoint, "checkpoint " + node.ToString(), -1,
                 TraceArg("node", int64_t{node.id}));
  const DistMatrix& dm = *Node(step.output);
  const int64_t bcols = dm.grid().block_cols();
  // Deep copies, deduplicated per payload so Broadcast replicas (shared
  // pointers) are copied — and billed — once.
  std::unordered_map<const Block*, std::shared_ptr<const Block>> copies;
  for (LineageBlockRecord& rec : lin.blocks) {
    auto ptr = dm.Get(rec.worker, rec.key / bcols, rec.key % bcols);
    auto [it, inserted] = copies.try_emplace(ptr.get(), nullptr);
    if (inserted) {
      it->second = NewBlockPtr(*ptr);
      stats_->checkpoint_bytes += it->second->MemoryBytes();
    }
    rec.payload = it->second;
  }
  return durable_store_ != nullptr ? CommitDurable(step) : Status::Ok();
}

/// Commits a durable epoch covering everything a restart needs to resume
/// after `step`: the scalar environment, reload markers for the nodes
/// produced by kLoad steps (their blocks alias caller-owned bindings and
/// are re-loaded instead of serialized), and every block of every other
/// live node — the inputs of later steps plus the plan outputs.
Status FaultLayer::CommitDurable(const PlanStep& step) {
  TraceSpan span(kTraceCheckpoint,
                 "commit epoch after step " + std::to_string(step.id), -1,
                 TraceArg("step", int64_t{step.id}));
  std::vector<int> reload_nodes;
  std::vector<NodeBlockRecord> pending;
  // Nodes ascending, so the manifest layout is deterministic.
  for (int node_id = 0; node_id < static_cast<int>(nodes_->size());
       ++node_id) {
    if ((*last_consumer_)[static_cast<size_t>(node_id)] <= step.id) continue;
    auto& dm = Node(node_id);
    if (dm == nullptr) continue;  // not produced yet
    const PlanNode& node = plan_.nodes[static_cast<size_t>(node_id)];
    if (node.producer_step >= 0 &&
        plan_.steps[static_cast<size_t>(node.producer_step)].kind ==
            StepKind::kLoad) {
      reload_nodes.push_back(node_id);
      continue;
    }
    DMAC_RETURN_NOT_OK(RestoreSpilled(node_id, dm.get()));
    // Snapshot the *recorded* checksums, deliberately not re-stamping, which
    // would launder a boundary-injected corruption into the manifest; a bad
    // payload fails verification at Open and the epoch falls back.
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
  std::vector<std::pair<std::string, double>> scalar_env(scalars_->begin(),
                                                         scalars_->end());
  std::sort(scalar_env.begin(), scalar_env.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  const int64_t before = durable_store_->bytes_written();
  const Status st = durable_store_->Commit(step.id, checkpoint_counter_,
                                           scalar_env, reload_nodes, pending);
  if (!st.ok()) {
    // A simulated process death propagates (hard mode never returns; soft
    // mode surfaces kInternal). Any other disk fault is absorbed: the run
    // continues, covered by the previous committed epoch.
    if (storage_io_->dead() || st.code() == StatusCode::kInternal) return st;
    ++stats_->checkpoint_failures;
    return Status::Ok();
  }
  stats_->durable_checkpoint_bytes += durable_store_->bytes_written() - before;
  ++stats_->durable_epochs;
  return Status::Ok();
}

/// Restores scalars, every snapshotted node, and one lineage record per
/// node whose payloads are the restored blocks (in-process recovery never
/// re-reads disk).
Status FaultLayer::Resume() {
  if (!opts_.resume || durable_store_ == nullptr) return Status::Ok();
  const DurableSnapshot* snap = durable_store_->committed();
  if (snap == nullptr) return Status::Ok();
  Timer timer;
  TraceSpan span(
      kTraceCheckpoint, "resume epoch " + std::to_string(snap->epoch), -1,
      TraceArg("epoch", snap->epoch) + "," +
          TraceArg("step", int64_t{snap->resume_step}));

  // The snapshot must describe *this* plan; a stale directory from a
  // different program or config must fail loudly, not half-restore.
  const auto bad = [&](const std::string& why) {
    return Status::Invalid("resume: checkpoint dir " + durable_store_->dir() +
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
    const int producer =
        plan_.nodes[static_cast<size_t>(node_id)].producer_step;
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
    (*scalars_)[name] = value;
  }
  checkpoint_counter_ = snap->checkpoint_counter;
  resume_skip_step_ = snap->resume_step;

  // Group the snapshot's blocks per node and rebuild each DistMatrix.
  std::map<int, std::vector<const DurableBlock*>> per_node;
  for (const DurableBlock& b : snap->blocks) {
    if (b.node_id < 0 ||
        static_cast<size_t>(b.node_id) >= plan_.nodes.size()) {
      return bad("block node " + std::to_string(b.node_id) + " out of range");
    }
    if (b.worker < 0 || b.worker >= opts_.num_workers) {
      return bad("block worker " + std::to_string(b.worker) +
                 " out of range — was the snapshot taken with a different "
                 "--workers?");
    }
    per_node[b.node_id].push_back(&b);
  }
  for (const auto& [node_id, refs] : per_node) {
    const PlanNode& node = plan_.nodes[static_cast<size_t>(node_id)];
    auto dm = runner_->NewData(node_id, node.stats.shape);
    const int64_t bcols = dm->grid().block_cols();
    NodeLineage lin;
    lin.node_id = node_id;
    lin.producer_step = node.producer_step;
    if (node.producer_step >= 0) {
      lin.inputs = plan_.steps[static_cast<size_t>(node.producer_step)].inputs;
    }
    // One read per distinct file: Broadcast replicas share a payload on
    // disk exactly as they do in memory.
    std::unordered_map<std::string, std::shared_ptr<const Block>> loaded;
    for (const DurableBlock* ref : refs) {
      const int64_t bi = ref->key / bcols;
      const int64_t bj = ref->key % bcols;
      if (bi >= dm->grid().block_rows() || bj >= dm->grid().block_cols()) {
        return bad("block key " + std::to_string(ref->key) + " outside node " +
                   std::to_string(node_id) + "'s grid");
      }
      auto [it, inserted] = loaded.try_emplace(ref->file);
      if (inserted) {
        DMAC_ASSIGN_OR_RETURN(Block block, durable_store_->ReadBlock(*ref));
        it->second = NewBlockPtr(std::move(block));
        ++stats_->resume_restored_blocks;
      }
      dm->Put(ref->worker, bi, bj, it->second);
      lin.blocks.push_back({ref->worker, ref->key, ref->checksum, it->second});
    }
    dm->SetChecksums();
    lineage_.Record(std::move(lin));
  }
  stats_->resumed = true;
  stats_->resume_step = snap->resume_step;
  stats_->resume_seconds = timer.ElapsedSeconds();
  return Status::Ok();
}

Result<bool> FaultLayer::CoveredByResume(const PlanStep& step) {
  if (step.id > resume_skip_step_) return false;
  if (reload_step_ids_.count(step.id) != 0) {
    // Re-load against the caller's bindings. Lineage only: the snapshot's
    // checkpoint counter already includes this step's contribution from
    // the original run.
    DMAC_RETURN_NOT_OK(runner_->ExecuteStep(step));
    RecordLineage(step);
  }
  return true;
}

}  // namespace dmac
