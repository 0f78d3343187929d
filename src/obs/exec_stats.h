// Execution statistics: communication accounting and timing.
//
// Communication bytes are counted exactly as blocks cross worker stores,
// by the comm layer (runtime/comm.h) — the metric of the paper's Fig. 6(b).
// Wall-clock time on a real cluster is modeled as measured compute (max
// over workers per stage, since stages are barriers) plus simulated
// network transfer time.
//
// Every field exported as a metric has exactly one row in MetricCatalog()
// (obs/metrics.cc) that names it and says how to read it from here.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

namespace dmac {

/// Network cost model of the simulated cluster.
struct NetworkModel {
  /// Effective per-link bandwidth (bytes/second). Default ~1 Gbit/s, the
  /// class of interconnect used in the paper's cluster.
  double bandwidth_bytes_per_sec = 125e6;
  /// Fixed startup cost per communication event (one shuffle or broadcast
  /// round — roughly a Spark stage boundary).
  double latency_sec = 0.01;
};

/// Counters the simulated network layer (runtime/network.h) accumulates
/// across a run. None of them perturb the useful-comm totals: drop /
/// duplicate / reorder / delay only ever add recovery-side accounting.
struct NetFaultStats {
  int64_t messages = 0;      ///< transfers routed through the layer
  int64_t retransmits = 0;   ///< dropped sends that were retried
  double retrans_bytes = 0;  ///< bytes moved again by retransmits
  int64_t duplicates = 0;    ///< duplicate deliveries absorbed by dedup
  int64_t reordered = 0;     ///< out-of-order arrivals absorbed by sorting
  double delay_seconds = 0;  ///< simulated latency added by delays/backoff
  int64_t partitions = 0;    ///< transient partitions opened
  int64_t stale_fenced = 0;  ///< dead-sender transfers fenced by epoch
  /// Audit counter: dead-sender transfers *applied* anyway. Structurally
  /// zero — DeclareDead bumps the epoch past anything the victim sent —
  /// and asserted zero by the degraded-mode tests.
  int64_t stale_applied = 0;
};

/// Statistics of one plan execution.
struct ExecStats {
  double shuffle_bytes = 0;
  double broadcast_bytes = 0;
  int64_t shuffle_events = 0;
  int64_t broadcast_events = 0;

  /// Measured local compute seconds, per stage and per worker. A worker's
  /// seconds are CPU time, not wall time: its launch thread's CPU time,
  /// plus its task batches' thread-CPU seconds replayed FIFO on L lanes,
  /// plus any simulated straggler delay — so the workers of a step, which
  /// run together on one shared pool, are not charged for each other's
  /// work. Stages are numbered 1-based everywhere they are user-visible
  /// (plans, --stats output, AddWorkerSeconds), but this vector is
  /// 0-indexed: stage_worker_seconds[s][w] is worker w's busy time in
  /// stage number s + 1. See docs/runtime.md.
  std::vector<std::vector<double>> stage_worker_seconds;

  /// Peak tracked block memory over the run (process-wide).
  int64_t peak_memory_bytes = 0;

  int64_t steps_executed = 0;  // plan steps run, excluding resume-skipped
  int64_t stages = 0;          // barrier stages of the plan; set on completion

  // --- Fault tolerance (docs/fault_tolerance.md). All zero in a fault-free
  // run. Failed attempts and recovery sweeps are kept out of the useful
  // totals above (the attempt that succeeds is useful), so
  // TotalComputeSeconds()/comm_bytes() still measure the algorithm.
  int64_t faults_injected = 0;
  int64_t retries = 0;            // step attempts repeated after a failure
  int64_t recomputed_blocks = 0;  // rebuilt by re-running lineage producers
  int64_t restored_blocks = 0;    // restored from checkpoint / replica
  int64_t checkpoint_bytes = 0;   // deep-copied into lineage-record payloads
  double recovery_bytes = 0;  // comm bytes of failed attempts and sweeps
  /// Worker seconds of failed attempts and recovery sweeps, plus backoff
  /// waits and failure detection.
  double recovery_seconds = 0;

  // --- Membership / permanent worker loss (docs/fault_tolerance.md).
  int64_t workers_dead = 0;        // permanent deaths over the run
  int64_t membership_epoch = 0;    // final epoch (0 = membership not built)
  double detection_seconds = 0;    // simulated failure-detection latency

  /// Message-level network faults; all zero when the layer is off.
  NetFaultStats net;

  // --- Durable checkpoints & crash restart (docs/fault_tolerance.md,
  // "Durability & restart"). All zero without --checkpoint-dir.
  int64_t durable_checkpoint_bytes = 0;  // committed to disk (blocks+manifests)
  int64_t durable_epochs = 0;            // checkpoint epochs committed
  int64_t checkpoint_failures = 0;       // durable commits that failed (run continued)
  int64_t disk_faults_injected = 0;      // faults drawn by the StorageIO layer
  bool resumed = false;                  // this run restored a durable snapshot
  int64_t resume_step = -1;              // last step the snapshot covered
  int64_t resume_restored_blocks = 0;    // blocks read back from disk on resume
  double resume_seconds = 0;             // wall time of the snapshot restore

  // --- Plan-estimate drift (docs/planner.md). The §5.1 size estimator is
  // deliberately worst-case (s_C = 1 after every multiply), which makes
  // chained-multiply estimates wildly pessimistic; these fields record what
  // actually happened so the planner.estimate.drift metric can surface it.
  /// The §4.1 communication estimate the executed plan carried.
  double estimated_comm_bytes = 0;
  /// max(estimated, measured) / min(estimated, measured) communication
  /// bytes: always >= 1 once both sides are nonzero; 0 = not computed.
  double estimate_drift = 0;

  double comm_bytes() const { return shuffle_bytes + broadcast_bytes; }
  int64_t comm_events() const { return shuffle_events + broadcast_events; }

  /// Adds `seconds` of busy time for `worker` in stage number `stage`
  /// (1-based, i.e. stored at stage_worker_seconds[stage - 1]).
  void AddWorkerSeconds(int stage, int worker, double seconds) {
    if (stage < 1) stage = 1;
    if (static_cast<size_t>(stage) > stage_worker_seconds.size()) {
      stage_worker_seconds.resize(static_cast<size_t>(stage));
    }
    auto& per_worker = stage_worker_seconds[static_cast<size_t>(stage - 1)];
    if (static_cast<size_t>(worker) >= per_worker.size()) {
      per_worker.resize(static_cast<size_t>(worker) + 1, 0.0);
    }
    per_worker[static_cast<size_t>(worker)] += seconds;
  }

  /// Cluster-equivalent compute wall time: stages are barriers, so each
  /// stage costs its slowest worker.
  double ComputeWallSeconds() const {
    double total = 0;
    for (const auto& per_worker : stage_worker_seconds) {
      double mx = 0;
      for (double s : per_worker) mx = std::max(mx, s);
      total += mx;
    }
    return total;
  }

  /// Total busy CPU time across all stages and workers — the cluster's
  /// aggregate compute, as opposed to ComputeWallSeconds()' critical path.
  /// Their ratio is a direct read on per-worker skew.
  double TotalComputeSeconds() const {
    double total = 0;
    for (const auto& per_worker : stage_worker_seconds) {
      for (double s : per_worker) total += s;
    }
    return total;
  }

  /// Modeled network transfer time under `net`.
  double CommSeconds(const NetworkModel& net) const {
    return comm_bytes() / net.bandwidth_bytes_per_sec +
           static_cast<double>(comm_events()) * net.latency_sec;
  }

  /// Modeled end-to-end time: compute + network.
  double SimulatedSeconds(const NetworkModel& net) const {
    return ComputeWallSeconds() + CommSeconds(net);
  }
};

}  // namespace dmac
