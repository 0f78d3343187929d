// Fault-injection configuration (docs/fault_tolerance.md).
//
// A FaultSpec describes a *distribution* of faults; the concrete schedule
// is drawn deterministically from `seed` by the FaultInjector, so a (spec,
// seed, program) triple always injects exactly the same faults at exactly
// the same points. Specs are built in code or parsed from the simple
// `key = value` file format accepted by `dmac_run --fault-spec`.
#pragma once

#include <cstdint>
#include <string>

#include "common/result.h"

namespace dmac {

/// Message-level network faults, applied inside the accounting network
/// layer (docs/fault_tolerance.md). Every knob is a per-message seeded
/// probability drawn by the FaultInjector at send time; delivery semantics
/// (retransmit-until-acked, sequence-numbered dedup, sorted commit) absorb
/// every fault without changing results — only `fault.net.*` accounting.
struct NetFaultSpec {
  /// Per message: probability the transfer is dropped and retransmitted
  /// after a RetryPolicy backoff.
  double drop_prob = 0;
  /// Per message: probability a duplicate copy (same sequence number) is
  /// also delivered; the receiver dedups it.
  double dup_prob = 0;
  /// Per message: probability the message arrives out of order; sorted
  /// sequence-number delivery absorbs it.
  double reorder_prob = 0;
  /// Per message: probability the message is delayed by `delay_seconds`.
  double delay_prob = 0;
  /// Extra simulated latency of a delayed message.
  double delay_seconds = 0.005;
  /// Per message: probability a transient bidirectional partition opens
  /// around the sender, force-dropping the next `partition_drops` messages
  /// that involve it before healing.
  double partition_prob = 0;
  /// Messages a partition eats before it heals.
  int partition_drops = 8;

  /// True when any network fault can ever fire.
  [[nodiscard]] bool Any() const {
    return drop_prob > 0 || dup_prob > 0 || reorder_prob > 0 ||
           delay_prob > 0 || partition_prob > 0;
  }

  /// Rejects probabilities outside [0, 1] and nonsensical knobs.
  [[nodiscard]] Status Validate() const;
};

/// Disk faults, injected inside the StorageIO layer (fault/durable_io.h)
/// that the durable checkpoint store and the spill store write through.
/// Drawn from StorageIO's private RNG (seeded from `FaultSpec::seed`), not
/// the FaultInjector, so disk schedules never perturb the injector's draw
/// sequence — see the durable_io.h header comment.
struct DiskFaultSpec {
  /// Per atomic file write: probability the write is torn short and fails
  /// (surfaced as kUnavailable; the temp file is rolled back).
  double short_write_prob = 0;
  /// Per file read: probability one bit of the returned buffer is flipped.
  /// Detection is the caller's checksum's job.
  double read_flip_prob = 0;
  /// Per atomic file write: probability the disk is "full" (ENOSPC,
  /// surfaced as kResourceExhausted — disk-full is not corruption).
  double enospc_prob = 0;
  /// Per fsync: probability the sync fails (surfaced as kUnavailable).
  double fsync_fail_prob = 0;
  /// Deterministic crash: kill the process at the Nth enumerated write
  /// point (1-based; each atomic write enumerates three — torn temp,
  /// synced temp, after rename). -1 disables. The crash-loop harness
  /// (scripts/crash_loop.sh) sweeps N until the job completes.
  int crash_at = -1;
  /// Crash in-process (return kInternal and refuse further I/O) instead of
  /// std::_Exit(42). For tests and the soak driver; the crash-loop harness
  /// keys on the hard exit code.
  bool crash_soft = false;

  /// True when any disk fault (or the crash) can ever fire.
  [[nodiscard]] bool Any() const {
    return short_write_prob > 0 || read_flip_prob > 0 || enospc_prob > 0 ||
           fsync_fail_prob > 0 || crash_at >= 1;
  }

  /// Rejects probabilities outside [0, 1] and nonsensical knobs.
  [[nodiscard]] Status Validate() const;
};

/// Probabilities and policy knobs of the simulated failure model.
///
/// Injection points:
///  * step boundaries — worker crashes (a worker loses every block it
///    holds), permanent worker deaths (the worker leaves the membership
///    for the rest of the query), lost blocks (one store entry dropped),
///    corrupted blocks (one store entry silently replaced by a bit-flipped
///    copy);
///  * worker task launches, one per worker per local phase of a step —
///    transient execution failures (retried with exponential backoff) and
///    stragglers (injected extra latency);
///  * message sends — the NetFaultSpec drop/duplicate/reorder/delay/
///    partition knobs, applied inside the accounting network layer.
struct FaultSpec {
  /// Master switch. When false the executor's fault path is a single
  /// branch and nothing below is consulted.
  bool enabled = false;

  /// Seed of the injector's private RNG (independent of the data seed, so
  /// fault schedules never perturb generated inputs).
  uint64_t seed = 1;

  /// Per step boundary: probability that one worker crashes and loses its
  /// entire partition store.
  double crash_prob = 0;
  /// Per stored block per step boundary: probability the entry vanishes.
  double lost_block_prob = 0;
  /// Per stored block per step boundary: probability the payload is
  /// silently corrupted (checksum left stale, detection is the store's
  /// job).
  double corrupt_prob = 0;

  /// Per worker task launch: probability of a transient failure. The
  /// injector stops failing a given step once `max_retries` failures have
  /// been injected for it, so transient faults always resolve.
  double transient_prob = 0;

  /// Per worker task launch: probability the worker straggles.
  double straggler_prob = 0;
  /// Injected extra latency of a straggler (simulated seconds), charged to
  /// the worker's stage seconds.
  double straggler_delay_seconds = 0.05;

  /// Attempts per step beyond the first before the executor gives up and
  /// surfaces a clean error. Retry r first backs off a simulated
  /// 0.01 s · 2^r (RetryPolicy).
  int max_retries = 4;

  /// Test hook: a step id that fails on every attempt (a *permanent*
  /// fault), regardless of `transient_prob` and the injector's budget.
  /// -1 disables.
  int permanent_fail_step = -1;

  /// Per step boundary: probability one live worker dies *permanently* —
  /// it leaves the membership, its blocks are re-derived through lineage,
  /// and survivors host its partition slot for the rest of the query.
  /// Draws are budgeted against the quorum: once another death would drop
  /// survivors below `ExecutorOptions::min_workers`, no further draw is
  /// consumed.
  double death_prob = 0;
  /// Deterministic death hook: kill `death_worker` at step `death_step`
  /// (-1 disables). With `death_in_flight` the death lands mid-CPMM, after
  /// the shuffle sends but before delivery, so the epoch fence — not the
  /// boundary path — has to catch the stale transfers.
  int death_step = -1;
  int death_worker = 0;
  bool death_in_flight = false;

  /// Message-level network faults.
  NetFaultSpec net;

  /// Disk faults, applied by the StorageIO layer (not the injector). They
  /// do not feed AnyFaultPossible(): disk faults bypass the step-boundary
  /// recovery machinery entirely and are absorbed (or surfaced) by the
  /// durable stores themselves.
  DiskFaultSpec disk;

  /// True when any probability is positive (the spec can ever fire).
  bool AnyFaultPossible() const {
    return crash_prob > 0 || lost_block_prob > 0 || corrupt_prob > 0 ||
           transient_prob > 0 || straggler_prob > 0 ||
           permanent_fail_step >= 0 || death_prob > 0 || death_step >= 0 ||
           net.Any();
  }

  /// Rejects probabilities outside [0, 1] and nonsensical knobs.
  Status Validate() const;
};

/// Parses the `key = value` spec format: one assignment per line, `#`
/// comments, unknown keys rejected. Keys match the field names above
/// (e.g. `crash_prob = 0.05`). `enabled` defaults to true in parsed specs —
/// writing a spec file is the opt-in.
Result<FaultSpec> ParseFaultSpec(const std::string& text);

/// Reads and parses a spec file.
Result<FaultSpec> LoadFaultSpecFile(const std::string& path);

}  // namespace dmac
