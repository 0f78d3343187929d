// Simulated message-level network with fault injection
// (docs/fault_tolerance.md).
//
// Where the comm layer (comm.h) routes sends when faults can perturb them:
// every cross-worker transfer becomes a sequence-numbered message carrying
// the sender's membership epoch, buffered at Send and committed at Flush.
// Fault draws (drop / duplicate / reorder / delay / transient partition)
// happen at send time, in the comm layer's deterministic send order, so one
// (spec.seed, program) pair replays the identical network schedule.
//
// Delivery semantics make every injected fault invisible to results:
//  * drops are retransmitted under a RetryPolicy until delivered
//    (ack + timeout, simulated), charging backoff to fault accounting;
//  * duplicates share the original's sequence number and are deduped at
//    delivery — required, because commit callbacks append partials to the
//    shuffle-and-sum inboxes, where a copy would be summed twice;
//  * reorders are absorbed by sorted (sender, sequence) delivery, which
//    also pins the floating-point summation order to the direct path's;
//  * a stale-epoch arrival from a dead sender is fenced (never committed)
//    and surfaces as retryable kDataLoss so lineage recovery rebuilds the
//    affected step — the zombie-straggler double-write cannot happen.
//
// Driver-thread only: Send and Flush are called from the comm layer's
// rounds, never from pool threads.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "fault/injector.h"
#include "fault/retry_policy.h"
#include "obs/exec_stats.h"
#include "runtime/membership.h"

namespace dmac {

/// The simulated fault-injecting message layer. Null injector/membership
/// are allowed (no faults drawn / no fencing); the fault layer only
/// instantiates it when network faults or deaths can fire.
class SimNetwork {
 public:
  SimNetwork(FaultInjector* injector, ClusterMembership* membership,
             RetryPolicy policy)
      : injector_(injector), membership_(membership), policy_(policy) {}

  /// Queues one transfer of `bytes` from `from` to `to`; `commit` applies
  /// the payload at delivery time. Draws this message's faults immediately.
  void Send(int from, int to, double bytes, std::function<void()> commit);

  /// Delivers every queued message in (sender, sequence) order, deduping
  /// duplicates and fencing stale epochs. Returns kDataLoss naming `what`
  /// when anything was fenced (the caller's retry loop re-derives the lost
  /// data through lineage); Ok otherwise. The queue is empty afterwards.
  [[nodiscard]] Status Flush(const char* what);

  /// True when at least one message is queued.
  [[nodiscard]] bool pending() const { return !messages_.empty(); }

  /// Drops every queued message without delivering it. Called before a
  /// retry attempt so sends left over from a failed attempt cannot leak
  /// into a later step's flush.
  void Clear() { messages_.clear(); }

  const NetFaultStats& stats() const { return stats_; }

 private:
  struct Message {
    int from = 0;
    int to = 0;
    int64_t seq = 0;
    int64_t epoch = 0;
    bool duplicate = false;
    std::function<void()> commit;
  };

  FaultInjector* injector_;      // not owned; may be null
  ClusterMembership* membership_;  // not owned; may be null
  RetryPolicy policy_;
  NetFaultStats stats_;
  std::vector<Message> messages_;
  /// Next sequence number of each (from, to) channel.
  std::map<std::pair<int, int>, int64_t> next_seq_;
  /// Transient-partition state: while `partition_budget_ > 0`, every
  /// message involving `partition_victim_` is force-dropped once.
  int partition_victim_ = -1;
  int partition_budget_ = 0;
};

}  // namespace dmac
