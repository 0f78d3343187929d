// Epoch-based cluster membership for the simulated cluster
// (docs/fault_tolerance.md).
//
// Tracks which workers have died and stamps every death with a
// monotonically increasing epoch. Transfers carry the sender's epoch at
// send time; the executor fences any arrival from a worker that has since
// been declared dead — the classic zombie-straggler double-write.
//
// Death is permanent: a dead worker never rejoins within a query. Its
// logical partition slot is *hosted* by a deterministic survivor
// (`HostOf`), which keeps the logical block layout — and therefore the
// floating-point summation order and bit identity — frozen at the original
// worker count while timing and byte accounting follow the survivors.
//
// Driver-thread only, like the injector it pairs with: the executor applies
// verdicts between steps and at communication-round boundaries, never from
// pool threads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace dmac {

class ClusterMembership {
 public:
  explicit ClusterMembership(int num_workers)
      : dead_(static_cast<size_t>(num_workers), false) {}

  int num_workers() const { return static_cast<int>(dead_.size()); }

  /// Current membership epoch. Starts at 1 and advances by 2 on every
  /// death — an epoch comparison is therefore a complete staleness test
  /// for anything stamped with one.
  int64_t epoch() const { return epoch_; }

  bool IsDead(int w) const { return dead_[static_cast<size_t>(w)]; }

  /// Workers not declared dead.
  int live_workers() const;

  /// Declares `w` permanently dead and returns the simulated detection
  /// latency, 0.4 s. No-op (0.0) when already dead.
  double DeclareDead(int w);

  /// The worker that hosts logical slot `w`: `w` itself while it lives,
  /// else the first non-dead worker scanning (w+1) % N, (w+2) % N, ...
  /// Deterministic in the membership state alone, so every store and the
  /// executor agree without coordination. Returns `w` unchanged when every
  /// worker is dead (the caller has already failed the quorum check).
  int HostOf(int w) const;

  /// HostOf for every slot — the rebalance map handed to DistMatrix.
  std::vector<int> HostMap() const;

 private:
  std::vector<bool> dead_;
  int64_t epoch_ = 1;
};

}  // namespace dmac
