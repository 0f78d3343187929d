// Per-query memory budget (docs/governance.md).
//
// A MemoryBudget is a thread-safe byte account for one query. Only the
// governor layer (`runtime/governor_layer.h`) charges it, from the driver
// thread at step boundaries: the resident bytes the per-worker partition
// stores (`runtime/dist_matrix.h`) own. The budget models the *cluster's*
// aggregate memory, so a block broadcast to N workers is charged N times,
// matching `DistMatrix::TotalStoredBytes`.
//
// Charging never blocks and is allowed to overshoot: the layer enforces
// the limit before each step by spilling cold blocks to disk and fails the
// query with `kResourceExhausted` only when spilling cannot get the
// resident set back under the limit.
#pragma once

#include <atomic>
#include <cstdint>

namespace dmac {

/// Thread-safe byte account with a soft limit. `limit_bytes == 0` means
/// unlimited (accounting still runs so peak usage is observable).
class MemoryBudget {
 public:
  explicit MemoryBudget(int64_t limit_bytes = 0) : limit_(limit_bytes) {}

  MemoryBudget(const MemoryBudget&) = delete;
  MemoryBudget& operator=(const MemoryBudget&) = delete;

  /// Adds `bytes` to the account and updates the peak high-water mark.
  void Charge(int64_t bytes);

  /// Removes `bytes` from the account.
  void Release(int64_t bytes);

  int64_t limit_bytes() const { return limit_; }
  int64_t used_bytes() const { return used_.load(std::memory_order_acquire); }
  int64_t peak_bytes() const { return peak_.load(std::memory_order_acquire); }

  /// Bytes above the limit right now; 0 when under budget or unlimited.
  int64_t OverBudgetBytes() const {
    if (limit_ <= 0) return 0;
    const int64_t over = used_bytes() - limit_;
    return over > 0 ? over : 0;
  }

  /// True when a single allocation of `bytes` could never fit, even with
  /// everything else spilled. Always false when unlimited.
  bool ExceedsWholeBudget(int64_t bytes) const {
    return limit_ > 0 && bytes > limit_;
  }

 private:
  const int64_t limit_;
  std::atomic<int64_t> used_{0};
  std::atomic<int64_t> peak_{0};
};

}  // namespace dmac
