// Reusable retry/backoff policy (docs/fault_tolerance.md).
//
// Task retries and transfer retries share one arithmetic: exponential
// backoff doubling per attempt. All delays are *simulated* seconds charged
// to recovery accounting — nothing here sleeps.
#pragma once

#include "common/status.h"

namespace dmac {

/// Backoff schedule + retryability predicate for a bounded retry loop.
struct RetryPolicy {
  /// Attempts beyond the first before the caller gives up.
  int max_retries = 4;
  /// Backoff before retry 0 (simulated seconds). No option sets it.
  double base_seconds = 0.01;

  /// Simulated delay before retry `attempt` (0-based):
  /// `base_seconds * 2^min(attempt, 40)` — the exponent clamp keeps the
  /// delay finite for pathological retry budgets.
  [[nodiscard]] double BackoffSeconds(int attempt) const;

  /// The retryable set: transient unavailability and detected data loss
  /// (both recoverable through lineage). Everything else is terminal.
  [[nodiscard]] static bool Retryable(const Status& st) {
    return st.code() == StatusCode::kUnavailable ||
           st.code() == StatusCode::kDataLoss;
  }
};

}  // namespace dmac
