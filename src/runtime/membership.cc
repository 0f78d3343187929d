#include "runtime/membership.h"

#include <algorithm>
#include <cstddef>

namespace dmac {

namespace {

/// The simulated heartbeat failure detector declares a worker that stops
/// reporting dead after 4 missed 0.1 s heartbeats, moving it through
/// suspect to dead: one epoch each.
constexpr double kDetectionSeconds = 0.4;
constexpr int64_t kEpochsPerDeath = 2;

}  // namespace

int ClusterMembership::live_workers() const {
  return static_cast<int>(std::count(dead_.begin(), dead_.end(), false));
}

double ClusterMembership::DeclareDead(int w) {
  if (IsDead(w)) return 0.0;
  dead_[static_cast<size_t>(w)] = true;
  epoch_ += kEpochsPerDeath;
  return kDetectionSeconds;
}

int ClusterMembership::HostOf(int w) const {
  const int n = num_workers();
  if (!IsDead(w)) return w;
  for (int d = 1; d < n; ++d) {
    const int candidate = (w + d) % n;
    if (!IsDead(candidate)) return candidate;
  }
  return w;  // all dead: quorum has already failed upstream
}

}  // namespace dmac
